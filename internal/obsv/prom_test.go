package obsv

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// promTestRegistry builds a fixed registry covering every metric kind,
// including a conditional metric that must not appear and a histogram with
// an overflow observation.
func promTestRegistry() *Registry {
	r := NewRegistry()
	var cycles int64 = 1234
	core := r.Section("core")
	core.Counter("sim.cycles", "simulated cycles", &cycles)
	core.Gauge("sim.ipc", "instructions per cycle", "%.4f", func() float64 { return 0.5625 })
	srv := r.Section("serve")
	srv.CounterFn("serve.cache.hits", "submissions served byte-identically from the result cache", func() int64 { return 7 })
	srv.If(func() bool { return false }).CounterFn("serve.hidden", "never exported", func() int64 { return 99 })
	h := NewHistogram(1, 5, 25)
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(100) // overflow bucket
	srv.Histogram("serve.e2e_latency_ms", "end-to-end latency of submissions in milliseconds", h)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestPrometheusParseBack(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("own exposition failed to parse: %v", err)
	}
	byName := make(map[string][]PromSample)
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if got := byName["sim_cycles"]; len(got) != 1 || got[0].Value != 1234 {
		t.Fatalf("sim_cycles: %+v", got)
	}
	if got := byName["sim_ipc"]; len(got) != 1 || got[0].Value != 0.5625 {
		t.Fatalf("sim_ipc: %+v", got)
	}
	if got := byName["serve_cache_hits"]; len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("serve_cache_hits: %+v", got)
	}
	if _, hidden := byName["serve_hidden"]; hidden {
		t.Fatal("conditional metric leaked into exposition")
	}
	// Histogram: cumulative buckets, +Inf == _count, sum preserved.
	buckets := byName["serve_e2e_latency_ms_bucket"]
	if len(buckets) != 4 {
		t.Fatalf("want 4 le buckets, got %+v", buckets)
	}
	wantLe := map[string]float64{"1": 1, "5": 3, "25": 3, "+Inf": 4}
	for _, b := range buckets {
		le := b.Labels["le"]
		if b.Value != wantLe[le] {
			t.Fatalf("bucket le=%q value %v, want %v", le, b.Value, wantLe[le])
		}
	}
	if got := byName["serve_e2e_latency_ms_count"]; len(got) != 1 || got[0].Value != 4 {
		t.Fatalf("_count: %+v", got)
	}
	if got := byName["serve_e2e_latency_ms_sum"]; len(got) != 1 || got[0].Value != 107 {
		t.Fatalf("_sum: %+v", got)
	}
}

func TestParsePrometheusAcceptsGrammar(t *testing.T) {
	in := `# plain comment
# HELP up whether the target is up
# TYPE up gauge
up 1
http_requests_total{method="get",code="200"} 1027 1395066363000
escaped{msg="a\"b\\c\nd"} +Inf
`
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("want 3 samples, got %d", len(samples))
	}
	if samples[1].Labels["method"] != "get" || samples[1].Labels["code"] != "200" {
		t.Fatalf("labels: %+v", samples[1].Labels)
	}
	if samples[2].Labels["msg"] != "a\"b\\c\nd" {
		t.Fatalf("escaped label: %q", samples[2].Labels["msg"])
	}
	if !math.IsInf(samples[2].Value, 1) {
		t.Fatalf("want +Inf, got %v", samples[2].Value)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_value\n",
		"1leading_digit 3\n",
		`unterminated{le="5 3` + "\n",
		"name{le=5} 3\n",
		"name 3 notatimestamp\n",
		"name notanumber\n",
		"# TYPE name sideways\n",
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("parser accepted %q", in)
		}
	}
}

func TestPromNameSanitises(t *testing.T) {
	cases := map[string]string{
		"serve.cache.hits": "serve_cache_hits",
		"sim.ipc":          "sim_ipc",
		"0weird":           "_0weird",
		"a-b c":            "a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisterObsFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs, "trace-out", "metrics-out")
	if err := fs.Parse([]string{"-trace-out", "t.json", "-metrics-out", "-"}); err != nil {
		t.Fatal(err)
	}
	if o.TraceOut != "t.json" || o.MetricsOut != "-" {
		t.Fatalf("parsed values: %+v", o)
	}
	if fs.Lookup("sample-every") != nil {
		t.Fatal("unrequested flag was registered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown flag name did not panic")
		}
	}()
	RegisterObsFlags(fs, "no-such-flag")
}

func TestBuildLogger(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs, "log-level", "log-format")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.LogLevel != "info" || o.LogFormat != "text" {
		t.Fatalf("log flag defaults: %+v", o)
	}
	cases := []struct {
		level, format string
		wantErr       string // substring of the error; "" = must succeed
		wantPrefix    string // prefix of the line logged at Warn
		debugShown    bool
	}{
		{level: "debug", format: "text", wantPrefix: "time=", debugShown: true},
		{level: "info", format: "json", wantPrefix: "{"},
		{level: "warn", format: "text", wantPrefix: "time="},
		{level: "error", format: "json"},
		{level: "verbose", format: "text", wantErr: `unknown -log-level "verbose" (want debug|info|warn|error)`},
		{level: "", format: "json", wantErr: `unknown -log-level ""`},
		{level: "info", format: "xml", wantErr: `unknown -log-format "xml" (want text|json)`},
		{level: "INFO", format: "text", wantErr: "-log-level"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		lg, err := BuildLogger(&buf, c.level, c.format)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("BuildLogger(%q, %q) error = %v, want one containing %q", c.level, c.format, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("BuildLogger(%q, %q): %v", c.level, c.format, err)
			continue
		}
		lg.Debug("d")
		if got := buf.Len() > 0; got != c.debugShown {
			t.Errorf("level %q: debug line written = %v, want %v", c.level, got, c.debugShown)
		}
		buf.Reset()
		lg.Warn("w")
		if !strings.HasPrefix(buf.String(), c.wantPrefix) || (c.wantPrefix == "") != (buf.Len() == 0) {
			t.Errorf("%s/%s: warn line %q, want prefix %q", c.level, c.format, buf.String(), c.wantPrefix)
		}
	}
}

func TestObsFlagDocsSubset(t *testing.T) {
	docs := ObsFlagDocs("trace-out")
	if !strings.Contains(docs, "`-trace-out`") || strings.Contains(docs, "metrics-out") {
		t.Fatalf("docs subset wrong:\n%s", docs)
	}
}
