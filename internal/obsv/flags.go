package obsv

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Unified observability CLI flags. Every command that exports traces,
// metrics, samples, or replay profiles, or writes a structured log,
// registers its flags from this one table, so names and help text cannot
// drift between commands ("-" as an output path means stdout everywhere).

// ObsFlags receives the parsed values of the shared observability flags.
// Fields for flags a command did not register stay at their zero value.
type ObsFlags struct {
	TraceOut      string
	MetricsOut    string
	SampleOut     string
	SampleEvery   int64
	ReplayProfile bool
	LogLevel      string
	LogFormat     string
}

// obsFlagTable is the single source of truth for the shared flag names and
// help strings. Each entry binds one flag to an ObsFlags field.
var obsFlagTable = []struct {
	name, help string
	register   func(fs *flag.FlagSet, o *ObsFlags, name, help string)
}{
	{"trace-out", "write a Chrome/Perfetto trace of the run to this file (\"-\" = stdout)",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.StringVar(&o.TraceOut, n, "", h) }},
	{"metrics-out", "write the metrics registry as JSON to this file (\"-\" = stdout)",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.StringVar(&o.MetricsOut, n, "", h) }},
	{"sample-out", "write the cycle-interval samples to this file (\".json\" = JSON, else CSV; default/\"-\" = stdout)",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.StringVar(&o.SampleOut, n, "", h) }},
	{"sample-every", "sample pipeline occupancy every N cycles (0 = off)",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.Int64Var(&o.SampleEvery, n, 0, h) }},
	{"replay-profile", "attribute replay rounds, squashed lanes and wasted cycles to static instructions and print the per-PC profile",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.BoolVar(&o.ReplayProfile, n, false, h) }},
	{"log-level", "minimum log level: debug|info|warn|error",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.StringVar(&o.LogLevel, n, "info", h) }},
	{"log-format", "log line format: text|json",
		func(fs *flag.FlagSet, o *ObsFlags, n, h string) { fs.StringVar(&o.LogFormat, n, "text", h) }},
}

// RegisterObsFlags registers the named flags from the shared table on fs and
// returns the struct their parsed values land in. Asking for a flag the
// table does not define panics: a typo here is a programming error, not a
// runtime condition.
func RegisterObsFlags(fs *flag.FlagSet, names ...string) *ObsFlags {
	o := &ObsFlags{}
	for _, name := range names {
		found := false
		for _, e := range obsFlagTable {
			if e.name == name {
				e.register(fs, o, e.name, e.help)
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("obsv: unknown observability flag %q", name))
		}
	}
	return o
}

// BuildLogger constructs a process logger writing to w from the -log-level
// and -log-format flag values; an unknown value is an error naming the
// flag and the accepted values.
func BuildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

// ObsFlagDocs renders the shared table (or the named subset) as markdown
// rows, so command docs quote the same text the flags print.
func ObsFlagDocs(names ...string) string {
	want := func(string) bool { return true }
	if len(names) > 0 {
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		want = func(n string) bool { return set[n] }
	}
	var b strings.Builder
	for _, e := range obsFlagTable {
		if want(e.name) {
			fmt.Fprintf(&b, "| `-%s` | %s |\n", e.name, e.help)
		}
	}
	return b.String()
}
