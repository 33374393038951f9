// perfbench is the repository's benchmark: one command that runs a named
// workload against the simulator (repro) or an in-process srvgw + srvd
// fleet (fleet-cold, fleet-mixed), checks every output against an oracle,
// and prints its metrics. With -trace 1 it instead times the public calls
// into each layer and prints the per-layer metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload repro --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads and the meaning of each metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"srvsim/internal/harness"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally is the failure and refusal accounting of a workload or rate step.
type tally struct {
	attempted int64
	succeeded int64
	failed    int64 // errors and oracle mismatches
	refused   int64 // admission refusals (429/503)
	wrong     int64 // of failed: outputs that did not match the oracle
	refusedBy map[string]int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	t.failed += o.failed
	t.refused += o.refused
	t.wrong += o.wrong
	for k, v := range o.refusedBy {
		t.refuse(k, v)
	}
}

func (t *tally) refuse(code string, n int64) {
	if t.refusedBy == nil {
		t.refusedBy = map[string]int64{}
	}
	t.refusedBy[code] += n
}

// record accounts one operation's outcome.
func (t *tally) record(err error) {
	t.attempted++
	switch {
	case err == nil:
		t.succeeded++
	case refusal(err):
		t.refused++
		t.refuse(errCode(err), 1)
	default:
		t.failed++
	}
}

// mismatch reclassifies n succeeded operations whose outputs failed the
// oracle.
func (t *tally) mismatch(n int64) {
	t.succeeded -= n
	t.failed += n
	t.wrong += n
}

// failRatio is (failed + refused) / attempted.
func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed+t.refused) / float64(t.attempted)
}

func (t tally) String() string {
	s := fmt.Sprintf("attempted=%d succeeded=%d failed=%d (wrong output %d) refused=%d",
		t.attempted, t.succeeded, t.failed, t.wrong, t.refused)
	if len(t.refusedBy) > 0 {
		codes := make([]string, 0, len(t.refusedBy))
		for c := range t.refusedBy {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			s += fmt.Sprintf(" %s=%d", c, t.refusedBy[c])
		}
	}
	return s
}

// result is what one workload run reports.
type result struct {
	tally
	metrics map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// env is the run's fixed context.
type env struct {
	seed    int64
	seconds time.Duration
	procs   int    // GOMAXPROCS, harness parallelism and client connections
	scratch string // directory for journals, inside the checkout
	root    string // repository root (results_reference.txt)
}

// say prints one human-readable report line (never the last line).
func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// sayMetric prints a named metric with its unit and sample count.
func sayMetric(name string, v float64, unit string, n int, note string) {
	line := fmt.Sprintf("  %-26s %14.4f %-6s n=%d", name, v, unit, n)
	if note != "" {
		line += "  " + note
	}
	say("%s", line)
}

// settleTries is how many times settledRSSMB returns free memory to the OS
// and reads the resident set.
const settleTries = 3

// settledRSSMB is the memory the process holds once its garbage is gone:
// the resident set after a full collection that returns free memory to the
// OS. Unlike the high-water mark it does not depend on when collections
// happened to run, so it repeats from run to run. One reading now and then
// comes out a few MB high, runtime memory not yet given back, so it is the
// least of settleTries readings.
func settledRSSMB() float64 {
	least := 0.0
	for i := 0; i < settleTries; i++ {
		debug.FreeOSMemory()
		mb, ok := rssMB()
		if !ok {
			return peakRSSMB()
		}
		if i == 0 || mb < least {
			least = mb
		}
	}
	return least
}

// rssMB reads the current resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloadNames = []string{"repro", "fleet-cold", "fleet-mixed"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, "|"))
	seed := flag.Int64("seed", 7, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	harness.SetParallelism(procs)
	harness.SetCrashDir("")

	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	if _, err := os.Stat("results_reference.txt"); err != nil {
		fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(scratch)
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, procs: procs, scratch: scratch, root: root}

	say("perfbench: workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *traced)
	say("environment: nproc=%d GOMAXPROCS=%d harness.parallelism=%d client-conns=%d %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), harness.Parallelism(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)

	ctx := context.Background()
	var res *result
	switch {
	case !slices.Contains(workloadNames, *workload):
		err = fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames, ", "))
	case *traced == 1:
		res, err = runTraced(ctx, e, *workload)
	case *workload == "repro":
		res, err = runRepro(ctx, e)
	case *workload == "fleet-cold":
		res, err = runCold(ctx, e)
	default:
		res, err = runMixed(ctx, e)
	}
	if err != nil {
		os.RemoveAll(scratch)
		fail(err)
	}
	say("accounting: %s fail_ratio=%.6f", res.tally, res.failRatio())
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.refused == 0, res.attempted, res.failed + res.refused, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports a run that could not produce a result: no JSON line, exit 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
