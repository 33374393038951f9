package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"srvsim/internal/workloads"
)

// BenchTiming is one row of the timing report: how long the simulator took
// in wall-clock terms to run every loop of one benchmark, plus the simulated
// cycle totals so cycles/sec can be derived. The cycle totals are
// deterministic for a fixed seed, which is what the perf-regression gate
// compares.
type BenchTiming struct {
	Bench        string  `json:"bench"`
	Loops        int     `json:"loops"`
	Failures     int     `json:"failures,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	ScalarCycles int64   `json:"scalar_cycles"`
	SRVCycles    int64   `json:"srv_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Speedup      float64 `json:"speedup"`

	// AllocsPerKCycle is the heap allocations the *simulator process* made
	// per thousand simulated cycles while this benchmark ran — a coarse
	// process-wide tripwire for allocation creep on the hot path, not a
	// per-goroutine measurement.
	AllocsPerKCycle float64 `json:"allocs_per_kcycle"`

	// CyclesPerSecDelta is the fractional change in cycles_per_sec versus
	// the previous report at the same output path ((new-old)/old), when one
	// existed and covered this benchmark. Informational only: wall-clock
	// throughput varies with the machine, so nothing gates on it.
	CyclesPerSecDelta float64 `json:"cycles_per_sec_delta,omitempty"`
}

// TimingReport is the full -timing artifact (BENCH_harness.json when invoked
// per the Makefile): per-benchmark rows plus fleet-level throughput metrics.
type TimingReport struct {
	SchemaVersion int           `json:"schema_version"`
	CodeVersion   string        `json:"code_version"`
	Seed          int64         `json:"seed"`
	Workers       int           `json:"workers"`
	NumCPU        int           `json:"num_cpu"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	GoVersion     string        `json:"go_version"`
	TotalWallMS   float64       `json:"total_wall_ms"`
	Fleet         FleetSnapshot `json:"fleet"`
	Benchmarks    []BenchTiming `json:"benchmarks"`
}

// WriteTimings wall-clocks RunBenchmark for every workload (or the named
// subset; nil = all) and writes the report to path. Contained per-loop
// failures are summarised on stderr and surface as a *FleetError after the
// report is written.
func WriteTimings(path string, seed int64, benches []string) error {
	want := map[string]bool{}
	for _, b := range benches {
		want[b] = true
	}
	known := 0
	for _, b := range workloads.All() {
		if want[b.Name] {
			known++
		}
	}
	if known != len(want) {
		return fmt.Errorf("timing: %d of %d requested benchmarks unknown (have: %s)",
			len(want)-known, len(want), benchNames())
	}
	rep := TimingReport{
		SchemaVersion: SchemaVersion,
		CodeVersion:   CodeVersion,
		Seed:          seed,
		Workers:       Parallelism(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
	}
	// The previous report at the same path (if readable) supplies the
	// informational cycles_per_sec deltas. Errors are deliberately ignored:
	// a missing or stale previous run just means no deltas.
	prevCPS := map[string]float64{}
	if prev, err := LoadTimings(path); err == nil {
		for _, bt := range prev.Benchmarks {
			prevCPS[bt.Bench] = bt.CyclesPerSec
		}
	}
	var fails []*SimError
	ResetFleet()
	start := time.Now()
	var ms runtime.MemStats
	for _, b := range workloads.All() {
		if len(want) > 0 && !want[b.Name] {
			continue
		}
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		t0 := time.Now()
		br, err := RunBenchmark(b, seed)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms)
		fails = append(fails, br.Failures...)
		bt := BenchTiming{
			Bench:    b.Name,
			Loops:    len(br.Loops),
			Failures: len(br.Failures),
			WallMS:   float64(wall.Microseconds()) / 1e3,
			Speedup:  br.Speedup,
		}
		for _, lr := range br.Loops {
			bt.ScalarCycles += lr.ScalarCycles
			bt.SRVCycles += lr.SRVCycles
		}
		if secs := wall.Seconds(); secs > 0 {
			bt.CyclesPerSec = float64(bt.ScalarCycles+bt.SRVCycles) / secs
		}
		if cyc := bt.ScalarCycles + bt.SRVCycles; cyc > 0 {
			bt.AllocsPerKCycle = float64(ms.Mallocs-mallocs0) / (float64(cyc) / 1e3)
		}
		if old, ok := prevCPS[bt.Bench]; ok && old > 0 && bt.CyclesPerSec > 0 {
			bt.CyclesPerSecDelta = (bt.CyclesPerSec - old) / old
		}
		rep.Benchmarks = append(rep.Benchmarks, bt)
	}
	rep.TotalWallMS = float64(time.Since(start).Microseconds()) / 1e3
	rep.Fleet = SnapshotFleet()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if len(fails) > 0 {
		fmt.Fprint(os.Stderr, FailureSummary(fails))
		return &FleetError{Failures: fails}
	}
	return nil
}

// LoadTimings reads a timing report written by WriteTimings. A report that
// fails to parse or carries no benchmark rows is rejected explicitly — a
// truncated baseline (interrupted `make timing`, partial copy) must
// fail the perf gate loudly, not pass it vacuously.
func LoadTimings(path string) (*TimingReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep TimingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%s: truncated or corrupt timing report (offset %d of %d bytes): %w — regenerate it with `make timing`",
				path, syntaxOffset(err), len(data), err)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: timing report has no benchmark rows — truncated baseline? regenerate it with `make timing`", path)
	}
	return &rep, nil
}

// syntaxOffset extracts the byte offset of a JSON syntax error, 0 otherwise.
func syntaxOffset(err error) int64 {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return syn.Offset
	}
	return 0
}

// benchNames lists the known benchmark names, comma-separated.
func benchNames() string {
	out := ""
	for i, b := range workloads.All() {
		if i > 0 {
			out += ","
		}
		out += b.Name
	}
	return out
}
