// benchgate compares a fresh harness timing report against a committed
// baseline and fails (exit 1) on a simulated-cycle regression.
//
// Usage:
//
//	benchgate BENCH_baseline.json fresh.json
//	benchgate -threshold 1.05 base.json fresh.json
//
// The gate is on simulated cycles (deterministic for a fixed seed), never on
// wall-clock; see `make bench-gate` for the end-to-end workflow.
package main

import (
	"flag"
	"fmt"
	"os"

	"srvsim/internal/harness"
)

func main() {
	threshold := flag.Float64("threshold", harness.DefaultGateThreshold,
		"fail when the geomean fresh/base cycle ratio exceeds this")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold 1.10] baseline.json fresh.json")
		os.Exit(2)
	}
	base, err := harness.LoadTimings(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fresh, err := harness.LoadTimings(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	// A baseline written by an older build (or before reports carried a
	// schema_version at all) is still comparable — the gate is on simulated
	// cycles — but flag it so a stale baseline is visible in CI logs.
	if base.SchemaVersion < harness.SchemaVersion {
		fmt.Fprintf(os.Stderr,
			"benchgate: warning: baseline %s has schema_version %d (current %d); consider refreshing it\n",
			flag.Arg(0), base.SchemaVersion, harness.SchemaVersion)
	}
	g := harness.Gate(base, fresh, *threshold)
	fmt.Print(g)
	if !g.Pass {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
