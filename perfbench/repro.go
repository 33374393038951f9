package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"srvsim/internal/compiler"
	"srvsim/internal/harness"
	"srvsim/internal/workloads"
)

// referenceSeed is the seed results_reference.txt was generated at.
const referenceSeed = 7

// reproSetupReps is how many times repro times its workload construction.
// One construction takes 50-100 ms on a 2-CPU host, and the host's speed
// shifts every second or so; the median of 31 spans two to three seconds of
// such shifts, so one slow stretch does not move it.
const reproSetupReps = 31

// constructWorkloads instantiates and compiles every suite loop in both
// forms once: the workload construction a process does before its first
// simulation, and the warm-up of the process's lazily built state.
func constructWorkloads(seed int64) error {
	for _, b := range workloads.All() {
		for i, ls := range b.Loops {
			for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
				l, im := ls.Instantiate(seed + int64(i))
				if _, err := compiler.Compile(l, im, mode); err != nil {
					return fmt.Errorf("compiling %s loop %d: %w", b.Name, i, err)
				}
			}
		}
	}
	return nil
}

// timedSetup runs setup reps times and returns the median seconds.
func timedSetup(reps int, setup func() error) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// passSeed is the seed of a run's k-th pass: the run's seed first, then
// seeds derived from it, so a run's median pass time averages over several
// inputs instead of resting on one seed's data.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return mix(seed, uint64(k)) % 1e9
}

// reproPass runs one full evaluation, harness.RunAll, and returns its text.
func reproPass(seed int64) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := harness.RunAll(seed, &buf)
	return buf.Bytes(), time.Since(t0), err
}

// runRepro is the repro workload: full evaluation passes, back to back,
// in-process at harness parallelism e.procs.
func runRepro(ctx context.Context, e env) (*result, error) {
	setup, err := timedSetup(reproSetupReps, func() error { return constructWorkloads(e.seed) })
	if err != nil {
		return nil, err
	}
	ref, err := os.ReadFile(filepath.Join(e.root, "results_reference.txt"))
	if err != nil {
		return nil, err
	}

	// The harness's fleet counters count leaf simulations (a scalar or SRV
	// variant) without tracing, so the timed passes run untraced.
	harness.ResetFleet()
	res := &result{}
	var passes, rssAfter []float64 // pass seconds; settled RSS after each pass
	var total time.Duration
	for k := 0; total < e.seconds || len(passes) < 2; k++ {
		seed := passSeed(e.seed, k)
		out, d, err := reproPass(seed)
		res.attempted++
		switch {
		case err != nil:
			// The harness checks every simulation's final memory against
			// the reference evaluator; a divergence surfaces here.
			res.failed++
			say("repro: pass at seed %d failed: %v", seed, err)
		case seed == referenceSeed && !bytes.Equal(out, ref):
			res.failed++
			res.wrong++
			say("repro: pass output differs from results_reference.txt")
		default:
			res.succeeded++
		}
		passes = append(passes, d.Seconds())
		total += d
		rssAfter = append(rssAfter, settledRSSMB())
	}
	leaves := harness.SnapshotFleet().Simulations
	peak := peakRSSMB()
	rss := median(rssAfter)
	if leaves == 0 {
		return nil, fmt.Errorf("repro: the passes counted no leaf simulations")
	}

	// Off the reference seed, one extra untimed pass at it checks the
	// evaluation against the committed reference output.
	oracle := fmt.Sprintf("the seed-%d pass byte-identical to results_reference.txt", referenceSeed)
	if e.seed != referenceSeed {
		out, _, err := reproPass(referenceSeed)
		res.attempted++
		if err != nil || !bytes.Equal(out, ref) {
			res.failed++
			res.wrong++
			say("repro: seed-%d oracle pass differs from results_reference.txt (err=%v)", referenceSeed, err)
		} else {
			res.succeeded++
		}
		oracle = fmt.Sprintf("an extra untimed seed-%d pass byte-identical to results_reference.txt", referenceSeed)
	}

	reproS := centralMean(passes)
	sims := float64(leaves) / total.Seconds()
	say("repro: harness.RunAll back to back at parallelism %d, pass k at seed %d (k=0) or derived from it; oracle: every simulation checked against the reference evaluator by the harness, and %s",
		harness.Parallelism(), e.seed, oracle)
	sayMetric("setup_s", setup, "s", reproSetupReps, "median workload construction")
	sayMetric("repro_s", reproS, "s", len(passes), fmt.Sprintf("median pass; range %.3f-%.3f s", percentile(passes, 0), percentile(passes, 100)))
	sayMetric("sims_per_s", sims, "1/s", int(leaves), "leaf simulations per host second")
	sayMetric("rss_mb", rss, "MB", len(rssAfter), "median resident set after each pass, once garbage is returned")
	sayMetric("peak_rss_mb", peak, "MB", 1, "high-water mark")
	sayMetric("fail_ratio", res.failRatio(), "ratio", int(res.attempted), "")
	res.set("setup_s", setup, "s")
	res.set("p50_ms", reproS*1000, "ms")
	res.set("throughput", sims, "1/s")
	res.set("rss_mb", rss, "MB")
	return res, nil
}
