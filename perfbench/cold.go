package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/serve"
	"srvsim/internal/workloads"
)

// suiteLoop names one loop of the paper's suite.
type suiteLoop struct {
	bench string
	loop  int
}

// suiteLoops lists all suite loops in workload order.
func suiteLoops() []suiteLoop {
	var out []suiteLoop
	for _, b := range workloads.All() {
		for i := range b.Loops {
			out = append(out, suiteLoop{b.Name, i})
		}
	}
	return out
}

// mix is a splitmix64 step: a well-spread 63-bit value from (seed, i).
func mix(seed int64, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// freshRequest is the i-th cold request of a run: every len(loops)
// consecutive requests cover each loop once, in a seeded order that changes
// from round to round (so which loops run side by side varies, instead of
// locking into one pairing for the whole run), each with a seed no earlier
// request used, so it misses both cache tiers.
func freshRequest(loops []suiteLoop, seed int64, i int) harness.Request {
	round := i / len(loops)
	perm := rand.New(rand.NewSource(mix(seed, uint64(round)))).Perm(len(loops))
	l := loops[perm[i%len(loops)]]
	return loopRequest(l.bench, l.loop, mix(seed, uint64(i))%1e9)
}

// coldSetupReps is how many times fleet-cold sets up to time set-up: a fleet
// boot alone is a few ms of listeners and journal files, so each set-up
// also constructs the workload (every suite loop instantiated and compiled
// at the run's seed, 50-100 ms), and the median is over 31 of them, as
// repro's is.
const coldSetupReps = 31

// bootFleet boots the fleet reps times, running the workload's own set-up
// (workload construction or cache warm-up) on each, and returns the last
// fleet with the median set-up time.
func bootFleet(e env, reps, spanCap int, setup func(*fleet) error) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(e.scratch, spanCap); err != nil {
			return nil, 0, err
		}
		if setup != nil {
			if err := setup(f); err != nil {
				f.stop()
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, median(times), nil
}

// completed is one finished fleet request kept for the output oracle.
type completed struct {
	req    harness.Request
	result json.RawMessage
}

// verify re-runs every request in-process with harness.Run and reports how
// many results differ from the fleet's bytes. It runs after the timed window.
func verify(ctx context.Context, e env, done []completed) (int64, error) {
	var wrong atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, e.procs)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(done) {
					return
				}
				res, err := harness.Run(ctx, done[i].req)
				if err != nil {
					errs <- fmt.Errorf("oracle run: %w", err)
					return
				}
				want, err := json.Marshal(res)
				if err != nil {
					errs <- err
					return
				}
				// Responses are indented on the wire; the result bytes proper
				// are its compact form.
				var got bytes.Buffer
				if err := json.Compact(&got, done[i].result); err != nil || !bytes.Equal(want, got.Bytes()) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return wrong.Load(), nil
}

// coldOutcome is one closed-loop request.
type coldOutcome struct {
	lat time.Duration
	err error
	st  serve.JobStatus
	req harness.Request
}

// runColdLoad drives the closed loop: e.procs callers, each submitting the
// next fresh request with ?wait=1 and waiting for the answer, until d ends
// or, when limit > 0, limit requests have been sent. A run that ends on
// time ends on a whole round, so every run measures each suite loop
// equally often, whatever its seed and however far the time went.
func runColdLoad(ctx context.Context, e env, f *fleet, c *client, d time.Duration, limit int) ([]coldOutcome, time.Duration) {
	loops := suiteLoops()
	var mu sync.Mutex
	var outs []coldOutcome
	sent, stop := 0, -1
	start := time.Now()
	// take hands out the next request index, or false once the run is over.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop < 0 && time.Since(start) >= d {
			stop = (sent + len(loops) - 1) / len(loops) * len(loops)
		}
		if (stop >= 0 && sent >= stop) || (limit > 0 && sent >= limit) {
			return 0, false
		}
		sent++
		return sent - 1, true
	}
	var wg sync.WaitGroup
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				req := freshRequest(loops, e.seed, i)
				t0 := time.Now()
				st, err := c.submit(ctx, f.gwURL, encodeRequest(req), true)
				o := coldOutcome{lat: time.Since(t0), err: err, st: st, req: req}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// runCold is the fleet-cold workload.
func runCold(ctx context.Context, e env) (*result, error) {
	f, setup, err := bootFleet(e, coldSetupReps, 0, func(*fleet) error { return constructWorkloads(e.seed) })
	if err != nil {
		return nil, err
	}
	c := newClient(e.procs)
	defer c.close()
	depthStart, _, err := f.queueDepth(c)
	if err != nil {
		f.stop()
		return nil, err
	}
	outs, wall := runColdLoad(ctx, e, f, c, e.seconds, 0)
	depthEnd, _, err := f.queueDepth(c)
	peak := peakRSSMB()
	rss := settledRSSMB()
	f.stop()
	if err != nil {
		return nil, err
	}

	res := &result{}
	var lats []float64
	var done []completed
	for _, o := range outs {
		res.record(o.err)
		if o.err == nil {
			lats = append(lats, ms(o.lat))
			done = append(done, completed{req: o.req, result: o.st.Result})
		}
	}
	wrong, err := verify(ctx, e, done)
	if err != nil {
		return nil, err
	}
	res.mismatch(wrong)
	if len(lats) == 0 {
		return nil, fmt.Errorf("fleet-cold: no request completed (%s)", res.tally)
	}
	rps := float64(len(lats)) / wall.Seconds()
	say("fleet-cold: closed loop, %d callers, ?wait=1, ModeLoop over %d suite loops with fresh seeds; node queue depth %d -> %d",
		e.procs, len(suiteLoops()), depthStart, depthEnd)
	sayMetric("setup_s", setup, "s", coldSetupReps, "median fleet boot + workload construction")
	sayMetric("cold_rps", rps, "req/s", len(lats), fmt.Sprintf("over %.2fs", wall.Seconds()))
	sayMetric("cold_p50_ms", centralMean(lats), "ms", len(lats), "mean of the 45th-55th percentile band")
	sayMetric("cold_p99_ms", percentile(lats, 99), "ms", len(lats), tailNote(len(lats), 99, lats))
	sayMetric("rss_mb", rss, "MB", 1, "resident set after the load, once garbage is returned")
	sayMetric("peak_rss_mb", peak, "MB", 1, "high-water mark")
	sayMetric("fail_ratio", res.failRatio(), "ratio", int(res.attempted), fmt.Sprintf("%d oracle checks", len(done)))
	res.set("setup_s", setup, "s")
	res.set("p50_ms", centralMean(lats), "ms")
	res.set("throughput", rps, "1/s")
	res.set("rss_mb", rss, "MB")
	return res, nil
}

// tailNote explains whether the q-th percentile of xs rests on enough
// samples, naming the highest percentile that does when it does not.
func tailNote(n int, q float64, xs []float64) string {
	if beyond(n, q) >= minBeyond {
		return fmt.Sprintf("%d samples beyond p%g", beyond(n, q), q)
	}
	hp := supportedPercentile(n)
	if hp == 0 {
		return fmt.Sprintf("only %d samples beyond p%g; no percentile has %d beyond it", beyond(n, q), q, minBeyond)
	}
	return fmt.Sprintf("only %d samples beyond p%g; highest supported p%.1f = %.4f",
		beyond(n, q), q, hp, percentile(xs, hp))
}
