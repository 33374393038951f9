package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"srvsim/internal/harness"
	"srvsim/internal/serve"
)

// fleet-mixed parameters. The warm set is larger than the gateway tier's
// default 256 entries and smaller than the two nodes' caches combined (512),
// so both tiers serve hits. Warm and fresh requests are drawn from the six
// cheapest suite loops, so warming is a small part of set-up and every
// fresh simulation costs about the same (a few ms), which keeps the
// background write load steady from run to run.
const (
	warmSetSize = 320
	// zipfS skews warm-set draws: rank k is drawn with weight 1/(1+k)^zipfS.
	zipfS = 1.1
	// warmLimitMS is the warm_p99_ms limit a step must meet. It sits a few
	// times above the tail this fleet shows at the reference rate on a
	// 2-CPU host (simulations, GC and the benchmark's own generator share
	// the CPUs), so steps fail where queueing sets in, not on noise.
	warmLimitMS = 25.0
	// maxLag is how far the achieved send rate may fall below the offered
	// rate before the generator's own backlog counts as growing.
	maxLag = 0.05
)

// mixedRates is the fixed-rate ladder (req/s), lowest first; the first is
// the reference rate.
var mixedRates = []float64{1000, 2000, 2500, 3000, 3500, 4000, 4500}

const (
	// freshPerMille of arrivals are fresh-seed requests that must simulate.
	// At the ladder's top rate (4500 req/s) 4% is 180 simulations/s, about
	// the fleet's cold capacity for the warm loops: a closed loop of 2
	// ?wait=1 callers over fresh warmLoops requests completed 181-191 req/s
	// on a 2-CPU host. So at the top of the ladder the simulator can bind
	// mixed_max_rps as well as the serving path.
	freshPerMille = 40
	// Each step's share of the measurement budget: the reference step gets
	// the longest so its tail rests on many samples.
	refShare      = 0.35
	ladderShare   = 0.06
	saturateShare = 0.30
	// saturateWarmup is the start of the saturating step that is not
	// counted: senders and the runtime ramp up over it, and its rate read
	// 10-25% below the rest of the step's and varied the most.
	saturateWarmup = time.Second
	// saturateRate only sizes the saturating step's schedule: senders go
	// back to back and stop at the step's end.
	saturateRate = 20000
	// mixedSetupReps is how many times fleet-mixed boots and warms a fleet
	// to time set-up (about 1.5 s each on a 2-CPU host).
	mixedSetupReps = 5
)

// warmLoops are the cheapest suite loops (a few ms each to simulate).
var warmLoops = []suiteLoop{
	{"h264ref", 0}, {"h264ref", 1}, {"perlbench", 0}, {"perlbench", 1}, {"gobmk", 1}, {"hmmer", 1},
}

// warmSet is the fleet-mixed warm set for a seed; warmUp fills in each
// entry's expected result.
func warmSet(seed int64) []warmEntry {
	out := make([]warmEntry, warmSetSize)
	for k := range out {
		l := warmLoops[k%len(warmLoops)]
		req := loopRequest(l.bench, l.loop, mix(seed^0x5eed, uint64(k))%1e9)
		out[k] = warmEntry{req: req, body: encodeRequest(req)}
	}
	return out
}

// arrival is one scheduled request of an open-loop step.
type arrival struct {
	due   time.Duration // offset from the step start
	fresh bool
	key   int // warm-set index, or the fresh-request sequence number
}

// schedule draws a step's arrivals: a Poisson process at rate for d, each
// arrival fresh with an exact share of freshPerMille and otherwise a
// Zipf-skewed warm-set draw. freshBase numbers the step's fresh requests.
// The same (seed, step) always gives the same arrivals.
func schedule(seed int64, step int, rate float64, d time.Duration, freshBase int) []arrival {
	rng := rand.New(rand.NewSource(mix(seed, 1000+uint64(step))))
	zipf := rand.NewZipf(rng, zipfS, 1, warmSetSize-1)
	var out []arrival
	t := 0.0
	fresh := freshBase
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second))}
		if (i+1)*freshPerMille/1000 > i*freshPerMille/1000 {
			a.fresh, a.key = true, fresh
			fresh++
		} else {
			a.key = int(zipf.Uint64())
		}
		out = append(out, a)
	}
}

// stepResult is one rate step's measurements.
type stepResult struct {
	rate     float64   // offered
	achieved float64   // arrivals sent per second of the step
	warm     []float64 // ms from due time
	// warmService is the warm requests' ms from send time: the fleet's
	// response time without the generator's own lateness. It is the gated
	// p50: on a shared virtual host the generator's timer wake-ups drift
	// between runs (warm p50 from due time read 0.8, 1.3 and 2.2 ms in
	// runs of one batch) while the response time held within 10%.
	warmService []float64
	sentS       []float64 // every send's time, s from the step start
	fresh       []float64 // ms from due time
	late        []float64 // ms send time minus due time
	depthStart  int64
	depthEnd    int64
	workers     int64 // the nodes' job workers, from /v1/healthz
	warmMisses  int   // warm-set requests neither cache tier answered
	tally
}

// grew reports whether a backlog grew across the step: node queue depth by
// more than the fleet's job workers (a change within that is ordinary
// jitter), or the generator falling behind its schedule.
func (s stepResult) grew() bool {
	return s.depthEnd-s.depthStart > s.workers || s.achieved < (1-maxLag)*s.rate
}

// passed reports whether the step meets every mixed_max_rps condition.
func (s stepResult) passed() bool {
	return len(s.warm) > 0 && percentile(s.warm, 99) <= warmLimitMS &&
		s.failed == 0 && s.refused == 0 && !s.grew()
}

// maxRate selects mixed_max_rps from steps run lowest rate first: the
// achieved rate of the highest step that passed with every step below it.
// When the next step failed on warm_p99_ms alone, the rate is interpolated
// (log-log) to where warm_p99_ms crosses the limit. ok is false when even
// the first step failed.
func maxRate(steps []stepResult) (rate float64, ok bool) {
	k := -1
	for i, s := range steps {
		if !s.passed() {
			break
		}
		k = i
	}
	if k < 0 {
		return 0, false
	}
	rate = steps[k].achieved
	if k+1 < len(steps) {
		n := steps[k+1]
		pk, pn := percentile(steps[k].warm, 99), percentile(n.warm, 99)
		if n.failed == 0 && n.refused == 0 && !n.grew() && pn > pk && n.achieved > rate {
			f := (math.Log(warmLimitMS) - math.Log(pk)) / (math.Log(pn) - math.Log(pk))
			rate *= math.Pow(n.achieved/rate, math.Max(0, math.Min(1, f)))
		}
	}
	return rate, true
}

// warmEntry is a warm-set request with its expected result bytes.
type warmEntry struct {
	req  harness.Request
	body []byte
	want []byte // compact result bytes from the warm-up
}

// compact returns the compact form of a JSON value.
func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil
	}
	return b.Bytes()
}

// warmUp submits every warm-set request through the gateway (e.procs
// callers, ?wait=1) and records each result.
func warmUp(ctx context.Context, e env, f *fleet, c *client, set []warmEntry) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, e.procs)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(set) {
					return
				}
				st, err := c.submit(ctx, f.gwURL, set[i].body, true)
				if err != nil {
					errs <- fmt.Errorf("warming entry %d: %w", i, err)
					return
				}
				set[i].want = compact(st.Result)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// warmOnly drops the fresh arrivals of a schedule.
func warmOnly(arr []arrival) []arrival {
	var out []arrival
	for _, a := range arr {
		if !a.fresh {
			out = append(out, a)
		}
	}
	return out
}

// pendingJob is a submitted request the poller still has to see finish.
type pendingJob struct {
	a    arrival
	req  harness.Request
	id   string
	due  time.Time
	sent time.Time
}

// mixedRun carries the state shared by every step of one fleet-mixed run.
type mixedRun struct {
	e   env
	f   *fleet
	c   *client
	set []warmEntry
	// done collects fresh results for the output oracle.
	done []completed
}

// stepState is a running step's shared accounting.
type stepState struct {
	m     *mixedRun
	start time.Time // the step's start, which arrivals' due times count from
	mu    sync.Mutex
	sr    stepResult
	// pending are submitted requests that were not finished on submission.
	pending []pendingJob
}

// finish accounts one request's terminal status, finished at now.
func (s *stepState) finish(j pendingJob, st serve.JobStatus, err error, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && st.State == serve.StateFailed {
		err = fmt.Errorf("job %s failed: %s", j.id, st.Error)
	}
	s.sr.record(err)
	if err != nil {
		return
	}
	lat := ms(now.Sub(j.due))
	if j.a.fresh {
		s.sr.fresh = append(s.sr.fresh, lat)
		s.m.done = append(s.m.done, completed{req: j.req, result: st.Result})
		return
	}
	s.sr.warm = append(s.sr.warm, lat)
	s.sr.warmService = append(s.sr.warmService, ms(now.Sub(j.sent)))
	if !st.Cached {
		s.sr.warmMisses++
	}
	if !bytes.Equal(compact(st.Result), s.m.set[j.a.key].want) {
		s.sr.mismatch(1)
	}
}

// send submits one due arrival without waiting for the simulation: a cache
// hit finishes in the answer, anything else is left to the poller.
func (s *stepState) send(ctx context.Context, a arrival, due time.Time) {
	sent := time.Now()
	j := pendingJob{a: a, due: due, sent: sent}
	var body []byte
	if a.fresh {
		j.req = freshRequest(warmLoops, s.m.e.seed^0xf7e5, a.key)
		body = encodeRequest(j.req)
	} else {
		j.req, body = s.m.set[a.key].req, s.m.set[a.key].body
	}
	st, err := s.m.c.submit(ctx, s.m.f.gwURL, body, false)
	now := time.Now()
	s.mu.Lock()
	s.sr.late = append(s.sr.late, ms(sent.Sub(due)))
	s.sr.sentS = append(s.sr.sentS, sent.Sub(s.start).Seconds())
	s.mu.Unlock()
	if err != nil || st.State == serve.StateDone || st.State == serve.StateFailed {
		s.finish(j, st, err, now)
		return
	}
	j.id = st.ID
	s.mu.Lock()
	s.pending = append(s.pending, j)
	s.mu.Unlock()
}

// poll checks every pending job once over the generator's client (so polls
// share its connections) and returns how many are still unfinished.
func (s *stepState) poll(ctx context.Context) int {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	var keep []pendingJob
	for _, j := range batch {
		st, err := s.m.c.status(ctx, s.m.f.gwURL, j.id)
		if err == nil && st.State != serve.StateDone && st.State != serve.StateFailed {
			keep = append(keep, j)
			continue
		}
		// A polled job is timed to when it finished, not to when the
		// poller next looked.
		now := time.Now()
		if err == nil && st.FinishedAt != nil && st.FinishedAt.Before(now) && st.FinishedAt.After(j.due) {
			now = *st.FinishedAt
		}
		s.finish(j, st, err, now)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(keep, s.pending...)
	return len(s.pending)
}

// pollInterval paces the poller's sweeps over unfinished requests.
const pollInterval = 10 * time.Millisecond

// runStep drives one step: e.procs senders take arrivals in order while a
// poller follows up requests that did not finish on submission. In an
// open-loop step each arrival is sent at its due time; a saturating step
// ignores due times, sends back to back and stops sending after d. It
// returns once every sent request has finished.
func (m *mixedRun) runStep(ctx context.Context, step int, arrivals []arrival, rate float64, d time.Duration, saturate bool) (stepResult, error) {
	s := &stepState{m: m, sr: stepResult{rate: rate}}
	var err error
	if s.sr.depthStart, s.sr.workers, err = m.f.queueDepth(m.c); err != nil {
		return s.sr, err
	}
	var next, sent atomic.Int64
	start := time.Now()
	s.start = start
	var senders sync.WaitGroup
	for w := 0; w < m.e.procs; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) || (saturate && time.Since(start) >= d) {
					return
				}
				due := time.Now()
				if !saturate {
					due = start.Add(arrivals[i].due)
					time.Sleep(time.Until(due))
				}
				s.send(ctx, arrivals[i], due)
				sent.Add(1)
			}
		}()
	}
	sendersDone := make(chan struct{})
	go func() { senders.Wait(); close(sendersDone) }()
	var drainBy time.Time
	for {
		left := s.poll(ctx)
		select {
		case <-sendersDone:
			if drainBy.IsZero() {
				span := math.Max(time.Since(start).Seconds(), d.Seconds())
				n := float64(sent.Load())
				if saturate && d > 2*saturateWarmup {
					n, span = 0, span-saturateWarmup.Seconds()
					s.mu.Lock()
					for _, t := range s.sr.sentS {
						if t >= saturateWarmup.Seconds() {
							n++
						}
					}
					s.mu.Unlock()
				}
				s.sr.achieved = n / span
				if s.sr.depthEnd, _, err = m.f.queueDepth(m.c); err != nil {
					return s.sr, err
				}
				drainBy = time.Now().Add(drainBudget)
			}
			if left == 0 {
				return s.sr, nil
			}
			if time.Now().After(drainBy) {
				return s.sr, fmt.Errorf("fleet-mixed step %d: %d requests unfinished %s after the last arrival", step, left, drainBudget)
			}
		default:
		}
		time.Sleep(pollInterval)
	}
}

// drainBudget bounds how long a step waits for its requests after its last
// arrival.
const drainBudget = 60 * time.Second

// runMixed is the fleet-mixed workload: the reference step, a saturating
// step, then the rate ladder. The saturating step sends warm-set requests
// only: with fresh writes in it, the simulations, polls and evictions they
// bring make saturated throughput swing by a factor of two from run to run,
// while without them it measures the serving path's capacity and repeats.
func runMixed(ctx context.Context, e env) (*result, error) {
	set := warmSet(e.seed)
	c := newClient(e.procs)
	defer c.close()
	f, setup, err := bootFleet(e, mixedSetupReps, 0, func(f *fleet) error {
		return warmUp(ctx, e, f, c, set)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	m := &mixedRun{e: e, f: f, c: c, set: set}
	res := &result{}
	freshBase := 0
	step := func(k int, rate float64, share float64, saturate bool) (stepResult, error) {
		d := time.Duration(share * float64(e.seconds))
		arr := schedule(e.seed, k, rate, d, freshBase)
		for _, a := range arr {
			if a.fresh {
				freshBase++
			}
		}
		if saturate {
			arr = warmOnly(arr)
		}
		sr, err := m.runStep(ctx, k, arr, rate, d, saturate)
		if err != nil {
			return sr, err
		}
		res.add(sr.tally)
		say("  step %d: %s %6.0f req/s, achieved %8.2f, warm p50 %.3f p99 %.3f ms (n=%d, %d uncached), fresh p50 %.1f ms (n=%d), late p50 %.3f p99 %.3f ms, queue depth %d -> %d, %s",
			k, map[bool]string{false: "offered", true: "saturating"}[saturate], rate, sr.achieved,
			percentile(sr.warm, 50), percentile(sr.warm, 99), len(sr.warm), sr.warmMisses,
			percentile(sr.fresh, 50), len(sr.fresh), percentile(sr.late, 50), percentile(sr.late, 99),
			sr.depthStart, sr.depthEnd, sr.tally)
		return sr, nil
	}

	ref, err := step(0, mixedRates[0], refShare, false)
	if err != nil {
		return nil, err
	}
	rss := settledRSSMB()
	capacity, err := step(1, saturateRate, saturateShare, true)
	if err != nil {
		return nil, err
	}
	steps := []stepResult{ref}
	for k := 1; k < len(mixedRates) && steps[len(steps)-1].passed(); k++ {
		sr, err := step(k+1, mixedRates[k], ladderShare, false)
		if err != nil {
			return nil, err
		}
		steps = append(steps, sr)
	}
	peak := peakRSSMB()

	// Oracle: every fresh result and every warm-up result against an
	// in-process harness.Run of the same request (warm answers were
	// already compared with the warm-up's bytes as they arrived).
	all := append([]completed(nil), m.done...)
	for _, w := range m.set {
		all = append(all, completed{req: w.req, result: w.want})
	}
	wrong, err := verify(ctx, e, all)
	if err != nil {
		return nil, err
	}
	res.mismatch(wrong)
	if len(ref.warm) == 0 || len(ref.fresh) == 0 {
		return nil, fmt.Errorf("fleet-mixed: reference step has %d warm and %d fresh samples", len(ref.warm), len(ref.fresh))
	}
	maxRPS, ok := maxRate(steps)
	note := fmt.Sprintf("%d steps of ladder %v req/s; limit warm_p99_ms <= %g", len(steps), mixedRates, warmLimitMS)
	if !ok {
		note = "the reference step already failed; " + note
	}
	say("fleet-mixed: open loop, Poisson arrivals, %d connections; warm set %d (gateway tier 256, node tiers 2x256), Zipf s=%g; fresh share %.1f%%; reference rate %.0f req/s",
		e.procs, warmSetSize, zipfS, freshPerMille/10.0, mixedRates[0])
	sayMetric("setup_s", setup, "s", mixedSetupReps, "median fleet boot + warm-up")
	sayMetric("warm_p50_ms", centralMean(ref.warm), "ms", len(ref.warm), "from due time; mean of the 45th-55th percentile band")
	sayMetric("warm_service_p50_ms", centralMean(ref.warmService), "ms", len(ref.warmService), "from send time; mean of the 45th-55th percentile band")
	sayMetric("warm_p99_ms", percentile(ref.warm, 99), "ms", len(ref.warm), tailNote(len(ref.warm), 99, ref.warm))
	sayMetric("fresh_p50_ms", centralMean(ref.fresh), "ms", len(ref.fresh), "from due time; mean of the 45th-55th percentile band")
	sayMetric("mixed_max_rps", maxRPS, "req/s", len(steps), note)
	sayMetric("hit_capacity_rps", capacity.achieved, "req/s", len(capacity.warm), "warm-set requests per second sent back to back, no fresh writes")
	sayMetric("rss_mb", rss, "MB", 1, "resident set after the reference step, once garbage is returned")
	sayMetric("peak_rss_mb", peak, "MB", 1, "high-water mark")
	sayMetric("fail_ratio", ref.failRatio(), "ratio", int(ref.attempted), "at the reference rate")
	sayMetric("fail_ratio_all", res.failRatio(), "ratio", int(res.attempted), fmt.Sprintf("all steps; %d oracle checks", len(all)))
	res.set("setup_s", setup, "s")
	res.set("p50_ms", centralMean(ref.warmService), "ms")
	res.set("throughput", capacity.achieved, "1/s")
	res.set("rss_mb", rss, "MB")
	return res, nil
}
