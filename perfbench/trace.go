package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"srvsim/internal/compiler"
	"srvsim/internal/gateway"
	"srvsim/internal/harness"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// The traced run times the public calls into each layer from this file
// (the program itself is not instrumented further) and reads each layer's
// public counters after the call. Serving-layer stage times come from the
// spans serve and gateway already record.

// layerAcc accumulates the simulator-layer spans and counts of the serial
// replay of every suite loop.
type layerAcc struct {
	instantiate, eval, compile, pnew, warm, run, verify time.Duration
	compileAllocs, runAllocs                            uint64
	cycles, committed                                   int64
	cam, horiz                                          int64
	maxOcc                                              int
	l1Hits, l1Misses                                    int64
	mispredicts, replays, replayLanes, fallbacks        int64
}

// loopCycles is one loop's scalar and SRV cycle counts.
type loopCycles struct{ scalar, srv int64 }

// timed runs fn and returns its duration.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// simConfig is the harness's pipeline configuration: Table I with its
// cycle budget.
func simConfig() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = 500_000_000
	return c
}

// replayLoop replays runLoop's sequence for one loop through the public
// functions, serially, and returns the loop's cycles and its direct-call
// time: Instantiate -> compiler.Eval -> Compile -> pipeline.New -> warm via
// Hier.Latency -> RunContext -> Image.FirstDiff, for each variant.
func replayLoop(ctx context.Context, acc *layerAcc, ls workloads.LoopSpec, seed int64) (loopCycles, time.Duration, error) {
	var out loopCycles
	var direct time.Duration
	add := func(sum *time.Duration, d time.Duration) { *sum += d; direct += d }

	var refLoop *compiler.Loop
	var refIm *mem.Image
	add(&acc.instantiate, timed(func() { refLoop, refIm = ls.Instantiate(seed) }))
	add(&acc.eval, timed(func() { compiler.Eval(refLoop, refIm) }))

	for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
		var l *compiler.Loop
		var im *mem.Image
		var c *compiler.Compiled
		var p *pipeline.Pipeline
		var cerr, rerr error
		add(&acc.instantiate, timed(func() { l, im = ls.Instantiate(seed) }))
		m0 := mallocs()
		add(&acc.compile, timed(func() { c, cerr = compiler.Compile(l, im, mode) }))
		acc.compileAllocs += mallocs() - m0
		if cerr != nil {
			return out, direct, fmt.Errorf("compile %s: %w", ls.Shape.Name, cerr)
		}
		add(&acc.pnew, timed(func() { p = pipeline.New(simConfig(), c.Prog, im) }))
		add(&acc.warm, timed(func() {
			for _, a := range l.Arrays() {
				end := a.Base + uint64(a.Elem*a.Len)
				for line := a.Base &^ 63; line < end; line += 64 {
					p.Hier.Latency(line)
				}
			}
		}))
		h0, mi0 := p.Hier.L1.Stats.Hits, p.Hier.L1.Stats.Misses
		m0 = mallocs()
		add(&acc.run, timed(func() { rerr = p.RunContext(ctx) }))
		acc.runAllocs += mallocs() - m0
		if rerr != nil {
			return out, direct, fmt.Errorf("run %s: %w", ls.Shape.Name, rerr)
		}
		var diff bool
		add(&acc.verify, timed(func() { _, diff = im.FirstDiff(refIm) }))
		if diff {
			return out, direct, fmt.Errorf("%s diverges from the reference evaluator", ls.Shape.Name)
		}
		acc.l1Hits += p.Hier.L1.Stats.Hits - h0
		acc.l1Misses += p.Hier.L1.Stats.Misses - mi0
		acc.cycles += p.Stats.Cycles
		acc.committed += p.Stats.Committed
		acc.cam += p.LSU.Stats.CAMLookups
		acc.horiz += p.LSU.Stats.HorizDisamb
		acc.mispredicts += p.BP.Stats.Mispredicts
		if p.LSU.Stats.MaxOccupancy > acc.maxOcc {
			acc.maxOcc = p.LSU.Stats.MaxOccupancy
		}
		if mode == compiler.ModeScalar {
			out.scalar = p.Stats.Cycles
		} else {
			out.srv = p.Stats.Cycles
			acc.replays += p.Ctrl.Stats.Replays
			acc.replayLanes += p.Ctrl.Stats.ReplayLanes
			acc.fallbacks += p.Ctrl.Stats.Fallbacks
		}
	}
	return out, direct, nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its descendants (children, their children, ...),
// clipped to the span and with overlaps counted once. Descendants rather
// than only children, because a node's stage spans (queue-wait, execute)
// hang off its admission span yet run while the gateway's route span and
// the node's admission handler still wait on them. Spans may come from
// several recorders; parents and children are matched by span ID.
func selfTimes(spans []obsv.Span) map[obsv.SpanID]time.Duration {
	kids := map[obsv.SpanID][]obsv.Span{}
	for _, sp := range spans {
		if !sp.Parent.IsZero() {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	type iv struct{ s, e time.Time }
	out := make(map[obsv.SpanID]time.Duration, len(spans))
	for _, sp := range spans {
		var desc []iv
		stack := []obsv.SpanID{sp.ID}
		seen := map[obsv.SpanID]bool{sp.ID: true}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range kids[id] {
				if !seen[k.ID] {
					seen[k.ID] = true
					desc = append(desc, iv{k.Start, k.End})
					stack = append(stack, k.ID)
				}
			}
		}
		sort.Slice(desc, func(i, j int) bool { return desc[i].s.Before(desc[j].s) })
		var covered time.Duration
		cur := sp.Start // everything before cur is already counted
		for _, c := range desc {
			s, e := c.s, c.e
			if s.Before(cur) {
				s = cur
			}
			if e.After(sp.End) {
				e = sp.End
			}
			if e.After(s) {
				covered += e.Sub(s)
				cur = e
			}
		}
		out[sp.ID] = sp.End.Sub(sp.Start) - covered
	}
	return out
}

// stageSelf returns the self times, in float units of unit, of every span
// named name.
func stageSelf(spans []obsv.Span, self map[obsv.SpanID]time.Duration, name string, unit time.Duration) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, float64(self[sp.ID])/float64(unit))
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass runs the public phases of harness.RunAll one by one, with the
// harness's leaf-simulation spans on, and returns the pass text (RunAll's
// exact output), the per-phase seconds and the Measure results.
func tracedPass(seed int64) ([]byte, map[string]float64, harness.Results, int64, error) {
	leaves := obsv.NewSpanRecorder(1 << 20)
	harness.SetSpanRecorder(leaves)
	defer harness.SetSpanRecorder(nil)
	var buf bytes.Buffer
	phase := map[string]float64{}
	fmt.Fprint(&buf, harness.Table1())
	var lim harness.Report
	phase["limit"] = timed(func() { lim = harness.LimitStudy(seed) }).Seconds()
	fmt.Fprint(&buf, lim)
	var rs harness.Results
	var err error
	phase["measure"] = timed(func() { rs, err = harness.Measure(seed) }).Seconds()
	if err != nil {
		return nil, nil, rs, 0, err
	}
	for _, rep := range []harness.Report{harness.Fig6(rs), harness.Fig7(rs), harness.Fig8(rs), harness.Fig9(rs),
		harness.Fig10(rs), harness.Fig11(rs), harness.Fig12(rs), harness.CostModelReport(rs), harness.RegionProfile(rs)} {
		fmt.Fprint(&buf, rep)
	}
	var f13, sw harness.Report
	phase["fig13"] = timed(func() { f13, err = harness.Fig13(seed) }).Seconds()
	if err != nil {
		return nil, nil, rs, 0, err
	}
	fmt.Fprint(&buf, f13)
	phase["sweep"] = timed(func() { sw, err = harness.Sweep(seed) }).Seconds()
	if err != nil {
		return nil, nil, rs, 0, err
	}
	fmt.Fprint(&buf, sw)
	if fails := rs.Failures(); len(fails) > 0 {
		return nil, nil, rs, 0, fmt.Errorf("%d contained simulation failures", len(fails))
	}
	return buf.Bytes(), phase, rs, leaves.Dropped(), nil
}

// runTraced is the traced per-layer run of a workload.
func runTraced(ctx context.Context, e env, workload string) (*result, error) {
	res := &result{}
	check := func(ok bool, what string) {
		res.attempted++
		if ok {
			res.succeeded++
			return
		}
		res.failed++
		res.wrong++
		say("traced: oracle failed: %s", what)
	}

	// Simulator layers: a serial replay of every suite loop at the seeds
	// harness.Measure uses (loop i of a benchmark at seed+i). Next to each
	// replay, harness.Run times the same loop with both variants serial, so
	// its overhead over the direct calls is measured in the same process
	// state; the order alternates so neither side always runs second.
	var acc layerAcc
	replayed := map[string]loopCycles{}
	var overhead time.Duration
	var err error
	var keyUS, encUS []float64
	harness.SetParallelism(1)
	for n, sl := range suiteLoops() {
		b, _ := workloads.ByName(sl.bench)
		ls := b.Loops[sl.loop]
		seed := e.seed + int64(sl.loop)
		req := loopRequest(sl.bench, sl.loop, seed)
		var lc loopCycles
		var direct, viaRun time.Duration
		var r harness.Result
		var rerr error
		replay := func() { lc, direct, err = replayLoop(ctx, &acc, ls, seed) }
		run := func() { viaRun = timed(func() { r, rerr = harness.Run(ctx, req) }) }
		if n%2 == 0 {
			replay()
			run()
		} else {
			run()
			replay()
		}
		if err != nil || rerr != nil {
			harness.SetParallelism(e.procs)
			return nil, fmt.Errorf("replaying %s loop %d: %v %v", sl.bench, sl.loop, err, rerr)
		}
		check(lc.scalar == r.Loop.ScalarCycles && lc.srv == r.Loop.SRVCycles,
			fmt.Sprintf("%s/%s replay cycles %d/%d, harness.Run %d/%d", sl.bench, ls.Shape.Name,
				lc.scalar, lc.srv, r.Loop.ScalarCycles, r.Loop.SRVCycles))
		replayed[sl.bench+"/"+ls.Shape.Name] = lc
		overhead += viaRun - direct
		// harness.Run has validated and encoded this request and result
		// already, so neither call below can fail.
		for k := 0; k < 20; k++ {
			keyUS = append(keyUS, us(timed(func() { _, _ = req.CacheKey() })))
			encUS = append(encUS, us(timed(func() { _, _ = json.Marshal(r) })))
		}
	}
	harness.SetParallelism(e.procs)

	// Harness: the untraced pass first, then the phases one by one.
	var untraced []byte
	untracedD := timed(func() {
		var buf bytes.Buffer
		err = harness.RunAll(e.seed, &buf)
		untraced = buf.Bytes()
	})
	if err != nil {
		return nil, err
	}
	var text []byte
	var phase map[string]float64
	var rs harness.Results
	var leafDropped int64
	tracedD := timed(func() { text, phase, rs, leafDropped, err = tracedPass(e.seed) })
	if err != nil {
		return nil, err
	}
	check(bytes.Equal(text, untraced), "traced pass text differs from harness.RunAll's")
	if e.seed == referenceSeed {
		ref, err := os.ReadFile(filepath.Join(e.root, "results_reference.txt"))
		if err != nil {
			return nil, err
		}
		check(bytes.Equal(text, ref), "traced pass differs from results_reference.txt")
	}
	for _, br := range rs.Bench {
		for _, lr := range br.Loops {
			got := replayed[br.Bench.Name+"/"+lr.Loop]
			check(got.scalar == lr.ScalarCycles && got.srv == lr.SRVCycles,
				fmt.Sprintf("%s/%s replay cycles %d/%d, timed run %d/%d", br.Bench.Name, lr.Loop,
					got.scalar, got.srv, lr.ScalarCycles, lr.SRVCycles))
		}
	}

	// Serving layers: the workload's traffic against a fleet whose span
	// buffers are sized so that none is dropped.
	fl, err := tracedFleet(ctx, e, workload)
	if err != nil {
		return nil, err
	}
	res.add(fl.tally)
	dropped := leafDropped + fl.dropped
	if dropped > 0 {
		return nil, fmt.Errorf("traced run dropped %d spans; the per-layer numbers would be incomplete", dropped)
	}

	nsPerCycle := ratio(float64(acc.run.Nanoseconds()), float64(acc.cycles))
	set := func(name string, v float64, unit string) {
		res.set(name, v, unit)
		say("  %-28s %16.4f %s", name, v, unit)
	}
	say("traced %s: simulator layers over a serial replay of %d suite loops at seed %d", workload, len(replayed), e.seed)
	set("workloads.instantiate_ms", ms(acc.instantiate), "ms")
	set("compiler.compile_ms", ms(acc.compile), "ms")
	set("compiler.eval_ms", ms(acc.eval), "ms")
	set("compiler.allocs", float64(acc.compileAllocs), "count")
	set("pipeline.new_ms", ms(acc.pnew), "ms")
	set("pipeline.run_ms", ms(acc.run), "ms")
	set("pipeline.ns_per_cycle", nsPerCycle, "ns")
	set("pipeline.allocs_per_kcycle", 1000*ratio(float64(acc.runAllocs), float64(acc.cycles)), "count")
	set("pipeline.cycles", float64(acc.cycles), "count")
	set("pipeline.committed", float64(acc.committed), "count")
	set("lsu.cam_lookups", float64(acc.cam), "count")
	set("lsu.horiz_disamb", float64(acc.horiz), "count")
	set("lsu.max_occupancy", float64(acc.maxOcc), "count")
	set("mem.warm_ms", ms(acc.warm), "ms")
	set("mem.verify_ms", ms(acc.verify), "ms")
	set("mem.l1_miss_ratio", ratio(float64(acc.l1Misses), float64(acc.l1Hits+acc.l1Misses)), "ratio")
	set("predictor.mispredicts", float64(acc.mispredicts), "count")
	set("core.replay_rounds", float64(acc.replays), "count")
	set("core.replay_lanes", float64(acc.replayLanes), "count")
	set("core.fallbacks", float64(acc.fallbacks), "count")
	say("traced %s: harness phases of one pass (untraced RunAll %.3f s)", workload, untracedD.Seconds())
	set("harness.measure_s", phase["measure"], "s")
	set("harness.limit_s", phase["limit"], "s")
	set("harness.fig13_s", phase["fig13"], "s")
	set("harness.sweep_s", phase["sweep"], "s")
	set("harness.overhead_ms", ms(overhead), "ms")
	set("harness.cachekey_us", median(keyUS), "us")
	set("harness.result_encode_us", median(encUS), "us")
	set("harness.trace_overhead_ratio", ratio(tracedD.Seconds(), untracedD.Seconds()), "ratio")
	say("traced %s: serving layers (%s)", workload, fl.traffic)
	for _, m := range fl.metrics {
		set(m.name, m.value, m.unit)
	}
	set("obsv.spans_dropped", float64(dropped), "count")
	return res, nil
}

// namedMetric is one per-layer figure of the serving layers.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// fleetTrace is the serving-layer part of a traced run.
type fleetTrace struct {
	tally
	dropped int64
	traffic string
	metrics []namedMetric
}

// tracedSpanCap sizes every fleet span buffer in a traced run: far above the
// few spans per request a run of at most a minute produces, so none drops.
const tracedSpanCap = 1 << 22

// hitProbes is how many cached submissions time each hit round trip.
const hitProbes = 200

// tracedFleet runs the workload's fleet traffic for half the budget (repro,
// which uses no fleet, sends one cold request per suite loop) and derives
// the serve and gateway stage times from their recorded spans.
func tracedFleet(ctx context.Context, e env, workload string) (*fleetTrace, error) {
	c := newClient(e.procs)
	defer c.close()
	f, err := startFleet(e.scratch, tracedSpanCap)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	out := &fleetTrace{}
	d := e.seconds / 2
	var done []completed
	// probe is the most recently finished request: still held by both cache
	// tiers, so the hit round trips below time hits.
	var probe harness.Request
	switch workload {
	case "fleet-mixed":
		set := warmSet(e.seed)
		if err := warmUp(ctx, e, f, c, set); err != nil {
			return nil, err
		}
		m := &mixedRun{e: e, f: f, c: c, set: set}
		rate := mixedRates[0]
		sr, err := m.runStep(ctx, 0, schedule(e.seed, 0, rate, d, 0), rate, d, false)
		if err != nil {
			return nil, err
		}
		out.tally = sr.tally
		done = m.done
		if len(done) == 0 {
			return nil, fmt.Errorf("traced fleet-mixed: no fresh request finished")
		}
		probe = done[len(done)-1].req
		for _, w := range set {
			done = append(done, completed{req: w.req, result: w.want})
		}
		out.traffic = fmt.Sprintf("fleet-mixed reference step, %.0f req/s for %s", rate, d)
	default:
		limit := 0
		out.traffic = fmt.Sprintf("fleet-cold closed loop for %s", d)
		if workload == "repro" {
			limit = len(suiteLoops())
			out.traffic = fmt.Sprintf("one cold request per suite loop (%d)", limit)
			d = time.Hour
		}
		outs, _ := runColdLoad(ctx, e, f, c, d, limit)
		for _, o := range outs {
			out.record(o.err)
			if o.err == nil {
				done = append(done, completed{req: o.req, result: o.st.Result})
				probe = o.req
			}
		}
	}

	// Stage times and counters cover the workload traffic only: read them
	// before the hit probes below add their own.
	var spans []obsv.Span
	for _, r := range f.spanRecorders() {
		spans = append(spans, r.Snapshot()...)
		out.dropped += r.Dropped()
	}
	self := selfTimes(spans)
	hits, misses := f.nodeCounter("serve.cache.hits"), f.nodeCounter("serve.cache.misses")
	gwHits, gwMisses := f.gwCounter("gateway.cache.hits"), f.gwCounter("gateway.cache.misses")
	var refused int64
	for _, name := range []string{"serve.jobs_rejected_queue_full", "serve.jobs_shed_deadline", "serve.jobs_shed_oversize",
		"serve.jobs_rejected_draining", "serve.jobs_shed_quota", "serve.jobs_rejected_tenant_full", "serve.jobs_shed_brownout"} {
		refused += f.nodeCounter(name)
	}
	handoffs, stolen := f.gwCounter("gateway.handoffs"), f.gwCounter("gateway.jobs_stolen")

	nodeRTT, gwRTT, err := hitRTTs(ctx, f, c, probe)
	if err != nil {
		return nil, err
	}
	wrong, err := verify(ctx, e, done)
	if err != nil {
		return nil, err
	}
	out.mismatch(wrong)
	out.metrics = []namedMetric{
		{"serve.admission_us", median(stageSelf(spans, self, "admission", time.Microsecond)), "us"},
		{"serve.cache_lookup_us", median(stageSelf(spans, self, "cache-lookup", time.Microsecond)), "us"},
		{"serve.queue_wait_ms", median(stageSelf(spans, self, "queue-wait", time.Millisecond)), "ms"},
		{"serve.execute_ms", median(stageSelf(spans, self, "execute", time.Millisecond)), "ms"},
		{"serve.journal_append_us", median(stageSelf(spans, self, "journal-append", time.Microsecond)), "us"},
		{"serve.cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio"},
		{"serve.refused", float64(refused), "count"},
		{"serve.hit_rtt_us", nodeRTT, "us"},
		{"gateway.route_us", median(stageSelf(spans, self, "gateway.route", time.Microsecond)), "us"},
		{"gateway.hit_rtt_us", gwRTT, "us"},
		{"gateway.cache.hit_ratio", ratio(float64(gwHits), float64(gwHits+gwMisses)), "ratio"},
		{"gateway.handoffs", float64(handoffs), "count"},
		{"gateway.jobs_stolen", float64(stolen), "count"},
	}
	return out, nil
}

// hitRTTs times cached round trips of a request that has already run:
// submitted straight to its owning node (node-tier hit) and through the
// gateway (gateway-tier hit). Medians in microseconds.
func hitRTTs(ctx context.Context, f *fleet, c *client, req harness.Request) (node, gw float64, err error) {
	key, err := req.CacheKey()
	if err != nil {
		return 0, 0, err
	}
	// The gateway routes by the same ring over the node URLs.
	ring := gateway.NewRing(0)
	for _, u := range f.nodeURLs {
		ring.Add(u)
	}
	owner := ring.Owner(key)
	body := encodeRequest(req)
	var nodeUS, gwUS []float64
	for i := 0; i < hitProbes; i++ {
		t0 := time.Now()
		a, err := c.submit(ctx, owner, body, false)
		nodeUS = append(nodeUS, us(time.Since(t0)))
		if err != nil || !a.Cached {
			return 0, 0, fmt.Errorf("node hit probe on %s: cached=%v err=%v", owner, a.Cached, err)
		}
		t0 = time.Now()
		b, err := c.submit(ctx, f.gwURL, body, false)
		gwUS = append(gwUS, us(time.Since(t0)))
		if err != nil || !b.Cached {
			return 0, 0, fmt.Errorf("gateway hit probe: cached=%v err=%v", b.Cached, err)
		}
	}
	return median(nodeUS), median(gwUS), nil
}
