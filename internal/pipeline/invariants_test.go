package pipeline

import (
	"testing"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
)

// conflictProg builds a region with a guaranteed horizontal RAW chain: lane
// i reads a[i-1] and the later store a[i] = read+1 *depends on the gather*,
// so the gather always executes first and lanes 1..15 read stale values on
// the first pass — the worst-case replay cascade (one lane retired per
// round).
func conflictProg(aBase, xBase, dBase uint64) *isa.Program {
	return isa.NewBuilder().
		MovI(0, int64(aBase)).
		MovI(1, int64(xBase)).
		MovI(2, int64(dBase)).
		SRVStart(isa.DirUp).
		VLoad(3, 1, 0, 4, isa.NoPred).      // v3 = x[i] (conflict index i-1)
		VGather(4, 0, 3, 0, 4, isa.NoPred). // v4 = a[x[i]] — RAW across lanes
		VStore(2, 0, 4, 4, isa.NoPred).     // d[i] = v4
		VAddI(5, 4, 1, isa.NoPred).         // v5 = v4 + 1 (depends on gather)
		VStore(0, 0, 4, 5, isa.NoPred).     // a[i] = v5 (later PC than the gather)
		SRVEnd().
		Halt().
		MustBuild()
}

// TestParanoidReplayRegion runs a replay-heavy region with per-cycle
// invariant checking enabled: any structural corruption panics.
func TestParanoidReplayRegion(t *testing.T) {
	im := mem.NewImage()
	aBase := im.Alloc(16*4, 64)
	xBase := im.Alloc(16*4, 64)
	dBase := im.Alloc(16*4, 64)
	for i := 0; i < 16; i++ {
		v := i - 1
		if v < 0 {
			v = 0
		}
		im.WriteInt(xBase+uint64(i*4), 4, int64(v))
		im.WriteInt(aBase+uint64(i*4), 4, int64(1000+i))
	}
	p := New(testConfig(), conflictProg(aBase, xBase, dBase), im)
	p.EnableParanoid()
	run(t, p)
	if p.Ctrl.Stats.Replays == 0 {
		t.Fatal("workload must replay (cross-lane RAW by construction)")
	}
	// Sequential semantics chain through the lanes: read_0 = a[0] = 1000,
	// read_i = read_{i-1} + 1, so d[i] = 1000 + i and a[i] = 1001 + i.
	for i := 0; i < 16; i++ {
		if got := im.ReadInt(dBase+uint64(i*4), 4); got != int64(1000+i) {
			t.Errorf("d[%d] = %d, want %d", i, got, 1000+i)
		}
		if got := im.ReadInt(aBase+uint64(i*4), 4); got != int64(1001+i) {
			t.Errorf("a[%d] = %d, want %d", i, got, 1001+i)
		}
	}
}

// TestNoSelectiveReplayFallsBack: with the headline mechanism ablated, a
// violating region must demote to sequential fallback — and still produce
// the sequentially correct result.
func TestNoSelectiveReplayFallsBack(t *testing.T) {
	im := mem.NewImage()
	aBase := im.Alloc(16*4, 64)
	xBase := im.Alloc(16*4, 64)
	dBase := im.Alloc(16*4, 64)
	for i := 0; i < 16; i++ {
		v := i - 1
		if v < 0 {
			v = 0
		}
		im.WriteInt(xBase+uint64(i*4), 4, int64(v))
		im.WriteInt(aBase+uint64(i*4), 4, int64(1000+i))
	}
	cfg := testConfig()
	cfg.NoSelectiveReplay = true
	p := New(cfg, conflictProg(aBase, xBase, dBase), im)
	p.EnableParanoid()
	run(t, p)
	if p.Ctrl.Stats.Replays != 0 {
		t.Errorf("replays = %d, want 0 (mechanism ablated)", p.Ctrl.Stats.Replays)
	}
	if p.Ctrl.Stats.Fallbacks == 0 {
		t.Error("the violating region must fall back to sequential execution")
	}
	// Same sequential semantics as TestParanoidReplayRegion: read_0 = 1000,
	// read_i = read_{i-1} + 1.
	for i := 0; i < 16; i++ {
		if got := im.ReadInt(dBase+uint64(i*4), 4); got != int64(1000+i) {
			t.Errorf("d[%d] = %d, want %d", i, got, 1000+i)
		}
		if got := im.ReadInt(aBase+uint64(i*4), 4); got != int64(1001+i) {
			t.Errorf("a[%d] = %d, want %d", i, got, 1001+i)
		}
	}
}

// TestNoSelectiveReplayCleanRegionUnaffected: regions without violations
// must commit normally under the ablation.
func TestNoSelectiveReplayCleanRegionUnaffected(t *testing.T) {
	im := mem.NewImage()
	aBase := im.Alloc(16*4, 64)
	xBase := im.Alloc(16*4, 64)
	dBase := im.Alloc(16*4, 64)
	for i := 0; i < 16; i++ {
		im.WriteInt(xBase+uint64(i*4), 4, int64(i)) // identity: no conflicts
		im.WriteInt(aBase+uint64(i*4), 4, int64(100+i))
	}
	cfg := testConfig()
	cfg.NoSelectiveReplay = true
	p := New(cfg, conflictProg(aBase, xBase, dBase), im)
	run(t, p)
	if p.Ctrl.Stats.Fallbacks != 0 {
		t.Errorf("conflict-free region fell back %d times", p.Ctrl.Stats.Fallbacks)
	}
	for i := 0; i < 16; i++ {
		if got := im.ReadInt(dBase+uint64(i*4), 4); got != int64(100+i) {
			t.Errorf("d[%d] = %d, want %d", i, got, 100+i)
		}
	}
}

// TestPrefetchConfig verifies Config.Prefetch reaches the cache hierarchy
// and fires on a streaming loop.
func TestPrefetchConfig(t *testing.T) {
	im := mem.NewImage()
	aBase := im.Alloc(256*4, 64)
	dBase := im.Alloc(256*4, 64)
	prog := isa.NewBuilder().
		MovI(0, int64(aBase)).
		MovI(1, int64(dBase)).
		MovI(2, 0).
		MovI(3, 256*4).
		Label("loop").
		Load(4, 0, 0, 4).
		Store(1, 0, 4, 4).
		AddI(0, 0, 4).
		AddI(1, 1, 4).
		AddI(2, 2, 4).
		BLT(2, 3, "loop").
		Halt().
		MustBuild()
	cfg := testConfig()
	cfg.Prefetch = true
	p := New(cfg, prog, im)
	if !p.Hier.NextLinePrefetch {
		t.Fatal("Config.Prefetch must reach the hierarchy")
	}
	run(t, p)
	if p.Hier.Prefetches == 0 {
		t.Error("streaming loop must trigger next-line prefetches")
	}
	cold := New(testConfig(), prog, mem.NewImage())
	if cold.Hier.NextLinePrefetch {
		t.Error("prefetcher must default off (Table I has none)")
	}
}

// TestParanoidFaultAndInterrupt covers the squash/suspend/resume paths under
// per-cycle invariant checking.
func TestParanoidFaultAndInterrupt(t *testing.T) {
	p, im, aBase, dBase := setupFault(t)
	p.EnableParanoid()
	p.FaultAddrs = map[uint64]bool{aBase + 10*4: true}
	p.ScheduleInterrupt(40, 30)
	run(t, p)
	checkFaultResult(t, im, dBase)
	if p.Stats.Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1", p.Stats.Exceptions)
	}
}

// TestFetchQueueBound: on a loop whose memory dependence throttles dispatch
// while fetch follows the predicted back edge at full width, the fetch queue
// fills to its bound and never passes it.
func TestFetchQueueBound(t *testing.T) {
	prog, im := loadAddStoreLoop(10_000_000)
	p := New(testConfig(), prog, im)
	p.EnableParanoid()
	deepest := 0
	for i := 0; i < 50_000 && !p.halted; i++ {
		p.step()
		deepest = max(deepest, p.fetchLen())
	}
	if deepest != fetchQueueSize {
		t.Errorf("deepest fetch queue %d slots, want it to fill to the %d-slot bound", deepest, fetchQueueSize)
	}
}
