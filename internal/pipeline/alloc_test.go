package pipeline

import (
	"testing"

	"srvsim/internal/isa"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
)

// Allocation budgets of the per-cycle hot path: a steady-state step must
// not allocate, with or without work in flight.

var benchSink int64

// stalledPipeline builds a pipeline parked in pure bookkeeping: the front
// end is stalled and the only ROB entry is an issued instruction that never
// completes, so every step visits every stage and changes nothing.
func stalledPipeline() *Pipeline {
	prog := isa.NewBuilder().MovI(0, 0).Halt().MustBuild()
	p := New(testConfig(), prog, mem.NewImage())
	p.cycle = 1000
	p.fetchStalled = true
	e := p.allocEntry()
	e.seq = 1
	e.pc = 0
	e.inst = prog.At(0)
	e.state = sIssued
	e.granted = true
	e.doneAt = 1 << 60
	p.pushROB(e)
	p.active = append(p.active, e)
	return p
}

// loadAddStoreLoop is a scalar loop of n iterations, each loading a word,
// adding the induction variable and storing it back. Fetch follows the
// predicted-taken back edge at full width while the memory dependence
// throttles dispatch, so the fetch queue runs full.
func loadAddStoreLoop(n int64) (*isa.Program, *mem.Image) {
	im := mem.NewImage()
	a := im.Alloc(64, 64)
	prog := isa.NewBuilder().
		MovI(0, 0).
		MovI(2, n).
		MovI(3, int64(a)).
		Label("loop").
		Load(4, 3, 0, 4).
		Add(4, 4, 0).
		Store(3, 0, 4, 4).
		AddI(0, 0, 1).
		BLT(0, 2, "loop").
		Halt().
		MustBuild()
	return prog, im
}

// gatherScatterLoop is an SRV-region loop of n iterations over one fixed
// group of 16 elements: a contiguous index load, a gather through the
// indices, an add, and a scatter back through them. The indices repeat
// every fourth lane, so the scatter of lane k overwrites what lanes k+4,
// k+8 and k+12 gathered: every region replays. Every iteration touches the
// same addresses, so a warmed run allocates no new memory pages.
func gatherScatterLoop(n int64) (*isa.Program, *mem.Image) {
	im := mem.NewImage()
	a := im.Alloc(16*4, 64)
	x := im.Alloc(16*4, 64)
	for i := 0; i < 16; i++ {
		im.WriteInt(x+uint64(4*i), 4, int64(i%4))
	}
	prog := isa.NewBuilder().
		MovI(0, 0).
		MovI(2, n).
		MovI(3, int64(a)).
		MovI(4, int64(x)).
		Label("loop").
		SRVStart(isa.DirUp).
		VLoad(1, 4, 0, 4, isa.NoPred).
		VGather(2, 3, 1, 0, 4, isa.NoPred).
		VAddI(2, 2, 1, isa.NoPred).
		VScatter(3, 1, 2, 0, 4, isa.NoPred).
		SRVEnd().
		AddI(0, 0, 1).
		BLT(0, 2, "loop").
		Halt().
		MustBuild()
	return prog, im
}

// warmLoop returns a pipeline that has run the program for cycles cycles,
// long enough for every pool and slab to reach steady state.
func warmLoop(t *testing.T, prog *isa.Program, im *mem.Image, cycles int) *Pipeline {
	t.Helper()
	p := New(testConfig(), prog, im)
	for i := 0; i < cycles; i++ {
		p.step()
		if p.halted {
			t.Fatalf("loop halted after %d cycles", i)
		}
	}
	return p
}

// stepAllocs returns the heap allocations of 1000 consecutive steps.
// Measuring a batch rather than one step keeps an allocation made once
// every few hundred cycles (a region commit, say) from averaging to zero.
func stepAllocs(p *Pipeline) float64 {
	return testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			p.step()
		}
	})
}

func TestStepAllocs(t *testing.T) {
	p := stalledPipeline()
	if a := stepAllocs(p); a != 0 {
		t.Errorf("stalled: %v allocs per 1000 steps, want 0", a)
	}
	prog, im := loadAddStoreLoop(10_000_000)
	p = warmLoop(t, prog, im, 50_000)
	if a := stepAllocs(p); a != 0 {
		t.Errorf("load/add/store loop: %v allocs per 1000 steps, want 0", a)
	}
	prog, im = gatherScatterLoop(10_000_000)
	p = warmLoop(t, prog, im, 50_000)
	regions, replays := p.Ctrl.Stats.Regions, p.Ctrl.Stats.Replays
	if a := stepAllocs(p); a != 0 {
		t.Errorf("gather/scatter region loop: %v allocs per 1000 steps, want 0", a)
	}
	if p.Ctrl.Stats.Regions == regions || p.Ctrl.Stats.Replays == replays {
		t.Errorf("gather/scatter region loop: measured steps ran %d regions and %d replays, want both > 0",
			p.Ctrl.Stats.Regions-regions, p.Ctrl.Stats.Replays-replays)
	}
}

// BenchmarkStepCheckpointOff guards the default-path contract: with no sink
// installed and CheckpointEvery zero, the per-cycle step stays allocation-
// free — checkpointing support costs one predictable branch at the poll
// boundary and nothing else.
func BenchmarkStepCheckpointOff(b *testing.B) {
	p := stalledPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
	benchSink = p.cycle
}

// BenchmarkObserveCycle measures the per-cycle observability hook with both
// sampling and tracing enabled at their densest settings.
func BenchmarkObserveCycle(b *testing.B) {
	p := stalledPipeline()
	p.EnableSampling(1)
	tr := obsv.NewTracer()
	tr.SetCap(4096)
	p.AttachTracer(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.sampler.Len() >= 4096 {
			p.sampler.Reset()
		}
		p.cycle++
		p.observeCycle()
	}
	benchSink = p.cycle
}
