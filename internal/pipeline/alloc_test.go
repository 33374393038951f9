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

// warmLoop returns a pipeline that has run the load/add/store loop for
// cycles cycles, long enough for every pool and slab to reach steady state.
func warmLoop(t *testing.T, cycles int) *Pipeline {
	t.Helper()
	prog, im := loadAddStoreLoop(10_000_000)
	p := New(testConfig(), prog, im)
	for i := 0; i < cycles; i++ {
		p.step()
		if p.halted {
			t.Fatalf("loop halted after %d cycles", i)
		}
	}
	return p
}

func TestStepAllocs(t *testing.T) {
	p := stalledPipeline()
	if a := testing.AllocsPerRun(1000, p.step); a != 0 {
		t.Errorf("stalled step: %v allocs/op, want 0", a)
	}
	p = warmLoop(t, 50_000)
	if a := testing.AllocsPerRun(1000, p.step); a != 0 {
		t.Errorf("load/add/store loop step: %v allocs/op, want 0", a)
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
