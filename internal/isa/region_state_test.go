package isa

import (
	"testing"

	"srvsim/internal/mem"
)

// TestInterpRegionStateTransitions steps the functional interpreter through
// a conflict-bearing region and asserts the architectural SRV state at each
// phase: outside -> speculative with all lanes -> sticky needs-replay bits
// accumulating -> replay pass with only the flagged lanes -> outside again.
func TestInterpRegionStateTransitions(t *testing.T) {
	im := mem.NewImage()
	aBase := im.Alloc(64*4, 64)
	xBase := im.Alloc(64*4, 64)
	for i := 0; i < 16; i++ {
		im.WriteInt(aBase+uint64(i*4), 4, int64(i))
		xi := int64(i - 1)
		if i%4 == 0 {
			xi = int64(i + 3)
		}
		im.WriteInt(xBase+uint64(i*4), 4, xi)
	}
	// Listing-1: a[x[i]] = a[i] + 2 with the {3,0,1,2,...} pattern.
	prog := NewBuilder().
		MovI(0, int64(aBase)).
		MovI(1, int64(xBase)).
		MovI(2, int64(aBase)).
		SRVStart(DirUp).
		VLoad(0, 0, 0, 4, NoPred).
		VAddI(0, 0, 2, NoPred).
		VLoad(1, 1, 0, 4, NoPred).
		VScatter(2, 1, 0, 0, 4, NoPred).
		SRVEnd().
		Halt().
		MustBuild()

	ip := NewInterp(prog, im)
	if ip.InRegion() {
		t.Fatal("must start outside any region")
	}
	step := func() {
		t.Helper()
		if err := ip.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // movi*3 + srv_start
		step()
	}
	if !ip.InRegion() || ip.ReplayMask() != AllTrue() {
		t.Fatalf("after srv_start: inRegion=%v replay=%v, want all-true", ip.InRegion(), ip.ReplayMask())
	}
	if ip.NeedsReplay().Any() {
		t.Fatal("needs-replay must start clear")
	}
	for i := 0; i < 4; i++ { // body
		step()
	}
	want := Pred{}
	want[3], want[7], want[11], want[15] = true, true, true, true
	if ip.NeedsReplay() != want {
		t.Fatalf("needs-replay = %v, want lanes {3,7,11,15}", ip.NeedsReplay())
	}
	step() // srv_end: replay pass begins
	if !ip.InRegion() {
		t.Fatal("srv_end with flagged lanes must stay in the region")
	}
	if ip.ReplayMask() != want {
		t.Fatalf("replay mask = %v, want the flagged lanes only", ip.ReplayMask())
	}
	if ip.NeedsReplay().Any() {
		t.Fatal("needs-replay must be consumed by the replay pass")
	}
	for i := 0; i < 5; i++ { // body again + srv_end
		step()
	}
	if ip.InRegion() {
		t.Fatal("the replay pass is clean: the region must have committed")
	}
	// Final memory equals sequential semantics: a[x[i]] = a[i]+2 in order.
	wantMem := make([]int64, 32)
	for i := 0; i < 32; i++ {
		wantMem[i] = int64(i)
	}
	for i := 0; i < 16; i++ {
		xi := i - 1
		if i%4 == 0 {
			xi = i + 3
		}
		wantMem[xi] = wantMem[i] + 2
	}
	for i := 0; i < 16; i++ {
		if got := im.ReadInt(aBase+uint64(i*4), 4); got != wantMem[i] {
			t.Errorf("a[%d] = %d, want %d", i, got, wantMem[i])
		}
	}
}

// regionLoop returns an n-iteration SRV-region loop over one fixed group of
// 16 elements: b[i] = a[x[i]] += 1, then a reload of b. The indices repeat
// every fourth lane, so every region replays, and the reload forwards from
// the buffered store. Every iteration touches the same addresses.
func regionLoop(n int64) (*Program, *mem.Image) {
	im := mem.NewImage()
	aBase := im.Alloc(16*4, 64)
	xBase := im.Alloc(16*4, 64)
	bBase := im.Alloc(16*4, 64)
	for i := 0; i < 16; i++ {
		im.WriteInt(xBase+uint64(i*4), 4, int64(i%4))
	}
	prog := NewBuilder().
		MovI(0, 0).
		MovI(2, n).
		MovI(3, int64(aBase)).
		MovI(4, int64(xBase)).
		MovI(5, int64(bBase)).
		Label("loop").
		SRVStart(DirUp).
		VLoad(1, 4, 0, 4, NoPred).
		VGather(2, 3, 1, 0, 4, NoPred).
		VAddI(2, 2, 1, NoPred).
		VScatter(3, 1, 2, 0, 4, NoPred).
		VStore(5, 0, 4, 2, NoPred).
		VLoad(3, 5, 0, 4, NoPred).
		SRVEnd().
		AddI(0, 0, 1).
		BLT(0, 2, "loop").
		Halt().
		MustBuild()
	return prog, im
}

// stepToRegionEnd steps until one more region has committed.
func stepToRegionEnd(tb testing.TB, ip *Interp) {
	tb.Helper()
	for n := ip.Counts.Regions; ip.Counts.Regions == n; {
		if err := ip.Step(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestInterpRegionAllocs asserts the interpreter's region state is reused:
// once the first region has run, each further loop iteration — srv_start,
// gathers, forwarding loads, buffered scatters and stores, a replay and the
// commit at srv_end — allocates nothing.
func TestInterpRegionAllocs(t *testing.T) {
	ip := NewInterp(regionLoop(1_000_000))
	stepToRegionEnd(t, ip)
	replays := ip.Counts.Replays
	if allocs := testing.AllocsPerRun(100, func() { stepToRegionEnd(t, ip) }); allocs != 0 {
		t.Errorf("%v allocs per region, want 0", allocs)
	}
	if ip.Counts.Replays == replays {
		t.Error("the measured regions never replayed")
	}
}

// BenchmarkInterpRegion measures one iteration of regionLoop per op: a
// region with a gather, a scatter, a store-to-load forward and one replay.
func BenchmarkInterpRegion(b *testing.B) {
	ip := NewInterp(regionLoop(1 << 62))
	stepToRegionEnd(b, ip)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepToRegionEnd(b, ip)
	}
}
