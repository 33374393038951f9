package flexvec

import (
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/mem"
)

// listing1 loop with a chosen index pattern.
func listing1Loop(n int) (*compiler.Loop, *compiler.Array, *compiler.Array) {
	a := &compiler.Array{Name: "a", Elem: 4, Len: n + 32}
	x := &compiler.Array{Name: "x", Elem: 4, Len: n}
	l := &compiler.Loop{
		Name: "listing1",
		Trip: n,
		Body: []compiler.Stmt{{
			Dst: a, Idx: compiler.Via(x, 1, 0),
			Val: compiler.Bin{Op: compiler.OpAdd,
				L: compiler.Ref{Arr: a, Idx: compiler.Affine(1, 0)},
				R: compiler.Const{V: 2}},
		}},
	}
	return l, a, x
}

func seedPaperPattern(l *compiler.Loop, x *compiler.Array, im *mem.Image, n int) {
	l.Bind(im)
	for i := 0; i < n; i += 4 {
		im.WriteInt(x.Addr(int64(i)), 4, int64(i+3))
		for j := 1; j < 4 && i+j < n; j++ {
			im.WriteInt(x.Addr(int64(i+j)), 4, int64(i+j-1))
		}
	}
	for i := 0; i < n; i++ {
		im.WriteInt(l.Arrays()[0].Addr(int64(i)), 4, int64(i))
	}
}

func TestPaperPatternSubgroups(t *testing.T) {
	// The paper's example: x = {3,0,1,2,7,4,5,6,...} makes FlexVec execute
	// five partial groups per 16 iterations (lanes 0-2, 3-6, 7-10, 11-14,
	// 15), while SRV needs just two vector iterations.
	const n = 16
	l, _, x := listing1Loop(n)
	im := mem.NewImage()
	seedPaperPattern(l, x, im, n)
	res, err := Compare(l, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 1 {
		t.Fatalf("groups = %d, want 1", res.Groups)
	}
	if res.Subgroups != 5 {
		t.Errorf("subgroups = %d, want 5 (paper's partitioning)", res.Subgroups)
	}
	if res.SRVReplays != 1 {
		t.Errorf("SRV replays = %d, want 1", res.SRVReplays)
	}
	if res.CheckInsts == 0 {
		t.Error("FlexVec must charge conflict-check instructions")
	}
}

func TestSRVBeatsFlexVecOnConflictFreeData(t *testing.T) {
	// Identity indices: no conflicts. FlexVec still pays the run-time checks
	// every group; SRV pays only srv_start/srv_end. The paper's Fig 13:
	// SRV needs < 60% of FlexVec's instructions for most benchmarks.
	const n = 256
	l, _, x := listing1Loop(n)
	im := mem.NewImage()
	l.Bind(im)
	for i := 0; i < n; i++ {
		im.WriteInt(x.Addr(int64(i)), 4, int64(i))
	}
	res, err := Compare(l, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgroups != res.Groups {
		t.Errorf("conflict-free data: subgroups = %d, want %d", res.Subgroups, res.Groups)
	}
	if r := res.Ratio(); r >= 1 {
		t.Errorf("SRV/FlexVec instruction ratio = %.2f, want < 1", r)
	}
}

func TestSerialChainDegradesFlexVecMore(t *testing.T) {
	// x[i] = i+1: every iteration depends on the previous one; FlexVec falls
	// to one lane per subgroup (16 subgroups per group).
	const n = 64
	l, _, x := listing1Loop(n)
	im := mem.NewImage()
	l.Bind(im)
	for i := 0; i < n; i++ {
		im.WriteInt(x.Addr(int64(i)), 4, int64(i+1))
	}
	res, err := Compare(l, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgroups != res.Groups*16 {
		t.Errorf("serial chain: subgroups = %d, want %d", res.Subgroups, res.Groups*16)
	}
}

func TestSafeLoopFailsGracefully(t *testing.T) {
	// Compare requires an SRV-compilable loop; a provably dependent loop is
	// rejected with an error, not a panic.
	a := &compiler.Array{Name: "a", Elem: 4, Len: 66}
	l := &compiler.Loop{Name: "rec", Trip: 64, Body: []compiler.Stmt{{
		Dst: a, Idx: compiler.Affine(1, 1),
		Val: compiler.Ref{Arr: a, Idx: compiler.Affine(1, 0)},
	}}}
	if _, err := Compare(l, mem.NewImage()); err == nil {
		t.Error("dependent loop must be rejected")
	}
}

// BenchmarkFlexVecCompare measures one Compare per op over the paper's
// index pattern at 1024 iterations: compiling and interpreting the SRV
// program, then the FlexVec emulation's per-group conflict checks.
func BenchmarkFlexVecCompare(b *testing.B) {
	const n = 1024
	l, _, x := listing1Loop(n)
	im := mem.NewImage()
	seedPaperPattern(l, x, im, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(l, im); err != nil {
			b.Fatal(err)
		}
	}
}
