package compiler

import (
	"reflect"
	"testing"

	"srvsim/internal/mem"
)

// TestIterAccesses pins the access list of a guarded indirect update,
// if (m[i] < 50) a[x[i]] = a[i] + 2, for an iteration whose guard holds and
// one whose guard fails, and checks that the walk appends to the caller's
// slice and allocates nothing once that slice has grown.
func TestIterAccesses(t *testing.T) {
	a := &Array{Name: "a", Elem: 4, Len: 16}
	x := &Array{Name: "x", Elem: 4, Len: 16}
	m := &Array{Name: "m", Elem: 2, Len: 16}
	l := &Loop{Name: "guarded-indirect", Trip: 16, Body: []Stmt{{
		Dst: a, Idx: Via(x, 1, 0),
		Val:  Bin{Op: OpAdd, L: Ref{Arr: a, Idx: Affine(1, 0)}, R: Const{V: 2}},
		Mask: &Mask{Op: CmpLT, L: Ref{Arr: m, Idx: Affine(1, 0)}, R: Const{V: 50}},
	}}}
	im := mem.NewImage()
	l.Bind(im)
	im.WriteInt(m.Addr(0), 2, 10)
	im.WriteInt(m.Addr(1), 2, 90)
	im.WriteInt(x.Addr(0), 4, 5)

	prefix := AccessRec{Addr: 1, Size: 1}
	got := IterAccesses([]AccessRec{prefix}, l, 0, im)
	want := []AccessRec{
		prefix,
		{Addr: m.Addr(0), Size: 2},                // guard read
		{Addr: a.Addr(0), Size: 4},                // a[i]
		{Addr: x.Addr(0), Size: 4},                // index read x[i]
		{Addr: a.Addr(5), Size: 4, IsStore: true}, // a[x[i]]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("guard holds: got %+v, want %+v", got, want)
	}
	if got := IterAccesses(nil, l, 1, im); !reflect.DeepEqual(got, []AccessRec{{Addr: m.Addr(1), Size: 2}}) {
		t.Errorf("guard fails: got %+v, want only the guard read", got)
	}

	buf := make([]AccessRec, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() { buf = IterAccesses(buf[:0], l, 0, im) }); allocs != 0 {
		t.Errorf("IterAccesses into a grown buffer: %v allocs/op, want 0", allocs)
	}
}
