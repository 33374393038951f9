package compiler

import "srvsim/internal/mem"

// AccessRec is one dynamic memory access of a loop iteration.
type AccessRec struct {
	Addr    uint64
	Size    int
	IsStore bool
	Pos     int // statement position
}

// IterAccesses appends to dst the memory accesses iteration i would perform
// against the current memory state, without executing the iteration, and
// returns the extended slice. Guarded statements whose mask fails
// contribute no accesses beyond the mask's own reads. Index-array reads are
// included (they are real loads). Callers reuse dst across iterations, so
// the walk allocates nothing once dst has grown.
func IterAccesses(dst []AccessRec, l *Loop, i int, im *mem.Image) []AccessRec {
	iv := int64(i)
	for pos, s := range l.Body {
		if s.Mask != nil {
			dst = appendExprAccesses(dst, s.Mask.L, pos, iv, im)
			dst = appendExprAccesses(dst, s.Mask.R, pos, iv, im)
			if !maskHolds(s.Mask, iv, im) {
				continue
			}
		}
		dst = appendExprAccesses(dst, s.Val, pos, iv, im)
		dst = appendIndexAccess(dst, s.Idx, pos, iv)
		dst = append(dst, AccessRec{
			Addr: evalAddr(s.Dst, s.Idx, iv, im),
			Size: s.Dst.Elem, IsStore: true, Pos: pos,
		})
	}
	return dst
}

// appendIndexAccess appends the index-array read of an indirect subscript.
func appendIndexAccess(dst []AccessRec, ix Index, pos int, iv int64) []AccessRec {
	if ix.Indirect == nil {
		return dst
	}
	return append(dst, AccessRec{
		Addr: ix.Indirect.Addr(ix.Scale*iv + ix.Offset),
		Size: ix.Indirect.Elem, Pos: pos,
	})
}

// appendExprAccesses appends the loads an expression performs, operands
// first.
func appendExprAccesses(dst []AccessRec, e Expr, pos int, iv int64, im *mem.Image) []AccessRec {
	switch x := e.(type) {
	case Ref:
		dst = appendIndexAccess(dst, x.Idx, pos, iv)
		dst = append(dst, AccessRec{
			Addr: evalAddr(x.Arr, x.Idx, iv, im),
			Size: x.Arr.Elem, Pos: pos,
		})
	case Bin:
		dst = appendExprAccesses(dst, x.L, pos, iv, im)
		dst = appendExprAccesses(dst, x.R, pos, iv, im)
		if x.C != nil {
			dst = appendExprAccesses(dst, x.C, pos, iv, im)
		}
	}
	return dst
}

// maskHolds evaluates a statement guard for iteration iv.
func maskHolds(m *Mask, iv int64, im *mem.Image) bool {
	lv := evalExpr(m.L, iv, im)
	rv := evalExpr(m.R, iv, im)
	switch m.Op {
	case CmpLT:
		return lv < rv
	case CmpGE:
		return lv >= rv
	case CmpEQ:
		return lv == rv
	case CmpNE:
		return lv != rv
	}
	return false
}

// EvalIter executes exactly one iteration of the loop against the image.
func EvalIter(l *Loop, i int, im *mem.Image) {
	iv := int64(i)
	for _, s := range l.Body {
		if s.Mask != nil && !maskHolds(s.Mask, iv, im) {
			continue
		}
		v := evalExpr(s.Val, iv, im)
		im.WriteInt(evalAddr(s.Dst, s.Idx, iv, im), s.Dst.Elem, v)
	}
}

// Overlaps reports byte-range overlap of two access records.
func (a AccessRec) Overlaps(b AccessRec) bool {
	return a.Addr < b.Addr+uint64(b.Size) && b.Addr < a.Addr+uint64(a.Size)
}

// AccessSummary describes one static memory access for alias-pair counting.
type AccessSummary struct {
	Arr     *Array
	IsStore bool
	Unknown bool // subscript the compiler cannot disambiguate (indirect)
}

// AccessSummaries lists the loop's static accesses with their analysability.
func (l *Loop) AccessSummaries() []AccessSummary {
	var out []AccessSummary
	for _, a := range l.accesses() {
		out = append(out, AccessSummary{Arr: a.arr, IsStore: a.isStore, Unknown: a.idx.Indirect != nil})
	}
	return out
}

// TrueRAWBetween reports whether a store of iteration earlier conflicts with
// a read of iteration later in a way statement-at-a-time vector execution
// would violate: the load's statement position must not be after the
// store's, otherwise the vector code executes the store statement first and
// the later lane reads fresh data anyway. WAR and WAW pairs are excluded —
// vector execution and scatter ordering resolve them naturally (the §II
// limit study's store-buffering assumption). Both access lists must come
// from the same pre-group memory state.
func TrueRAWBetween(earlier, later []AccessRec) bool {
	for _, st := range earlier {
		if !st.IsStore {
			continue
		}
		for _, ld := range later {
			if !ld.IsStore && ld.Pos <= st.Pos && st.Overlaps(ld) {
				return true
			}
		}
	}
	return false
}
