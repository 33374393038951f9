package bitvec

import (
	"math/rand"
	"testing"
)

// refMask128 builds a Mask128 bit by bit — the reference the word-parallel
// operations are checked against.
func refMask128(bits []bool) Mask128 {
	var m Mask128
	for i, b := range bits {
		if b {
			m[i>>6] |= 1 << uint(i&63)
		}
	}
	return m
}

func randBits(rng *rand.Rand) []bool {
	bits := make([]bool, FootprintBits)
	for i := range bits {
		bits[i] = rng.Intn(2) == 0
	}
	return bits
}

func TestRange128(t *testing.T) {
	for off := 0; off <= FootprintBits; off++ {
		for _, n := range []int{0, 1, 3, 8, 63, 64, 65, 127, 128} {
			if off+n > FootprintBits {
				continue
			}
			got := Range128(off, n)
			bits := make([]bool, FootprintBits)
			for i := off; i < off+n; i++ {
				bits[i] = true
			}
			if want := refMask128(bits); got != want {
				t.Fatalf("Range128(%d,%d) = %s, want %s", off, n, got, want)
			}
			if got.Count() != n {
				t.Fatalf("Range128(%d,%d).Count() = %d", off, n, got.Count())
			}
		}
	}
}

func TestMask128Window(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		bits := randBits(rng)
		m := refMask128(bits)
		off := rng.Intn(FootprintBits + 8)
		n := 1 + rng.Intn(64)
		got := m.Window(off, n)
		var want uint64
		for i := 0; i < n; i++ {
			if off+i < FootprintBits && bits[off+i] {
				want |= 1 << uint(i)
			}
		}
		if got != want {
			t.Fatalf("Window(%d,%d) = %#x, want %#x (mask %s)", off, n, got, want, m)
		}
	}
}

func TestMask128NextRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		bits := randBits(rng)
		if trial%7 == 0 { // exercise long runs too
			for i := range bits {
				bits[i] = i >= trial%64 && i < trial%64+65
			}
		}
		m := refMask128(bits)
		// Walk all runs and rebuild the mask.
		var rebuilt Mask128
		total := 0
		for off, n := m.NextRun(0); n > 0; off, n = m.NextRun(off + n) {
			if off+n > FootprintBits {
				t.Fatalf("run [%d,%d) out of range", off, off+n)
			}
			for i := off; i < off+n; i++ {
				if !bits[i] {
					t.Fatalf("run [%d,%d) covers clear bit %d", off, off+n, i)
				}
			}
			if off > 0 && bits[off-1] {
				t.Fatalf("run at %d not maximal (bit %d set)", off, off-1)
			}
			if off+n < FootprintBits && bits[off+n] {
				t.Fatalf("run [%d,%d) not maximal (bit %d set)", off, off+n, off+n)
			}
			rebuilt.SetRange(off, n)
			total += n
		}
		if rebuilt != m {
			t.Fatalf("runs do not cover mask: got %s want %s", rebuilt, m)
		}
		if total != m.Count() {
			t.Fatalf("run bytes %d != count %d", total, m.Count())
		}
	}
}

func TestMask128SetClearRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		bits := randBits(rng)
		m := refMask128(bits)
		off := rng.Intn(FootprintBits)
		n := rng.Intn(FootprintBits - off + 1)
		set, clear := m, m
		set.SetRange(off, n)
		clear.ClearRange(off, n)
		for i := 0; i < FootprintBits; i++ {
			inRange := i >= off && i < off+n
			if want := bits[i] || inRange; set.Test(i) != want {
				t.Fatalf("SetRange(%d,%d) bit %d = %v", off, n, i, set.Test(i))
			}
			if want := bits[i] && !inRange; clear.Test(i) != want {
				t.Fatalf("ClearRange(%d,%d) bit %d = %v", off, n, i, clear.Test(i))
			}
		}
	}
}

func TestLaneMask(t *testing.T) {
	if LaneRange(3, 2) != 0 {
		t.Error("empty LaneRange must be 0")
	}
	m := LaneRange(2, 5)
	if m.Count() != 4 || !m.Test(2) || !m.Test(5) || m.Test(1) || m.Test(6) {
		t.Errorf("LaneRange(2,5) = %b", m)
	}
	if m.Lowest() != 2 {
		t.Errorf("Lowest = %d", m.Lowest())
	}
	if LaneFrom(14, 16) != LaneRange(14, 15) {
		t.Error("LaneFrom(14,16) != LaneRange(14,15)")
	}
	if LaneFrom(16, 16).Any() {
		t.Error("LaneFrom past the end must be empty")
	}
}

// The disambiguation kernels must stay allocation-free: they run once per
// (issuing access, candidate entry) pair on the LSU hot path.

var maskSink uint64

func TestMask128KernelAllocs(t *testing.T) {
	m := Range128(3, 20).Or(Range128(40, 33)).Or(Range128(100, 11))
	kernels := []struct {
		name string
		fn   func()
	}{
		{"Window", func() {
			for off := 0; off+8 <= FootprintBits; off += 7 {
				maskSink += m.Window(off, 8)
			}
		}},
		{"NextRun", func() {
			for off, n := m.NextRun(0); n > 0; off, n = m.NextRun(off + n) {
				maskSink += uint64(n)
			}
		}},
		{"range", func() {
			var acc Mask128
			for off := 0; off+9 <= FootprintBits; off += 5 {
				acc = acc.Or(Range128(off, 9).AndNot(m)).And(m)
				acc.SetRange(off, 3)
				acc.ClearRange(off+1, 2)
			}
			maskSink += uint64(acc.Count())
		}},
	}
	for _, k := range kernels {
		if a := testing.AllocsPerRun(100, k.fn); a != 0 {
			t.Errorf("%s: %v allocs per run, want 0", k.name, a)
		}
	}
}

func BenchmarkMask128Window(b *testing.B) {
	b.ReportAllocs()
	m := Range128(5, 100)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += m.Window(i&63, 8)
	}
	_ = acc
}

func BenchmarkMask128NextRun(b *testing.B) {
	b.ReportAllocs()
	m := Range128(3, 20).Or(Range128(40, 33)).Or(Range128(100, 11))
	var acc int
	for i := 0; i < b.N; i++ {
		for off, n := m.NextRun(0); n > 0; off, n = m.NextRun(off + n) {
			acc += n
		}
	}
	_ = acc
}

func BenchmarkMask128RangeOps(b *testing.B) {
	b.ReportAllocs()
	var acc Mask128
	for i := 0; i < b.N; i++ {
		m := Range128(i&63, 64)
		acc = acc.Or(m.AndNot(Range128(8, 16)))
	}
	_ = acc
}
