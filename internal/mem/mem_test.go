package mem

import (
	"sync"
	"testing"
)

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	im.WriteInt(0x2000, 4, -7)
	if got := im.ReadInt(0x2000, 4); got != -7 {
		t.Errorf("ReadInt = %d, want -7", got)
	}
	// Sign extension across element widths.
	im.WriteInt(0x3000, 1, -1)
	if got := im.ReadInt(0x3000, 1); got != -1 {
		t.Errorf("1-byte ReadInt = %d, want -1", got)
	}
	if got := im.ReadInt(0x3000, 2); got != 255 {
		t.Errorf("2-byte ReadInt over {0xFF,0x00} = %d, want 255", got)
	}
}

func TestImageCrossPage(t *testing.T) {
	im := NewImage()
	addr := uint64(pageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6}
	im.WriteBytes(addr, data)
	got := make([]byte, 6)
	im.ReadBytes(addr, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("cross-page byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestImageUntouchedIsZero(t *testing.T) {
	im := NewImage()
	if got := im.ReadInt(0x123456, 8); got != 0 {
		t.Errorf("untouched memory = %d, want 0", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	im := NewImage()
	a := im.Alloc(100, 64)
	b := im.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestAllocBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc with non-power-of-two alignment should panic")
		}
	}()
	NewImage().Alloc(8, 3)
}

func TestCloneEqualFirstDiff(t *testing.T) {
	im := NewImage()
	im.WriteInt(0x2000, 8, 42)
	c := im.Clone()
	if !im.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.WriteInt(0x2004, 1, 9)
	if im.Equal(c) {
		t.Fatal("modified clone should differ")
	}
	addr, diff := im.FirstDiff(c)
	if !diff || addr != 0x2004 {
		t.Errorf("FirstDiff = %#x,%v, want 0x2004,true", addr, diff)
	}
	// A page of explicit zeros equals an absent page.
	d := im.Clone()
	d.WriteInt(0x90000, 8, 0)
	if !im.Equal(d) {
		t.Error("explicit zero page should equal absent page")
	}
}

// TestFirstDiffConcurrent mirrors the harness's scalar and SRV variants,
// which run in parallel against one shared reference image: each goroutine
// clones the reference, writes its own copy, reads the reference and asks
// FirstDiff where the two differ. None of that may write the reference, so
// the test is meaningful under -race (make check). The reference holds a
// page far above the dense page table as well as near ones.
func TestFirstDiffConcurrent(t *testing.T) {
	ref := NewImage()
	base := ref.Alloc(4*pageSize, 64)
	for off := 0; off < 4*pageSize; off += 8 {
		ref.WriteInt(base+uint64(off), 8, int64(off))
	}
	far := uint64(densePages+7) << pageBits
	ref.WriteInt(far, 8, 99)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			im := ref.Clone()
			for round := 0; round < 200; round++ {
				addr := base + uint64((round*520+g*8)%(4*pageSize))
				if round%10 == 0 {
					addr = far
				}
				want := ref.ReadInt(addr, 8)
				im.WriteInt(addr, 8, want+1)
				if got, diff := im.FirstDiff(ref); !diff || got != addr {
					t.Errorf("goroutine %d round %d: FirstDiff = %#x,%v, want %#x,true", g, round, got, diff, addr)
					return
				}
				im.WriteInt(addr, 8, want)
				if got, diff := im.FirstDiff(ref); diff {
					t.Errorf("goroutine %d round %d: restored image differs at %#x", g, round, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDenseTableTracksPages checks the dense page table against the map
// through writes, Clone and SetState: the table holds exactly the map's
// pages below densePages, and SetState drops the pages it replaces.
func TestDenseTableTracksPages(t *testing.T) {
	im := NewImage()
	im.WriteInt(0x3000, 8, 1)
	im.WriteInt(0x7ff8, 8, 2)
	far := uint64(densePages+1) << pageBits
	im.WriteInt(far, 8, 3)
	check := func(name string, im *Image) {
		t.Helper()
		for pn, p := range im.pages {
			if pn >= densePages {
				continue
			}
			if pn >= uint64(len(im.dense)) || im.dense[pn] != p {
				t.Errorf("%s: page %#x missing from the dense table", name, pn)
			}
		}
		for pn, p := range im.dense {
			if p != nil && im.pages[uint64(pn)] != p {
				t.Errorf("%s: dense table holds page %#x the map does not", name, pn)
			}
		}
	}
	check("written", im)
	c := im.Clone()
	check("clone", c)
	if !c.Equal(im) || c.ReadInt(0x7ff8, 8) != 2 || c.ReadInt(far, 8) != 3 {
		t.Fatal("clone lost contents")
	}
	st := im.State()
	d := NewImage()
	d.WriteInt(0x9000, 8, 4) // replaced by SetState
	if err := d.SetState(st); err != nil {
		t.Fatal(err)
	}
	check("restored", d)
	if !d.Equal(im) || d.ReadInt(0x9000, 8) != 0 {
		t.Fatal("SetState must replace every page")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineB: 64, HitLat: 2})
	if c.Lookup(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Lookup(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Lookup(0x1004) {
		t.Error("same-line access should hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits 1 miss", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 8 sets of 64B lines => addresses 0, 512, 1024 map to set 0.
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineB: 64, HitLat: 2})
	c.Lookup(0)    // miss, fill way 0
	c.Lookup(512)  // miss, fill way 1
	c.Lookup(0)    // hit, refresh
	c.Lookup(1024) // miss, evicts 512 (LRU)
	if !c.Lookup(0) {
		t.Error("line 0 should still be resident")
	}
	if c.Lookup(512) {
		t.Error("line 512 should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	if lat := h.Latency(0x4000); lat != 2+7+80 {
		t.Errorf("cold access latency = %d, want 89", lat)
	}
	if lat := h.Latency(0x4000); lat != 2 {
		t.Errorf("L1 hit latency = %d, want 2", lat)
	}
	// Evict from L1 but not L2: touch enough distinct lines mapping to the
	// same L1 set. L1: 32KiB/64B/4w = 128 sets; stride 128*64 = 8KiB.
	for i := 1; i <= 4; i++ {
		h.Latency(0x4000 + uint64(i*8192))
	}
	if lat := h.Latency(0x4000); lat != 2+7 {
		t.Errorf("L2 hit latency = %d, want 9", lat)
	}
}

func TestSpanLatencyWorstLine(t *testing.T) {
	h := DefaultHierarchy()
	h.Latency(0x8000) // warm first line
	// Span covering the warm line and a cold one: worst-case applies.
	if lat := h.SpanLatency(0x8000, 128); lat != 2+7+80 {
		t.Errorf("span latency = %d, want 89", lat)
	}
	if lat := h.SpanLatency(0x8000, 16); lat != 2 {
		t.Errorf("warm span latency = %d, want 2", lat)
	}
}

func TestMemoryBandwidthQueueing(t *testing.T) {
	h := DefaultHierarchy()
	h.MemBusy = 10
	// Two back-to-back cold misses at the same cycle: the second queues.
	lat1 := h.LatencyAt(100, 0x10000)
	lat2 := h.LatencyAt(100, 0x20000)
	if lat1 != 2+7+80 {
		t.Errorf("first miss latency = %d, want 89", lat1)
	}
	if lat2 != 2+7+80+10 {
		t.Errorf("queued miss latency = %d, want 99", lat2)
	}
	if h.QueueDelay != 10 {
		t.Errorf("queue delay = %d, want 10", h.QueueDelay)
	}
	// A miss after the channel drains pays no queue delay.
	if lat := h.LatencyAt(500, 0x30000); lat != 89 {
		t.Errorf("post-drain miss latency = %d, want 89", lat)
	}
	// Hits never touch the channel.
	if lat := h.LatencyAt(500, 0x10000); lat != 2 {
		t.Errorf("hit latency = %d, want 2", lat)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	// Miss at line 0 prefetches line 64: the next access hits L1.
	if lat := h.LatencyAt(0, 0x10000); lat != 89 {
		t.Errorf("first miss latency = %d, want 89", lat)
	}
	if lat := h.LatencyAt(1, 0x10040); lat != 2 {
		t.Errorf("prefetched line latency = %d, want 2 (L1 hit)", lat)
	}
	if h.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", h.Prefetches)
	}
	// Hits never prefetch.
	h.LatencyAt(2, 0x10000)
	if h.Prefetches != 1 {
		t.Errorf("prefetches after hit = %d, want still 1", h.Prefetches)
	}
}
