package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"srvsim/internal/obsv"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{20: 1, 50: 3, 60: 3, 61: 4, 100: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%g = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestCentralMean(t *testing.T) {
	// Two modes with the split exactly at the median: the plain median
	// picks a side, the central mean sits between them.
	var xs []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, 40, 60)
	}
	if got := centralMean(xs); got != 50 {
		t.Errorf("central mean of two equal modes = %g, want 50", got)
	}
	for xs, want := range map[*[]float64]float64{{7}: 7, {1, 3}: 2, {5, 1, 3}: 3, {4, 1, 3, 2}: 2.5} {
		if got := centralMean(*xs); got != want {
			t.Errorf("centralMean(%v) = %g, want %g", *xs, got, want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for n, want := range map[int]float64{1000: 99, 480: 97.9, 11: 9, 10: 0, 3: 0, 100000: 99.9} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("n=%d: highest supported percentile %g, want %g", n, got, want)
		}
	}
	// The rule itself: the returned percentile keeps at least minBeyond
	// samples beyond it, and the next 0.1 step up would not.
	for n := minBeyond + 1; n < 5000; n += 37 {
		q := supportedPercentile(n)
		if b := beyond(n, q); b < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, q, b)
		}
		if up := math.Round((q+0.1)*10) / 10; up < 100 && beyond(n, up) >= minBeyond {
			t.Fatalf("n=%d: p%g is supported but p%g was returned", n, up, q)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(42, 3, 1000, 2*time.Second, 7)
	b := schedule(42, 3, 1000, 2*time.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, schedule(43, 3, 1000, 2*time.Second, 7)) {
		t.Fatal("another seed gave the same arrivals")
	}
	if reflect.DeepEqual(a, schedule(42, 4, 1000, 2*time.Second, 7)) {
		t.Fatal("another step gave the same arrivals")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 2s at 1000/s", n)
	}
	fresh, next := 0, 7
	var last time.Duration
	for _, x := range a {
		if x.due < last || x.due >= 2*time.Second {
			t.Fatalf("arrival due at %s after %s", x.due, last)
		}
		last = x.due
		if x.fresh {
			if x.key != next {
				t.Fatalf("fresh request %d, want %d", x.key, next)
			}
			fresh++
			next++
		} else if x.key < 0 || x.key >= warmSetSize {
			t.Fatalf("warm draw %d outside the warm set", x.key)
		}
	}
	if want := len(a) * freshPerMille / 1000; fresh != want {
		t.Fatalf("%d fresh of %d arrivals, want exactly %d", fresh, len(a), want)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimes(t *testing.T) {
	id := func(b byte) obsv.SpanID { return obsv.SpanID{b} }
	spans := []obsv.Span{
		{ID: id(1), Name: "route", Start: at(0), End: at(100)},
		// Node admission under the route span: 10..20, with a cache lookup
		// inside it and a queue wait that starts inside it and outlives it.
		{ID: id(2), Parent: id(1), Name: "admission", Start: at(10), End: at(20)},
		{ID: id(3), Parent: id(2), Name: "cache-lookup", Start: at(12), End: at(14)},
		{ID: id(4), Parent: id(2), Name: "queue-wait", Start: at(18), End: at(30)},
		// Execute hangs off admission too, overlaps nothing else, and has a
		// journal append running past the route's end.
		{ID: id(5), Parent: id(2), Name: "execute", Start: at(30), End: at(80)},
		{ID: id(6), Parent: id(5), Name: "journal-append", Start: at(95), End: at(110)},
		// A root without children.
		{ID: id(7), Name: "other", Start: at(0), End: at(5)},
	}
	want := map[obsv.SpanID]time.Duration{
		id(1): 100*time.Millisecond - (70+5)*time.Millisecond, // 10..80 and 95..100 covered
		id(2): 10*time.Millisecond - 4*time.Millisecond,       // 12..14 and 18..20
		id(3): 2 * time.Millisecond,
		id(4): 12 * time.Millisecond,
		id(5): 50 * time.Millisecond,
		id(6): 15 * time.Millisecond,
		id(7): 5 * time.Millisecond,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times\n got %v\nwant %v", got, want)
	}
}

// stepWorkers is the fleet's job workers in the step results built below.
const stepWorkers = 4

// step builds a step result whose warm samples all read p99 ms.
func step(rate, achieved, p99 float64, failed, refused int64, depthGrowth int64) stepResult {
	sr := stepResult{rate: rate, achieved: achieved, depthEnd: depthGrowth, workers: stepWorkers}
	for i := 0; i < 200; i++ {
		sr.warm = append(sr.warm, p99)
	}
	sr.failed, sr.refused = failed, refused
	return sr
}

func TestMaxRate(t *testing.T) {
	interp := 2000 * math.Pow(2500.0/2000, math.Log(warmLimitMS/10)/math.Log(40.0/10))
	cases := []struct {
		name  string
		steps []stepResult
		want  float64
		ok    bool
	}{
		{"first step fails", []stepResult{step(1000, 1000, 2*warmLimitMS, 0, 0, 0)}, 0, false},
		{"all pass", []stepResult{step(1000, 990, 2, 0, 0, 0), step(2000, 1980, 3, 0, 0, 0)}, 1980, true},
		{"latency limit crossed, interpolated", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 2000, 10, 0, 0, 0), step(2500, 2500, 40, 0, 0, 0)}, interp, true},
		{"next step refused", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 2000, 10, 0, 1, 0)}, 1000, true},
		{"queue moved within the workers", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 2000, 3, 0, 0, stepWorkers)}, 2000, true},
		{"next step's queue grew", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 2000, 10, 0, 0, stepWorkers+1)}, 1000, true},
		{"generator fell behind", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 1800, 10, 0, 0, 0)}, 1000, true},
		{"a failure ends the ladder even if a later step passes", []stepResult{
			step(1000, 1000, 2, 0, 0, 0), step(2000, 2000, 3, 1, 0, 0), step(2500, 2500, 3, 0, 0, 0)}, 1000, true},
	}
	for _, c := range cases {
		got, ok := maxRate(c.steps)
		if ok != c.ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRate = %g, %v; want %g, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}
