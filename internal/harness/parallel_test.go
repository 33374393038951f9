package harness

import (
	"reflect"
	"strings"
	"testing"

	"srvsim/internal/workloads"
)

// TestParallelMatchesSerial proves the worker pool is an observational no-op:
// every workload benchmark is measured once with a single worker and once
// with several, and the LoopResult structs must be identical field for field.
// Simulations share no mutable state, and aggregation happens in loop-index
// order after the fan-out, so any divergence here is a real data race or an
// order-dependent aggregate.
func TestParallelMatchesSerial(t *testing.T) {
	const seed = 7
	prev := Parallelism()
	defer SetParallelism(prev)

	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			SetParallelism(1)
			serial, err := RunBenchmark(b, seed)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			SetParallelism(8)
			parallel, err := RunBenchmark(b, seed)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if len(serial.Loops) != len(parallel.Loops) {
				t.Fatalf("loop count differs: serial=%d parallel=%d",
					len(serial.Loops), len(parallel.Loops))
			}
			for i := range serial.Loops {
				if !reflect.DeepEqual(serial.Loops[i], parallel.Loops[i]) {
					t.Errorf("loop %s differs:\nserial:   %+v\nparallel: %+v",
						serial.Loops[i].Loop, serial.Loops[i], parallel.Loops[i])
				}
			}
			if serial.Speedup != parallel.Speedup ||
				serial.Whole != parallel.Whole ||
				serial.Barrier != parallel.Barrier {
				t.Errorf("aggregates differ: serial=(%.6f %.6f %.6f) parallel=(%.6f %.6f %.6f)",
					serial.Speedup, serial.Whole, serial.Barrier,
					parallel.Speedup, parallel.Whole, parallel.Barrier)
			}
		})
	}
}

// TestParMapOrderAndErrors pins the contract RunBenchmark relies on: results
// land at their own index and the reported error is the first in index
// order, independent of scheduling.
func TestParMapOrderAndErrors(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)

	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		out := make([]int, 64)
		if err := parMap(len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}

		errs := []int{5, 2, 9}
		err := parMap(12, func(i int) error {
			for _, bad := range errs {
				if i == bad {
					return errAt(i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != errAt(2).Error() {
			t.Fatalf("workers=%d: got %v, want first-in-index-order error %v",
				workers, err, errAt(2))
		}
	}
}

type errAt int

func (e errAt) Error() string { return "failure at index " + string(rune('0'+int(e))) }

// TestPhaseReportsParallelMatchSerial pins the fan-out inside RunAll's
// phases: the sweep's rows and the per-benchmark Fig 13 and limit-study
// runs land in row and workload order, so each report is byte-identical
// with one worker and with several.
func TestPhaseReportsParallelMatchSerial(t *testing.T) {
	const seed = 7
	prev := Parallelism()
	defer SetParallelism(prev)

	render := func(workers int) []string {
		SetParallelism(workers)
		sweep, err := Sweep(seed)
		if err != nil {
			t.Fatalf("workers=%d: sweep: %v", workers, err)
		}
		f13, err := Fig13(seed)
		if err != nil {
			t.Fatalf("workers=%d: fig 13: %v", workers, err)
		}
		return []string{sweep.String(), f13.String(), LimitStudy(seed).String()}
	}
	serial, parallel := render(1), render(8)
	for i, name := range []string{"Sweep", "Fig 13", "limit study"} {
		if serial[i] != parallel[i] {
			t.Errorf("%s differs:\nserial:\n%s\nparallel:\n%s", name, serial[i], parallel[i])
		}
	}
}

// TestRunAllFailFastOrder pins RunAll's fatal-error contract under the
// phase overlap: with every simulation chaos-faulted and fail-fast on,
// Measure and the sweep both fail, and at any parallelism RunAll writes
// exactly the reports that precede Measure (Table I and the limit study)
// and returns Measure's error, the first failing phase in report order.
func TestRunAllFailFastOrder(t *testing.T) {
	resetKnobs(t)
	const seed = 7
	SetFailFast(true)
	SetChaos(1, 1)
	want := Table1().String() + LimitStudy(seed).String()
	first := workloads.All()[0]

	var errs []string
	for _, workers := range []int{1, 8} {
		SetParallelism(workers)
		var buf strings.Builder
		err := RunAll(seed, &buf)
		if err == nil {
			t.Fatalf("workers=%d: RunAll returned nil under fail-fast chaos", workers)
		}
		if se := AsSimError(err); se.Bench != first.Name || se.Loop != first.Loops[0].Shape.Name || se.Variant != "scalar" {
			t.Errorf("workers=%d: error %v, want the first Measure simulation's (%s/%s/scalar)",
				workers, err, first.Name, first.Loops[0].Shape.Name)
		}
		if buf.String() != want {
			t.Errorf("workers=%d: RunAll wrote %d bytes, want Table I and the limit study (%d bytes):\n%s",
				workers, buf.Len(), len(want), buf.String())
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("error differs across parallelism:\n1: %s\n8: %s", errs[0], errs[1])
	}
}
