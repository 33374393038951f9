package harness

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"srvsim/internal/obsv"
)

// Fleet metrics: process-wide atomic counters over the leaf simulations (one
// scalar or SRV variant run each). They are recorded at the variant level —
// not in parMap — so nested fan-outs (benchmarks over loops over variants)
// never double-count busy time. Everything is monotonic and lock-free; a
// snapshot is a consistent-enough view for throughput reporting.

type fleetCounters struct {
	simulations   atomic.Int64 // leaf variant simulations finished (ok or failed)
	failures      atomic.Int64 // of which returned an error
	chaosInjected atomic.Int64 // of which were chaos-injected faults
	busyNS        atomic.Int64 // summed wall-clock of leaf simulations
	scalarNS      atomic.Int64 // busy time attributed to scalar variants
	srvNS         atomic.Int64 // busy time attributed to SRV variants
	firstStart    atomic.Int64 // unix nanos of the first leaf start (0 = none)
	lastEnd       atomic.Int64 // unix nanos of the latest leaf end
}

var fleet fleetCounters

// ResetFleet zeroes the fleet counters (start of an srvbench invocation or a
// test).
func ResetFleet() {
	fleet.simulations.Store(0)
	fleet.failures.Store(0)
	fleet.chaosInjected.Store(0)
	fleet.busyNS.Store(0)
	fleet.scalarNS.Store(0)
	fleet.srvNS.Store(0)
	fleet.firstStart.Store(0)
	fleet.lastEnd.Store(0)
}

// fleetRecord accounts one finished leaf simulation, and — when a fleet span
// recorder is installed — records it as one leaf span under the fleet root.
func fleetRecord(a attribution, start time.Time, err error) {
	end := time.Now()
	d := end.Sub(start).Nanoseconds()
	fleet.simulations.Add(1)
	if err != nil {
		fleet.failures.Add(1)
	}
	fleet.busyNS.Add(d)
	switch a.variant {
	case "scalar":
		fleet.scalarNS.Add(d)
	case "srv":
		fleet.srvNS.Add(d)
	}
	if rec, root := currentSpanRecorder(); rec != nil {
		sc := root.Child()
		sp := obsv.Span{
			Trace: sc.Trace, ID: sc.Span, Parent: root.Span,
			Name: a.variant, Start: start, End: end,
			Attrs: map[string]string{
				"bench": a.bench, "loop": a.loop,
				"seed": strconv.FormatInt(a.seed, 10),
			},
		}
		if err != nil {
			sp.Attrs["error"] = err.Error()
		}
		rec.Record(sp)
	}
	fleet.firstStart.CompareAndSwap(0, start.UnixNano())
	for {
		last := fleet.lastEnd.Load()
		if end.UnixNano() <= last || fleet.lastEnd.CompareAndSwap(last, end.UnixNano()) {
			return
		}
	}
}

// fleetChaos counts one chaos-injected fault.
func fleetChaos() { fleet.chaosInjected.Add(1) }

// FleetSnapshot is a point-in-time view of the fleet counters plus derived
// throughput figures. InFlight is summed busy time over elapsed wall-clock:
// the mean number of leaf simulations running at once. It is not bounded by
// Workers — every parMap call (benchmarks, loops, variants, evaluation
// phases) sizes its own goroutine set, so nested fan-outs keep more
// simulations in flight than there are workers, sharing GOMAXPROCS CPUs.
type FleetSnapshot struct {
	Simulations   int64   `json:"simulations"`
	Failures      int64   `json:"failures"`
	ChaosInjected int64   `json:"chaos_injected"`
	Workers       int     `json:"workers"`
	WallMS        float64 `json:"wall_ms"`
	BusyMS        float64 `json:"busy_ms"`
	ScalarMS      float64 `json:"scalar_ms"`
	SRVMS         float64 `json:"srv_ms"`
	InFlight      float64 `json:"in_flight"`
	SimsPerSec    float64 `json:"sims_per_sec"`
}

// SnapshotFleet derives the current fleet metrics.
func SnapshotFleet() FleetSnapshot {
	s := FleetSnapshot{
		Simulations:   fleet.simulations.Load(),
		Failures:      fleet.failures.Load(),
		ChaosInjected: fleet.chaosInjected.Load(),
		Workers:       Parallelism(),
		BusyMS:        float64(fleet.busyNS.Load()) / 1e6,
		ScalarMS:      float64(fleet.scalarNS.Load()) / 1e6,
		SRVMS:         float64(fleet.srvNS.Load()) / 1e6,
	}
	first, last := fleet.firstStart.Load(), fleet.lastEnd.Load()
	if first > 0 && last > first {
		wallNS := float64(last - first)
		s.WallMS = wallNS / 1e6
		s.InFlight = float64(fleet.busyNS.Load()) / wallNS
		s.SimsPerSec = float64(s.Simulations) / (wallNS / 1e9)
	}
	return s
}

// String renders the snapshot as a one-paragraph fleet summary.
func (s FleetSnapshot) String() string {
	if s.Simulations == 0 {
		return "fleet: no simulations recorded\n"
	}
	out := fmt.Sprintf("fleet: %d simulations in %.1fs wall (%.1f sims/sec), %d workers, %.1f simulations in flight on average\n",
		s.Simulations, s.WallMS/1e3, s.SimsPerSec, s.Workers, s.InFlight)
	out += fmt.Sprintf("fleet: busy %.1fs (scalar %.1fs, srv %.1fs)", s.BusyMS/1e3, s.ScalarMS/1e3, s.SRVMS/1e3)
	if s.Failures > 0 || s.ChaosInjected > 0 {
		out += fmt.Sprintf(", %d failed (%d chaos-injected)", s.Failures, s.ChaosInjected)
	}
	return out + "\n"
}
