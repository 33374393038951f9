package harness

import (
	"sync"

	"srvsim/internal/obsv"
)

// Fleet-level tracing. Like the other fleet knobs (SetParallelism,
// SetExecutor, SetFailFast) the recorder is installed once by the CLI before
// fanning out: every leaf simulation then records one span under a single
// fleet-root trace, and Run propagates that root through the context, so a
// remote executor's client submissions carry the fleet's TraceID to the
// daemon.

var (
	spanMu   sync.RWMutex
	spanRec  *obsv.SpanRecorder
	spanRoot obsv.SpanContext
)

// SetSpanRecorder installs a process-wide span recorder for the fleet and
// returns the root span context every leaf span (and remote submission) will
// descend from. nil uninstalls the recorder; the returned context is then
// zero. The caller owns recording the root span itself — it knows when the
// fleet actually ends.
func SetSpanRecorder(rec *obsv.SpanRecorder) obsv.SpanContext {
	spanMu.Lock()
	defer spanMu.Unlock()
	spanRec = rec
	if rec == nil {
		spanRoot = obsv.SpanContext{}
	} else {
		spanRoot = obsv.NewTrace()
	}
	return spanRoot
}

func currentSpanRecorder() (*obsv.SpanRecorder, obsv.SpanContext) {
	spanMu.RLock()
	defer spanMu.RUnlock()
	return spanRec, spanRoot
}

// FleetRegistry builds an obsv view over the fleet counters, so srvbench can
// export them with -metrics-out in the same registry JSON format srvsim and
// srvd use. Derived figures (simulations in flight, throughput) come from
// the same snapshot logic as the text summary.
func FleetRegistry() *obsv.Registry {
	r := obsv.NewRegistry()
	s := r.Section("fleet")
	s.CounterFn("fleet.simulations", "leaf variant simulations finished (ok or failed)", fleet.simulations.Load)
	s.CounterFn("fleet.failures", "leaf simulations that returned an error", fleet.failures.Load)
	s.CounterFn("fleet.chaos_injected", "failures that were chaos-injected", fleet.chaosInjected.Load)
	s.Gauge("fleet.busy_ms", "summed wall-clock of leaf simulations, milliseconds", "%.1f",
		func() float64 { return float64(fleet.busyNS.Load()) / 1e6 })
	s.Gauge("fleet.scalar_ms", "busy time attributed to scalar variants, milliseconds", "%.1f",
		func() float64 { return float64(fleet.scalarNS.Load()) / 1e6 })
	s.Gauge("fleet.srv_ms", "busy time attributed to SRV variants, milliseconds", "%.1f",
		func() float64 { return float64(fleet.srvNS.Load()) / 1e6 })
	s.Gauge("fleet.in_flight", "mean leaf simulations in flight: summed busy time over elapsed wall-clock", "%.3f",
		func() float64 { return SnapshotFleet().InFlight })
	s.Gauge("fleet.sims_per_sec", "leaf simulations per second of wall-clock", "%.2f",
		func() float64 { return SnapshotFleet().SimsPerSec })
	return r
}
