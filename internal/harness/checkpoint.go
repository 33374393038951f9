package harness

import (
	"context"
	"fmt"

	"srvsim/internal/pipeline"
)

// Checkpoint plumbing: the harness threads the pipeline's machine
// checkpoints (pipeline.Checkpoint) through the Run path as execution-side
// state. A RunCheckpoint is NOT part of the Request or its cache key — two
// requests resume-or-not produce bit-identical Results (the simulator is
// deterministic and restore is exact), so resumption is invisible to
// content addressing. The serve layer journals the latest checkpoint per
// job and hands it back through WithResume after a crash, turning "re-run
// from cycle 0" into "continue from the last emission".

// RunCheckpoint is the wire form of one periodic machine checkpoint,
// attributed to the simulation variant that emitted it.
type RunCheckpoint struct {
	SchemaVersion int    `json:"schema_version"`
	CodeVersion   string `json:"code_version"`
	Bench         string `json:"bench,omitempty"`
	Loop          string `json:"loop,omitempty"`
	Variant       string `json:"variant"` // "scalar" or "srv"
	Seed          int64  `json:"seed"`
	Cycle         int64  `json:"cycle"`

	Machine *pipeline.Checkpoint `json:"machine"`
}

// checkpointCfg is the context-carried periodic-checkpointing request.
type checkpointCfg struct {
	every int64
	sink  func(RunCheckpoint)
}

type checkpointKey struct{}

// WithCheckpoints derives a context whose loop simulations emit a machine
// checkpoint through sink roughly every `every` cycles (at the pipeline's
// cancellation-poll boundaries). sink may be called concurrently from the
// scalar and SRV variant goroutines. Checkpointing is execution-side: it does not change
// the request's cache key, and the emitted Result is bit-identical to an
// un-checkpointed run.
func WithCheckpoints(ctx context.Context, every int64, sink func(RunCheckpoint)) context.Context {
	if every <= 0 || sink == nil {
		return ctx
	}
	return context.WithValue(ctx, checkpointKey{}, checkpointCfg{every: every, sink: sink})
}

type resumeKey struct{}

// resumeID addresses one checkpoint within a run: a benchmark-mode request
// fans out over many loops and both variants, and each simulation must only
// ever see the checkpoint that is exactly its own.
type resumeID struct {
	bench, loop, variant string
	seed                 int64
}

// WithResume derives a context whose loop simulations resume from matching
// checkpoints instead of cycle 0. A checkpoint matches a simulation on
// (bench, loop, variant, seed); simulations without a match (and simulations
// under an empty list) run from scratch. Restoration is exact, so the Result
// is byte-identical to an uninterrupted run either way.
func WithResume(ctx context.Context, cps []RunCheckpoint) context.Context {
	if len(cps) == 0 {
		return ctx
	}
	m := make(map[resumeID]RunCheckpoint, len(cps))
	for _, cp := range cps {
		m[resumeID{cp.Bench, cp.Loop, cp.Variant, cp.Seed}] = cp
	}
	return context.WithValue(ctx, resumeKey{}, m)
}

// resumeFor returns the context's resume checkpoint for one simulation's
// exact attribution, if any.
func resumeFor(ctx context.Context, a attribution) *RunCheckpoint {
	m, _ := ctx.Value(resumeKey{}).(map[resumeID]RunCheckpoint)
	if cp, ok := m[resumeID{a.bench, a.loop, a.variant, a.seed}]; ok {
		return &cp
	}
	return nil
}

// armCheckpoints wires one freshly-prepared variant pipeline into the
// context's checkpointing and resumption requests: installs the periodic
// emission sink, and — when a resume checkpoint for this variant is present
// — replaces the pipeline's state with it. Called after prepare (warm-up,
// chaos), whose effects a restore overwrites wholesale.
func armCheckpoints(ctx context.Context, p *pipeline.Pipeline, a attribution) error {
	if cc, ok := ctx.Value(checkpointKey{}).(checkpointCfg); ok {
		p.Cfg.CheckpointEvery = cc.every
		variant := a.variant
		p.SetCheckpointSink(func(cp *pipeline.Checkpoint) {
			cc.sink(RunCheckpoint{
				SchemaVersion: SchemaVersion, CodeVersion: CodeVersion,
				Bench: a.bench, Loop: a.loop, Variant: variant, Seed: a.seed,
				Cycle: cp.Cycle, Machine: cp,
			})
		})
	}
	rc := resumeFor(ctx, a)
	if rc == nil {
		return nil
	}
	// A checkpoint from different simulator code must never be restored: the
	// continued run would silently mix two machines' behaviours.
	if rc.CodeVersion != "" && rc.CodeVersion != CodeVersion {
		return a.simErr(KindRunError, "resume checkpoint was produced by %s, this build is %s", rc.CodeVersion, CodeVersion)
	}
	if rc.Machine == nil {
		return a.simErr(KindRunError, "resume checkpoint carries no machine state")
	}
	if err := p.Restore(rc.Machine); err != nil {
		return a.simErr(KindRunError, "restoring checkpoint at cycle %d: %v", rc.Cycle, err)
	}
	return nil
}

// Validate checks the structural integrity of a RunCheckpoint (journal
// recovery calls this before trusting a replayed record).
func (rc *RunCheckpoint) Validate() error {
	if rc.Variant == "" {
		return fmt.Errorf("harness: checkpoint has no variant")
	}
	if rc.Machine == nil {
		return fmt.Errorf("harness: checkpoint for variant %q carries no machine state", rc.Variant)
	}
	if rc.Machine.SchemaVersion != pipeline.CheckpointSchemaVersion {
		return fmt.Errorf("harness: checkpoint machine schema v%d, this build reads v%d",
			rc.Machine.SchemaVersion, pipeline.CheckpointSchemaVersion)
	}
	return nil
}
