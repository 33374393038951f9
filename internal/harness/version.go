package harness

// SchemaVersion versions the JSON wire formats the harness emits and
// accepts: Request/Result, the -json evaluation report, and the -timing
// report consumed by benchgate. Bump it whenever a field is added, removed
// or reinterpreted; readers treat an older (or missing) version as "produced
// by an earlier build" and warn rather than fail.
const SchemaVersion = 1

// CodeVersion identifies the simulator build for result provenance and
// cache addressing. It is part of every Request's cache key, so a daemon
// restarted on a build with a different CodeVersion can never serve results
// computed by older simulator code. Bump it on ANY change that can alter
// simulation results (pipeline timing, compiler codegen, workload shapes,
// default configuration) — documentation or harness-plumbing changes do not
// require a bump.
const CodeVersion = "srvsim-0.6.0"
