// The workloads. Each runs its set-up, then a timed phase of
// repeated jobs for `args.seconds`, checks its correctness gates, and
// fills `result` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, `tracer->enabled()`).

#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Reconstruct + Evaluate with one classifier trained in set-up (Table
/// III setting, kernel threads = nproc/2).
void RunReconstructEu(const Args& args, Tracer* tracer, Result* result);

/// Closed-loop MaxClique traffic against a journaling marioh_served over
/// four TCP connections.
void RunServeLight(const Args& args, Tracer* tracer, Result* result);

}  // namespace perfbench
