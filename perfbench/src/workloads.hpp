// The two workloads. Each reports into run.outcome: on an untraced run
// every end-to-end metric, on a traced run every per-layer metric (from
// its own traced phase plus the layer sweep in ladder.hpp).
#pragma once

#include "fixtures.hpp"

namespace perfbench {

/// serve_open: a 50 k rps Poisson trace replayed open-loop into a
/// 2-replica pool, with a wall-clock crash window.
void run_serve_open(Run& run);

/// campaign: cross-checked fault campaigns, Injector vs serve backend.
void run_campaign(Run& run);

}  // namespace perfbench
