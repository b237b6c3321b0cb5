// Prometheus rendering for the distributed fleet front tier: per-worker
// health (the state machine as an enum gauge), the fault-tolerance
// counters — retries, timeouts, reconnects, migrations, checkpoints,
// duplicate suppression, replays — the ingest RPC count, and the resend
// buffer's frames and bytes.  Same exposition conventions as
// banzai/metrics.h; register via MetricsEndpoint::add_source:
//
//   endpoint.add_source([&](std::ostream& os) {
//     dist::render_dist_metrics(os, front);
//   });
#pragma once

#include <ostream>
#include <vector>

#include "dist/front.h"

namespace dist {

// Renders from plain snapshots (caller picks the moment; FrontTier's
// accessors are as thread-safe as the front's single-pump contract allows).
void render_dist_metrics(std::ostream& os, const FrontStats& stats,
                         const std::vector<WorkerView>& workers);

// Convenience overload: snapshots `front` and renders.
void render_dist_metrics(std::ostream& os, const FrontTier& front);

}  // namespace dist
