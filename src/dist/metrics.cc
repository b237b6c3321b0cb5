#include "dist/metrics.h"

namespace dist {

namespace {

void help_line(std::ostream& os, const char* name, const char* type,
               const char* help) {
  os << "# HELP " << name << ' ' << help << '\n'
     << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

void render_dist_metrics(std::ostream& os, const FrontStats& stats,
                         const std::vector<WorkerView>& workers) {
  help_line(os, "domino_dist_worker_health", "gauge",
            "Worker health state: 0=healthy 1=suspect 2=dead 3=recovering");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_health{worker=\"" << w << "\"} "
       << static_cast<int>(workers[w].health) << '\n';
  help_line(os, "domino_dist_worker_timeouts_total", "counter",
            "RPCs that ran past their deadline, per worker");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_timeouts_total{worker=\"" << w << "\"} "
       << workers[w].timeouts << '\n';
  help_line(os, "domino_dist_worker_errors_total", "counter",
            "Connection-level RPC failures, per worker");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_errors_total{worker=\"" << w << "\"} "
       << workers[w].errors << '\n';
  help_line(os, "domino_dist_worker_deaths_total", "counter",
            "Times the failure detector declared the worker dead");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_deaths_total{worker=\"" << w << "\"} "
       << workers[w].deaths << '\n';
  help_line(os, "domino_dist_worker_recoveries_total", "counter",
            "Completed dead -> recovering -> healthy arcs");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_recoveries_total{worker=\"" << w << "\"} "
       << workers[w].recoveries << '\n';
  help_line(os, "domino_dist_worker_slots", "gauge",
            "Slots currently owned by the worker");
  for (std::size_t w = 0; w < workers.size(); ++w)
    os << "domino_dist_worker_slots{worker=\"" << w << "\"} "
       << workers[w].slots_owned << '\n';

  help_line(os, "domino_dist_frames_offered_total", "counter",
            "Frames offered to the front tier");
  os << "domino_dist_frames_offered_total " << stats.frames_offered << '\n';
  help_line(os, "domino_dist_frames_sent_total", "counter",
            "Frames sent to workers, including retries and replays");
  os << "domino_dist_frames_sent_total " << stats.frames_sent << '\n';
  help_line(os, "domino_dist_frames_acked_total", "counter",
            "Frames acknowledged as freshly applied");
  os << "domino_dist_frames_acked_total " << stats.frames_acked << '\n';
  help_line(os, "domino_dist_dup_acks_total", "counter",
            "Frames the worker-side sequence dedup suppressed");
  os << "domino_dist_dup_acks_total " << stats.dup_acks << '\n';
  help_line(os, "domino_dist_rejects_total", "counter",
            "Frames rejected by wire parsing (tombstoned seqs)");
  os << "domino_dist_rejects_total " << stats.rejects << '\n';
  help_line(os, "domino_dist_retries_total", "counter",
            "Ingest RPCs re-issued after a timeout or connection error");
  os << "domino_dist_retries_total " << stats.retries << '\n';
  help_line(os, "domino_dist_reconnects_total", "counter",
            "Successful connect + HELLO handshakes");
  os << "domino_dist_reconnects_total " << stats.reconnects << '\n';
  help_line(os, "domino_dist_migrations_total", "counter",
            "Dead-worker slot migrations");
  os << "domino_dist_migrations_total " << stats.migrations << '\n';
  help_line(os, "domino_dist_slot_moves_total", "counter",
            "Slots moved between workers (migration + rebalance)");
  os << "domino_dist_slot_moves_total " << stats.slot_moves << '\n';
  help_line(os, "domino_dist_checkpoints_total", "counter",
            "Checkpoint barriers completed");
  os << "domino_dist_checkpoints_total " << stats.checkpoints << '\n';
  help_line(os, "domino_dist_ingest_batches_total", "counter",
            "Acknowledged IngestBatch RPCs");
  os << "domino_dist_ingest_batches_total " << stats.ingest_batches << '\n';
  help_line(os, "domino_dist_replays_total", "counter",
            "Frames replayed from the frame logs after a slot move");
  os << "domino_dist_replays_total " << stats.replays << '\n';
  help_line(os, "domino_dist_resend_frames", "gauge",
            "Frames logged for resend and not yet trimmed by a checkpoint");
  os << "domino_dist_resend_frames " << stats.resend_frames << '\n';
  help_line(os, "domino_dist_resend_bytes", "gauge",
            "Bytes the frame logs hold for resend");
  os << "domino_dist_resend_bytes " << stats.resend_bytes << '\n';
  help_line(os, "domino_dist_egress_frames_total", "counter",
            "Settled egress frames drained in global order");
  os << "domino_dist_egress_frames_total " << stats.egress_frames << '\n';
  help_line(os, "domino_dist_egress_duplicates_total", "counter",
            "Egress records suppressed by the exactly-once window");
  os << "domino_dist_egress_duplicates_total " << stats.egress_duplicates
     << '\n';
  help_line(os, "domino_dist_egress_corrupt_total", "counter",
            "Reply seqs outside the issued range, dropped before the window");
  os << "domino_dist_egress_corrupt_total " << stats.egress_corrupt << '\n';
  help_line(os, "domino_dist_heartbeats_total", "counter",
            "Heartbeat probes answered");
  os << "domino_dist_heartbeats_total " << stats.heartbeats << '\n';
}

void render_dist_metrics(std::ostream& os, const FrontTier& front) {
  std::vector<WorkerView> workers;
  for (std::size_t w = 0; w < front.num_workers(); ++w)
    workers.push_back(front.worker_view(w));
  render_dist_metrics(os, front.stats(), workers);
}

}  // namespace dist
