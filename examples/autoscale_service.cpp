// The closed control loop end to end: a load step makes the service reshard
// itself, and the egress stays bit-exact against a sequential reference.
//
// Compiles the paper's flowlet-switching example and runs it behind an
// AutoscalingService (banzai/autoscale.h) starting at 2 shards.  Phase one
// trickles packets in slowly — queues stay empty, the controller holds.
// Phase two blasts the rest of the trace as fast as ingest will take it; the
// shard rings fill, the sampled occupancy crosses the scale-up threshold for
// consecutive samples, and the service walks 2 → 4 (→ 8) shards on its own,
// migrating per-flow state via snapshot/restore mid-stream.  Every egress
// packet is compared against a per-slot sequential reference machine, so the
// run proves the reshard kept the bit-exact egress-order contract.
//
//   $ ./build/examples/autoscale_service
//   $ ./build/examples/autoscale_service --require-reshard   # CI: fail if
//                                         the loop never fired
//   $ ./build/examples/autoscale_service --serve 10 --port 9109
//       ...then: curl -s http://127.0.0.1:9109/metrics
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/autoscale.h"
#include "banzai/metrics.h"
#include "core/compiler.h"
#include "sim/partition.h"
#include "sim/tracegen.h"

namespace {

constexpr std::size_t kSlots = 16;

std::size_t slot_of(const banzai::Packet& p, banzai::FieldId sport,
                    banzai::FieldId dport) {
  std::uint64_t h = 0;
  for (banzai::FieldId f : {sport, dport})
    h = netsim::mix64(
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.get(f))));
  return static_cast<std::size_t>(h % kSlots);
}

std::vector<banzai::Packet> make_round(const banzai::FieldTable& ft,
                                       std::size_t packets, std::uint64_t seed,
                                       std::int64_t arrival_base) {
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = packets;
  cfg.num_flows = 64;
  cfg.zipf_skew = 1.2;
  cfg.seed = seed;
  std::vector<banzai::Packet> out;
  out.reserve(packets);
  for (const auto& tp : netsim::generate_flow_trace(cfg)) {
    banzai::Packet p(ft.size());
    p.set(ft.id_of("sport"), 1000 + tp.flow_id);
    p.set(ft.id_of("dport"), 80);
    p.set(ft.id_of("arrival"),
          static_cast<banzai::Value>(arrival_base + tp.arrival));
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool require_reshard = false;
  int serve_seconds = 0;
  std::uint16_t port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-reshard") == 0)
      require_reshard = true;
    else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc)
      serve_seconds = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    else {
      std::fprintf(stderr,
                   "usage: autoscale_service [--require-reshard] "
                   "[--serve <seconds>] [--port <port>]\n");
      return 2;
    }
  }

  const auto& alg = algorithms::algorithm("flowlets");
  auto target = *atoms::find_target("banzai-praw");
  domino::CompileResult compiled = domino::compile(alg.source, target);
  const auto& ft = compiled.machine().fields();
  const auto f_sport = ft.id_of("sport");
  const auto f_dport = ft.id_of("dport");

  banzai::AutoscalingServiceConfig cfg;
  cfg.service.num_shards = 2;
  cfg.service.num_slots = kSlots;
  // Small batches and rings: the point is to make queue pressure visible,
  // not to win a throughput contest.
  cfg.service.batch_size = 4;
  cfg.service.ring_capacity = 128;
  cfg.service.backpressure = banzai::Backpressure::kBlock;  // lossless
  cfg.service.flow_key = {f_sport, f_dport};
  cfg.service.heavy_hitter_capacity = 32;
  cfg.autoscaler.min_shards = 2;
  cfg.autoscaler.max_shards = 8;
  cfg.autoscaler.queue_frac_high = 0.6;
  cfg.autoscaler.queue_frac_low = 0.05;
  cfg.autoscaler.sustain = 2;
  cfg.autoscaler.cooldown = std::chrono::milliseconds(10);
  cfg.sample_period = std::chrono::milliseconds(2);
  cfg.tick_stride = 64;

  banzai::AutoscalingService svc(compiled.machine(), cfg);

  // Sequential reference: one pristine machine per state slot, fed in the
  // same order packets are ingested.
  std::vector<banzai::Machine> reference;
  for (std::size_t v = 0; v < kSlots; ++v)
    reference.push_back(compiled.machine().clone());
  std::vector<banzai::Packet> expected;
  std::vector<banzai::Packet> egress;
  auto feed = [&](std::vector<banzai::Packet> round, bool slow) {
    // The reference runs the whole round first, and ingest takes the packets
    // by move: a blast that also ran the reference or copied each packet
    // would be paced down to a rate the workers absorb.
    for (const banzai::Packet& p : round)
      expected.push_back(reference[slot_of(p, f_sport, f_dport)].process(p));
    for (std::size_t i = 0; i < round.size(); ++i) {
      svc.ingest(std::move(round[i]));
      if (slow && (i & 31u) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  };

  svc.start();

  std::printf("phase 1: trickle (2 shards, queues idle)...\n");
  feed(make_round(ft, 4000, 17, 0), /*slow=*/true);
  std::printf("  shards after trickle: %zu (reshards: %llu)\n",
              svc.num_shards(),
              static_cast<unsigned long long>(svc.reshards()));

  std::printf("phase 2: 10x load step (blast ingest)...\n");
  // Keep blasting rounds until the control loop fires (bounded), so the
  // demo is robust to machine speed: a faster box just needs more offered
  // load before the rings back up.
  std::int64_t arrival_base = 1 << 20;
  const int max_rounds = require_reshard ? 40 : 4;
  for (int round = 0; round < max_rounds; ++round) {
    feed(make_round(ft, 40000, 18 + static_cast<std::uint64_t>(round),
                    arrival_base),
         /*slow=*/false);
    arrival_base += 1 << 20;
    for (auto& p : svc.drain_egress()) egress.push_back(std::move(p));
    if (svc.reshards() > 0 && round >= 1) break;  // one round past the event
  }

  svc.flush();
  svc.stop();
  for (auto& p : svc.drain_egress()) egress.push_back(std::move(p));

  const banzai::ServiceStats st = svc.stats();
  std::printf(
      "  shards now: %zu, reshards: %llu (ups %llu / downs %llu)\n"
      "  ingested %llu, delivered %llu, p50 latency %llu ticks, p99 %llu\n",
      svc.num_shards(), static_cast<unsigned long long>(svc.reshards()),
      static_cast<unsigned long long>(svc.autoscaler().scale_ups()),
      static_cast<unsigned long long>(svc.autoscaler().scale_downs()),
      static_cast<unsigned long long>(st.ingested),
      static_cast<unsigned long long>(st.delivered),
      static_cast<unsigned long long>(st.latency_p50_ticks),
      static_cast<unsigned long long>(st.latency_p99_ticks));
  if (!st.stage_counters.empty() && st.stage_counters[0].packets > 0) {
    std::printf("  per-stage counters (DOMINO_STAGE_COUNTERS):\n");
    for (std::size_t i = 0; i < st.stage_counters.size(); ++i)
      std::printf("    stage %zu: %llu pkts, %llu ops, %llu ns\n", i,
                  static_cast<unsigned long long>(st.stage_counters[i].packets),
                  static_cast<unsigned long long>(st.stage_counters[i].ops),
                  static_cast<unsigned long long>(st.stage_counters[i].ns));
  }
  const auto hitters = svc.heavy_hitters(5);
  if (!hitters.empty()) {
    std::printf("  top flows (space-saving, count-error):\n");
    for (const auto& h : hitters)
      std::printf("    flow %016llx: %llu (-%llu)\n",
                  static_cast<unsigned long long>(h.key),
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.error));
  }

  bool ok = egress.size() == expected.size();
  for (std::size_t i = 0; ok && i < egress.size(); ++i)
    if (!(egress[i] == expected[i])) ok = false;
  std::printf("%s\n", ok ? "egress == sequential reference across every "
                           "autonomous reshard"
                         : "DIVERGENCE DETECTED");
  if (!ok) return 1;
  if (require_reshard && svc.reshards() == 0) {
    std::fprintf(stderr, "--require-reshard: the control loop never fired\n");
    return 1;
  }

  if (serve_seconds > 0) {
    banzai::MetricsEndpoint::Options mopts;
    mopts.port = port;
    banzai::MetricsEndpoint endpoint(mopts);
    endpoint.add_source(
        [&svc](std::ostream& os) { render_service_metrics(os, svc.stats()); });
    endpoint.add_source([&svc](std::ostream& os) {
      render_heavy_hitters(os, svc.heavy_hitters(10));
    });
    endpoint.add_source([](std::ostream& os) {
      render_native_cache_metrics(os, banzai::native_cache_stats());
    });
    endpoint.start();
    std::printf("serving metrics on http://127.0.0.1:%u/metrics for %ds\n",
                endpoint.port(), serve_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    endpoint.stop();
  }
  return 0;
}
