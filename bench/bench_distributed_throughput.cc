// Throughput of the distributed fleet (src/dist/): aggregate frames/sec
// through the front tier at 1 vs 2 vs 4 in-process workers, with the
// single-process FleetService byte path as the no-RPC baseline.
//
//   $ ./build/bench/bench_distributed_throughput [num_frames]
//
// Workers here are in-process WorkerServer instances behind real loopback
// TCP, so the numbers measure the protocol cost (framing, batching, one
// outstanding request per worker) and the scale-out win, not fork/exec
// overhead.  Every run's egress is checked byte for byte against the frames
// the in-process baseline drained (the same slots, so the same state per
// flow), and a mismatch exits 1: a fast-but-wrong configuration cannot post
// a number.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/service.h"
#include "bench_util.h"
#include "core/compiler.h"
#include "dist/front.h"
#include "dist/worker.h"
#include "wire/codec.h"

namespace {

constexpr std::size_t kSlots = 16;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  long requested = 200000;
  if (argc > 1) {
    requested = std::atol(argv[1]);
    if (requested <= 0) {
      std::fprintf(stderr, "usage: %s [num_frames > 0]\n", argv[0]);
      return 2;
    }
  }
  const std::size_t num_frames = static_cast<std::size_t>(requested);

  const auto& alg = algorithms::algorithm("flowlets");
  const auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const wire::WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const wire::WireCodec>(spec, ft);
  auto tx = std::make_shared<const wire::WireCodec>(spec, ft,
                                                    compiled.output_map());

  std::mt19937 rng(42);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(num_frames);
  for (std::size_t i = 0; i < num_frames; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, static_cast<int>(i), f);
    banzai::Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    frames.push_back(rx->deparse(p));
  }

  std::printf("distributed fleet throughput: %zu frames, %zu slots, "
              "algorithm=flowlets\n\n",
              num_frames, kSlots);
  std::printf("%-28s %12s %14s\n", "configuration", "seconds", "frames/sec");

  // Baseline: one FleetService in-process, no RPC tier.  Its egress is the
  // reference every distributed run must reproduce.
  std::vector<std::vector<std::uint8_t>> reference;
  {
    banzai::ServiceConfig cfg;
    cfg.num_shards = 2;
    cfg.num_slots = kSlots;
    cfg.batch_size = 64;
    cfg.ring_capacity = 1024;
    cfg.flow_key = {ft.id_of("sport"), ft.id_of("dport")};
    banzai::FleetService svc(compiled.machine(), cfg);
    svc.set_wire(rx, tx);
    svc.start();
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& f : frames) svc.ingest_frame(f.data(), f.size());
    svc.flush();
    reference = svc.drain_egress_frames();
    const double dt = seconds_since(t0);
    svc.stop();
    if (reference.size() != num_frames) {
      std::fprintf(stderr, "baseline egress mismatch: %zu != %zu\n",
                   reference.size(), num_frames);
      return 1;
    }
    std::printf("%-28s %12.3f %14.0f\n", "in-process (no RPC)", dt,
                static_cast<double>(num_frames) / dt);
  }

  for (const std::size_t n_workers : {1u, 2u, 4u}) {
    std::vector<std::unique_ptr<dist::WorkerServer>> workers;
    for (std::size_t w = 0; w < n_workers; ++w) {
      dist::WorkerConfig wc;
      wc.algorithm = "flowlets";
      wc.num_slots = kSlots;
      wc.num_shards = 2;
      wc.batch_size = 64;
      wc.ring_capacity = 1024;
      wc.flow_key = {"sport", "dport"};
      workers.push_back(std::make_unique<dist::WorkerServer>(
          compiled.machine(), rx, tx, wc));
      workers.back()->start();
    }
    dist::FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = {ft.id_of("sport"), ft.id_of("dport")};
    fc.max_batch = 128;
    dist::FrontTier front(rx, fc);
    for (auto& w : workers) front.add_worker(w->port());
    front.connect();

    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& f : frames) front.offer(f);
    front.flush();
    const auto egress = front.drain_egress();
    const double dt = seconds_since(t0);
    for (auto& w : workers) w->stop();
    if (egress.size() != num_frames) {
      std::fprintf(stderr, "%zu-worker egress mismatch: %zu != %zu\n",
                   n_workers, egress.size(), num_frames);
      return 1;
    }
    for (std::size_t i = 0; i < num_frames; ++i) {
      if (egress[i] != reference[i]) {
        std::fprintf(stderr,
                     "%zu-worker egress frame %zu differs from the "
                     "in-process baseline\n",
                     n_workers, i);
        return 1;
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "%zu worker%s over TCP", n_workers,
                  n_workers == 1 ? "" : "s");
    std::printf("%-28s %12.3f %14.0f\n", label, dt,
                static_cast<double>(num_frames) / dt);
  }
  return 0;
}
