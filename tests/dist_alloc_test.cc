// Steady-state heap allocations of the dist RPC path: a FrontTier and an
// in-process one-shard WorkerServer over loopback TCP.  This binary counts
// every operator new call on every thread (counting_new.h), so the count
// covers both sides: the front's offers, batches, acks and egress window,
// and the worker's serve thread and shard thread.
//
// Acks decode into reused buffers and each connection keeps its receive
// buffer; the worker deparses egress into reused columns and encodes every
// reply into one reused payload; a checkpoint copies each slot's blob into
// that slot's existing buffer.  What is left per frame is the byte vector
// FrontTier::drain_egress() returns the frame in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "core/compiler.h"
#include "counting_new.h"
#include "dist/front.h"
#include "dist/worker.h"
#include "wire/codec.h"

namespace {

// flowlets on banzai-praw, the default FrontConfig and a default
// WorkerConfig with one shard: 8 warm-up bursts, then 32 measured bursts of
// 2048 frames through offer -> flush -> drain_egress, which force a
// checkpoint every resend_limit (8192) frames.  The measured bursts may make
// at most 1.25 operator new calls per frame across both sides.
TEST(DistAllocTest, OfferFlushDrainAllocatesAboutOneVectorPerFrame) {
  constexpr std::size_t kBurst = 2048;
  constexpr int kWarmup = 8, kMeasured = 32;
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const wire::WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const wire::WireCodec>(spec, ft);
  auto tx = std::make_shared<const wire::WireCodec>(spec, ft,
                                                    compiled.output_map());

  std::mt19937 rng(2401);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, static_cast<int>(i), f);
    banzai::Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    frames.push_back(rx->deparse(p));
  }

  dist::WorkerConfig wc;
  wc.algorithm = "flowlets";
  wc.num_shards = 1;
  wc.flow_key = {"sport", "dport"};
  dist::WorkerServer worker(compiled.machine(), rx, tx, wc);
  worker.start();
  dist::FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.flow_key = {ft.id_of("sport"), ft.id_of("dport")};
  dist::FrontTier front(rx, fc);
  front.add_worker(worker.port());
  front.connect();

  std::size_t egressed = 0;
  std::vector<std::vector<std::uint8_t>> egress;
  auto burst = [&] {
    for (const auto& frame : frames) front.offer(frame);
    front.flush();
    egress = front.drain_egress();
    egressed += egress.size();
  };
  for (int b = 0; b < kWarmup; ++b) burst();
  egressed = 0;
  const std::uint64_t checkpoints_before = front.stats().checkpoints;
  const std::uint64_t before = g_allocations.load();
  for (int b = 0; b < kMeasured; ++b) burst();
  const std::uint64_t allocations = g_allocations.load() - before;
  const dist::FrontStats st = front.stats();
  worker.stop();

  ASSERT_EQ(egressed, kMeasured * kBurst);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_GE(st.checkpoints - checkpoints_before,
            kMeasured * kBurst / fc.resend_limit);
  const double per_frame =
      static_cast<double>(allocations) / static_cast<double>(egressed);
  std::printf("# %llu operator new calls for %zu frames: %.3f per frame\n",
              static_cast<unsigned long long>(allocations), egressed,
              per_frame);
  EXPECT_LE(per_frame, 1.25) << allocations << " operator new calls for "
                             << egressed << " frames";
}

}  // namespace
