// The scheduling layer: PIFO invariants (dequeue-min, FIFO tie-break,
// bounded-size eviction accounting), the rank-program differential across
// all three execution engines, and the STFQ-on-PIFO fairness scenario that
// a drop-tail FIFO fails.
#include "sim/sched.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/machine.h"
#include "sim/queue.h"
#include "sim/tracegen.h"

namespace netsim {
namespace {

QueueItem item_of(std::int32_t size, std::int64_t rank, std::uint64_t cookie) {
  QueueItem item;
  item.size_bytes = size;
  item.rank = rank;
  item.cookie = cookie;
  return item;
}

std::vector<Departed> drain(QueueDiscipline& q) {
  std::vector<Departed> out;
  const std::int64_t horizon = std::numeric_limits<std::int64_t>::max();
  while (auto d = q.pop_departed(horizon)) out.push_back(*d);
  return out;
}

// The packet in service is never preempted; everything still waiting leaves
// in rank order regardless of arrival order.
TEST(PifoTest, DequeuesMinimumRankNonPreemptively) {
  QueueConfig cfg;
  cfg.bytes_per_tick = 100;
  PifoQueue q(cfg);
  // First offer enters service immediately even though its rank is middling.
  const std::int64_t ranks[] = {50, 70, 10, 40, 20};
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_FALSE(q.offer(0, item_of(100, ranks[i], i)).dropped);

  const std::vector<Departed> out = drain(q);
  ASSERT_EQ(out.size(), 5u);
  const std::uint64_t want[] = {0, 2, 4, 3, 1};  // service, then rank order
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(out[i].dropped);
    EXPECT_EQ(out[i].item.cookie, want[i]) << "position " << i;
    // Back-to-back 100-byte services at 100 B/tick: one departure per tick.
    EXPECT_EQ(out[i].tick, static_cast<std::int64_t>(i) + 1);
  }
}

TEST(PifoTest, EqualRanksLeaveInAdmissionOrder) {
  QueueConfig cfg;
  cfg.bytes_per_tick = 100;
  PifoQueue q(cfg);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_FALSE(q.offer(0, item_of(100, /*rank=*/5, i)).dropped);
  const std::vector<Departed> out = drain(q);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].item.cookie, i);
}

// Bounded buffer: a better-ranked arrival evicts the worst waiting packet; a
// worst-ranked arrival is dropped on the spot.  Either way every offered
// packet lands in exactly one of the accepted/dropped columns.
TEST(PifoTest, BoundedSizeEvictsWorstRank) {
  QueueConfig cfg;
  cfg.bytes_per_tick = 1;  // effectively frozen server
  cfg.capacity_bytes = 300;
  PifoQueue q(cfg);
  EXPECT_FALSE(q.offer(0, item_of(100, 10, 0)).dropped);  // in service
  EXPECT_FALSE(q.offer(0, item_of(100, 50, 1)).dropped);
  EXPECT_FALSE(q.offer(0, item_of(100, 70, 2)).dropped);  // buffer now full

  // Rank 60 beats the waiting rank-70 packet: evict it, admit the arrival.
  EXPECT_FALSE(q.offer(0, item_of(100, 60, 3)).dropped);
  EXPECT_EQ(q.evicted_pkts(), 1);
  EXPECT_EQ(q.dropped_pkts(), 1);

  // Rank 90 is worse than everything waiting: arrival drop, no eviction.
  EXPECT_TRUE(q.offer(0, item_of(100, 90, 4)).dropped);
  EXPECT_EQ(q.evicted_pkts(), 1);
  EXPECT_EQ(q.dropped_pkts(), 2);

  // offered == accepted + dropped, in packets and bytes; evictions are a
  // subset of drops.
  EXPECT_EQ(q.offered_pkts(), 5);
  EXPECT_EQ(q.accepted_pkts() + q.dropped_pkts(), q.offered_pkts());
  EXPECT_EQ(q.accepted_bytes() + q.dropped_bytes(), q.offered_bytes());
  EXPECT_LE(q.evicted_pkts(), q.dropped_pkts());
  EXPECT_EQ(q.backlog_bytes(0), 300);

  // The eviction surfaces through pop_departed as a dropped departure at the
  // eviction tick, carrying the victim's cookie.
  auto d = q.pop_departed(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->dropped);
  EXPECT_EQ(d->item.cookie, 2u);
  EXPECT_EQ(d->tick, 0);
}

// simulate_queue on a scheduled discipline back-fills each accepted sample
// with the real departure discovered when the queue drains.
TEST(PifoTest, SimulateQueueBackfillsScheduledDepartures) {
  std::vector<TracePacket> trace;
  for (int i = 0; i < 6; ++i) {
    TracePacket p;
    p.arrival = i;
    p.size_bytes = 500;
    p.flow_id = i % 2;
    trace.push_back(p);
  }
  QueueConfig cfg;
  cfg.bytes_per_tick = 500;
  PifoQueue q(cfg);
  const std::vector<QueueSample> samples = simulate_queue(trace, q);
  ASSERT_EQ(samples.size(), trace.size());
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(samples[i].dropped);
    // One-tick services arriving one per tick never queue behind each other.
    EXPECT_EQ(samples[i].departure, i + 1);
    EXPECT_EQ(samples[i].sojourn, 1);
  }
}

// Both engines produce bit-identical ranks for every rank program.  A
// machine without a native toolchain degrades kNative to the kernel VM, so
// this holds on every host.
TEST(RankMachineTest, EnginesAgreeOnEveryRankProgram) {
  const banzai::ExecEngine engines[] = {banzai::ExecEngine::kKernel,
                                        banzai::ExecEngine::kNative};
  for (const auto& alg : algorithms::rank_corpus()) {
    std::vector<std::vector<banzai::Value>> per_engine;
    for (const auto engine : engines) {
      RankMachine rm = compile_rank_machine(alg.name, engine);
      std::vector<banzai::Value> ranks;
      for (int i = 0; i < 300; ++i) {
        QueueItem item;
        item.flow_id = i % 7;
        item.tenant_id = i % 3;
        item.size_bytes = 64 + (i * 37) % 1400;
        RankFeedback fb;
        fb.vt = (i / 4) * 100;
        fb.refund = (i % 10 == 0) ? 1500 : 0;
        fb.trefund = (i % 25 == 0) ? 1500 : 0;
        ranks.push_back(rm.rank(/*now=*/i, fb, item));
      }
      per_engine.push_back(std::move(ranks));
    }
    ASSERT_EQ(per_engine.size(), 2u);
    EXPECT_EQ(per_engine[0], per_engine[1]) << alg.name << ": kernel vs native";
  }
}

// The headline claim: on every tested seed, STFQ-on-PIFO bounds the max/min
// per-tenant delivered-bytes ratio strictly tighter than the drop-tail FIFO
// running the identical workload, with the rank computed by the compiled
// STFQ transaction.
TEST(FairnessTest, StfqOnPifoTightensMaxMinRatio) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    FairnessConfig cfg;
    cfg.seed = seed;

    FairnessConfig fifo_cfg = cfg;
    fifo_cfg.use_pifo = false;
    const FairnessReport fifo = run_fairness_scenario(fifo_cfg);

    FairnessConfig pifo_cfg = cfg;
    pifo_cfg.use_pifo = true;
    const FairnessReport pifo = run_fairness_scenario(pifo_cfg);

    EXPECT_LT(pifo.max_min_ratio, fifo.max_min_ratio) << "seed " << seed;
    // Conservation at the fabric level: every injected packet is delivered
    // or dropped, under both disciplines.
    for (const FairnessReport* r : {&fifo, &pifo}) {
      EXPECT_EQ(r->stats.injected, cfg.packets) << "seed " << seed;
      EXPECT_EQ(r->stats.delivered + r->stats.dropped, r->stats.injected)
          << "seed " << seed;
    }
  }
}

TEST(FairnessTest, DeterministicUnderFixedSeed) {
  FairnessConfig cfg;
  cfg.seed = 42;
  cfg.use_pifo = true;
  const FairnessReport a = run_fairness_scenario(cfg);
  const FairnessReport b = run_fairness_scenario(cfg);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.offered_bytes, b.offered_bytes);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.max_min_ratio, b.max_min_ratio);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.events, b.stats.events);
}

// The fabric-level engine differential: swapping the rank machine's engine
// must not change a single delivered byte.
TEST(FairnessTest, EnginesAgreeOnFabricDelivery) {
  std::vector<std::vector<std::int64_t>> delivered;
  for (const auto engine :
       {banzai::ExecEngine::kKernel, banzai::ExecEngine::kNative}) {
    FairnessConfig cfg;
    cfg.use_pifo = true;
    cfg.engine = engine;
    delivered.push_back(run_fairness_scenario(cfg).delivered_bytes);
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], delivered[1]);
}

}  // namespace
}  // namespace netsim
