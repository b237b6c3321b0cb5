// Tests for the workload substrate: deterministic RNG, Zipf sampling,
// trace generation, the FIFO queue simulator and the leaf-spine fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/queue.h"
#include "sim/rng.h"
#include "sim/tracegen.h"
#include "sim/zipf.h"

namespace netsim {
namespace {

TEST(RngTest, SplitMixDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(RngTest, RangeInclusive) {
  Xoshiro256 rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(ZipfTest, ZeroSupportThrows) {
  // Regression: the seed constructor dereferenced cdf_.back() on an empty
  // vector when n == 0 (UB); now it refuses the degenerate support.
  EXPECT_THROW(Zipf(0, 1.1), std::invalid_argument);
}

TEST(ZipfTest, SingletonSupportAlwaysSamplesZero) {
  Zipf z(1, 1.1);
  Xoshiro256 rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(ZipfTest, RankOneIsMostPopular) {
  Zipf z(100, 1.2);
  Xoshiro256 rng(6);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.sample(rng)]++;
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 50000 / 10);  // head is heavy
}

TEST(ZipfTest, SamplesCoverTail) {
  Zipf z(50, 1.0);
  Xoshiro256 rng(7);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.sample(rng)]++;
  int distinct = static_cast<int>(counts.size());
  EXPECT_GT(distinct, 40);  // nearly all ranks appear
}

TEST(TraceGenTest, DeterministicUnderSeed) {
  FlowTraceConfig c;
  c.num_packets = 500;
  auto t1 = generate_flow_trace(c);
  auto t2 = generate_flow_trace(c);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].arrival, t2[i].arrival);
    EXPECT_EQ(t1[i].flow_id, t2[i].flow_id);
  }
}

TEST(TraceGenTest, PerFlowArrivalsMonotone) {
  FlowTraceConfig c;
  c.num_packets = 5000;
  auto trace = generate_flow_trace(c);
  std::map<std::int32_t, std::int64_t> last;
  for (const auto& p : trace) {
    auto it = last.find(p.flow_id);
    if (it != last.end()) {
      EXPECT_GE(p.arrival, it->second);
    }
    last[p.flow_id] = p.arrival;
  }
}

TEST(TraceGenTest, ContainsFlowletGaps) {
  FlowTraceConfig c;
  c.num_packets = 20000;
  c.num_flows = 20;
  auto trace = generate_flow_trace(c);
  // Some per-flow gaps exceed the inter-burst threshold, some don't: both
  // flowlet continuation and re-pinning are exercised.
  std::map<std::int32_t, std::int64_t> last;
  int large = 0, small = 0;
  for (const auto& p : trace) {
    auto it = last.find(p.flow_id);
    if (it != last.end()) {
      ((p.arrival - it->second >= c.inter_burst_gap) ? large : small)++;
    }
    last[p.flow_id] = p.arrival;
  }
  EXPECT_GT(large, 100);
  EXPECT_GT(small, 100);
}

TEST(TraceGenTest, PacketSizesWithinEthernetBounds) {
  FlowTraceConfig c;
  c.num_packets = 2000;
  for (const auto& p : generate_flow_trace(c)) {
    EXPECT_GE(p.size_bytes, 64);
    EXPECT_LE(p.size_bytes, 1500);
  }
}

TEST(ArrivalTraceTest, ArrivalsStrictlyIncrease) {
  ArrivalTraceConfig c;
  c.num_packets = 2000;
  auto trace = generate_arrival_trace(c);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GT(trace[i].arrival, trace[i - 1].arrival);
}

TEST(QueueSimTest, DeparturesAfterArrivals) {
  ArrivalTraceConfig c;
  c.num_packets = 2000;
  auto samples = simulate_queue(generate_arrival_trace(c), {});
  for (const auto& s : samples) {
    EXPECT_GE(s.departure, s.arrival);
    EXPECT_EQ(s.sojourn, s.departure - s.arrival);
    EXPECT_GE(s.qlen_bytes, 0);
  }
}

TEST(QueueSimTest, FifoOrderPreserved) {
  ArrivalTraceConfig c;
  c.num_packets = 2000;
  auto samples = simulate_queue(generate_arrival_trace(c), {});
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i].departure, samples[i - 1].departure);
}

TEST(QueueSimTest, HighLoadBuildsQueue) {
  ArrivalTraceConfig heavy;
  heavy.num_packets = 5000;
  heavy.load = 3.0;  // overloaded
  QueueConfig qc;
  qc.bytes_per_tick = 300;
  auto hs = simulate_queue(generate_arrival_trace(heavy), qc);

  ArrivalTraceConfig light = heavy;
  light.load = 0.2;
  auto ls = simulate_queue(generate_arrival_trace(light), qc);

  double h_delay = 0, l_delay = 0;
  for (const auto& s : hs) h_delay += s.sojourn;
  for (const auto& s : ls) l_delay += s.sojourn;
  EXPECT_GT(h_delay / static_cast<double>(hs.size()),
            5 * l_delay / static_cast<double>(ls.size()));
}

TEST(QueueSimTest, SojournAtLeastServiceTime) {
  ArrivalTraceConfig c;
  c.num_packets = 3000;
  QueueConfig qc;
  qc.bytes_per_tick = 500;
  for (const auto& s : simulate_queue(generate_arrival_trace(c), qc)) {
    const std::int64_t service =
        std::max<std::int64_t>(1, (s.size_bytes + qc.bytes_per_tick - 1) /
                                      qc.bytes_per_tick);
    EXPECT_GE(s.sojourn, service);
  }
}

TEST(QueueSimTest, ByteConservationWithFiniteBuffer) {
  ArrivalTraceConfig c;
  c.num_packets = 5000;
  c.load = 2.5;
  const auto trace = generate_arrival_trace(c);
  QueueConfig qc;
  qc.bytes_per_tick = 200;
  qc.capacity_bytes = 8000;
  ByteQueue q(qc);
  std::int64_t offered = 0, accepted = 0, dropped = 0;
  for (const auto& p : trace) {
    const auto s = q.offer(p.arrival, p.size_bytes);
    offered += p.size_bytes;
    (s.dropped ? dropped : accepted) += p.size_bytes;
  }
  EXPECT_EQ(q.offered_bytes(), offered);
  EXPECT_EQ(q.accepted_bytes(), accepted);
  EXPECT_EQ(q.dropped_bytes(), dropped);
  EXPECT_EQ(q.offered_bytes(), q.accepted_bytes() + q.dropped_bytes());
  EXPECT_EQ(q.offered_pkts(), q.accepted_pkts() + q.dropped_pkts());
  EXPECT_GT(q.dropped_pkts(), 0);
}

TEST(QueueSimTest, DropAccountingUnderOverload) {
  ArrivalTraceConfig c;
  c.num_packets = 5000;
  c.load = 3.0;
  QueueConfig qc;
  qc.bytes_per_tick = 150;
  qc.capacity_bytes = 10000;
  const auto samples = simulate_queue(generate_arrival_trace(c), qc);
  int drops = 0;
  for (const auto& s : samples) {
    if (s.dropped) {
      ++drops;
      // Drop-tail: the packet found a buffer it could not fit into, and was
      // never serviced.
      EXPECT_GT(s.qlen_bytes + s.size_bytes, qc.capacity_bytes);
      EXPECT_EQ(s.departure, s.arrival);
      EXPECT_EQ(s.sojourn, 0);
    } else {
      EXPECT_LE(s.qlen_bytes + s.size_bytes, qc.capacity_bytes);
    }
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, static_cast<int>(samples.size()));  // some still accepted
}

TEST(QueueSimTest, AcceptedDeparturesMonotoneWithDrops) {
  ArrivalTraceConfig c;
  c.num_packets = 4000;
  c.load = 2.0;
  QueueConfig qc;
  qc.bytes_per_tick = 250;
  qc.capacity_bytes = 12000;
  const auto samples = simulate_queue(generate_arrival_trace(c), qc);
  std::int64_t last = -1;
  for (const auto& s : samples) {
    if (s.dropped) continue;
    EXPECT_GE(s.departure, last);
    last = s.departure;
  }
}

TEST(QueueSimTest, EcnMarksExactlyAtThreshold) {
  ArrivalTraceConfig c;
  c.num_packets = 5000;
  c.load = 2.0;
  QueueConfig qc;
  qc.bytes_per_tick = 250;
  qc.ecn_threshold_bytes = 4000;
  const auto samples = simulate_queue(generate_arrival_trace(c), qc);
  int marks = 0;
  for (const auto& s : samples) {
    EXPECT_EQ(s.ecn_marked, s.qlen_bytes >= qc.ecn_threshold_bytes);
    marks += s.ecn_marked;
  }
  EXPECT_GT(marks, 0);
  EXPECT_LT(marks, static_cast<int>(samples.size()));
}

TEST(QueueSimTest, Int64TicksSurviveLateAndLongTraces) {
  // Regression for the seed's int32 narrowing: departures past 2^31 ticks
  // and sojourns past 2^31 must come back intact.
  std::vector<TracePacket> late;
  const std::int64_t base = std::int64_t{3'000'000'000};  // > INT32_MAX
  for (int i = 0; i < 100; ++i) {
    TracePacket p;
    p.arrival = base + i;
    p.size_bytes = 1500;
    late.push_back(p);
  }
  QueueConfig qc;
  qc.bytes_per_tick = 1000;
  for (const auto& s : simulate_queue(late, qc)) {
    EXPECT_GE(s.departure, base);
    EXPECT_GE(s.sojourn, 0);
    EXPECT_EQ(s.sojourn, s.departure - s.arrival);
  }

  // All-at-once burst of jumbo transfers: the last packet's sojourn alone
  // exceeds int32 (the seed's int32 sojourn wrapped negative here).
  std::vector<TracePacket> burst;
  for (int i = 0; i < 3; ++i) {
    TracePacket p;
    p.arrival = 0;
    p.size_bytes = 1'000'000'000;
    burst.push_back(p);
  }
  QueueConfig slow;
  slow.bytes_per_tick = 1;  // 1e9 ticks of service per packet
  const auto samples = simulate_queue(burst, slow);
  EXPECT_GT(samples.back().sojourn, std::int64_t{INT32_MAX});
  EXPECT_EQ(samples.back().departure, std::int64_t{1'000'000'000} * 3);
}

}  // namespace
}  // namespace netsim
