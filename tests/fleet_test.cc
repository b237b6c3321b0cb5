// Differential proof for the sharded Fleet: every shard's egress and final
// StateStore must match a single machine fed the same sub-trace, per-flow
// results must match a single-machine run of the full trace whenever flows do
// not alias in state, and the guarantees must hold on a Zipf-skewed trace
// where one shard runs hot — with worker threads on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "banzai/fleet.h"
#include "sim/partition.h"
#include "sim/tracegen.h"
#include "test_util.h"

namespace {

using banzai::FieldId;
using banzai::Fleet;
using banzai::FleetConfig;
using banzai::FleetResult;
using banzai::Packet;

struct FlowletSetup {
  domino::CompileResult compiled;
  FieldId f_sport, f_dport, f_arrival, f_id, f_next_hop;

  explicit FlowletSetup()
      : compiled(domino::compile(
            algorithms::algorithm("flowlets").source,
            *test_util::least_target(
                algorithms::algorithm("flowlets").source))) {
    const auto& ft = compiled.machine().fields();
    f_sport = ft.id_of("sport");
    f_dport = ft.id_of("dport");
    f_arrival = ft.id_of("arrival");
    // Final values of user fields live in their SSA-renamed machine fields.
    f_id = ft.id_of(final_name("id"));
    f_next_hop = ft.id_of(final_name("next_hop"));
  }

  std::string final_name(const std::string& field) const {
    const auto& m = compiled.output_map();
    return m.count(field) ? m.at(field) : field;
  }

  // Maps a netsim trace onto flowlet packets: the (sport, dport) pair is the
  // flow key the machine hashes into its flowlet tables.
  std::vector<Packet> to_packets(
      const std::vector<netsim::TracePacket>& trace) const {
    std::vector<Packet> pkts;
    pkts.reserve(trace.size());
    for (const auto& tp : trace) {
      Packet p(compiled.machine().fields().size());
      p.set(f_sport, 1000 + tp.flow_id);
      p.set(f_dport, 80);
      p.set(f_arrival, static_cast<banzai::Value>(tp.arrival));
      pkts.push_back(std::move(p));
    }
    return pkts;
  }

  FleetConfig fleet_config(std::size_t shards, bool parallel) const {
    FleetConfig cfg;
    cfg.num_shards = shards;
    cfg.batch_size = 128;
    cfg.parallel = parallel;
    cfg.flow_key = {f_sport, f_dport};
    return cfg;
  }
};

// Every shard must be indistinguishable from a single machine that was fed
// exactly that shard's packets, in arrival order — per-flow state
// consistency, with no caveats.
void expect_shards_match_single_machines(const FlowletSetup& setup,
                                         const std::vector<Packet>& trace,
                                         Fleet& fleet,
                                         const FleetResult& result) {
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const auto& shard = result.shards[s];
    banzai::Machine reference = setup.compiled.machine().clone();
    ASSERT_EQ(shard.egress.size(), shard.source_index.size());
    for (std::size_t i = 0; i < shard.source_index.size(); ++i) {
      Packet expected = reference.process(trace[shard.source_index[i]]);
      ASSERT_EQ(shard.egress[i], expected)
          << "shard " << s << ", packet " << i;
    }
    EXPECT_EQ(fleet.shard_machine(s).state(), reference.state())
        << "shard " << s;
  }
}

TEST(FleetTest, ShardsMatchSingleMachineSubTraces) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 4000;
  cfg.num_flows = 40;
  cfg.zipf_skew = 1.1;
  cfg.seed = 11;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  Fleet fleet(setup.compiled.machine(), setup.fleet_config(4, true));
  FleetResult result = fleet.run(trace);
  EXPECT_EQ(result.packets, trace.size());
  expect_shards_match_single_machines(setup, trace, fleet, result);
}

TEST(FleetTest, MatchesFullTraceSingleMachineWhenFlowsDoNotAlias) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 5000;
  cfg.num_flows = 30;
  cfg.zipf_skew = 1.1;
  cfg.seed = 5;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  // Single machine over the full trace.
  banzai::Machine single = setup.compiled.machine().clone();
  std::vector<Packet> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.process(p));

  // Precondition for full-trace equivalence: distinct flows occupy distinct
  // flowlet-table slots (pkt.id), so no state is shared across shards.  The
  // trace is deterministic; if a new seed introduced a collision this fails
  // loudly instead of comparing apples to oranges.
  std::map<banzai::Value, std::set<banzai::Value>> id_to_flows;
  for (std::size_t i = 0; i < trace.size(); ++i)
    id_to_flows[expected[i].get(setup.f_id)].insert(
        trace[i].get(setup.f_sport));
  for (const auto& [id, flows] : id_to_flows)
    ASSERT_EQ(flows.size(), 1u) << "flowlet slot " << id << " is shared";

  Fleet fleet(setup.compiled.machine(), setup.fleet_config(4, true));
  FleetResult result = fleet.run(trace);
  const auto merged = result.egress_in_order();
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    ASSERT_EQ(merged[i], expected[i]) << "packet " << i;
}

TEST(FleetTest, ZipfSkewedTraceRunsOneShardHotAndStaysConsistent) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 6000;
  cfg.num_flows = 200;
  cfg.zipf_skew = 1.6;  // heavy skew: the top flow dominates
  cfg.seed = 23;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  Fleet fleet(setup.compiled.machine(), setup.fleet_config(4, true));
  FleetResult result = fleet.run(trace);

  std::size_t hottest = 0, coldest = trace.size();
  for (const auto& shard : result.shards) {
    hottest = std::max(hottest, shard.egress.size());
    coldest = std::min(coldest, shard.egress.size());
  }
  // The point of the skewed fixture: load is genuinely imbalanced.
  EXPECT_GE(hottest, 2 * coldest);
  expect_shards_match_single_machines(setup, trace, fleet, result);
}

TEST(FleetTest, ParallelAndSerialExecutionAgree) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 3000;
  cfg.num_flows = 64;
  cfg.seed = 9;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));

  Fleet threaded(setup.compiled.machine(), setup.fleet_config(4, true));
  Fleet serial(setup.compiled.machine(), setup.fleet_config(4, false));
  FleetResult a = threaded.run(trace);
  FleetResult b = serial.run(trace);

  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].egress, b.shards[s].egress) << "shard " << s;
    EXPECT_EQ(threaded.shard_machine(s).state(), serial.shard_machine(s).state())
        << "shard " << s;
  }
}

TEST(FleetTest, StatePersistsAcrossRuns) {
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 1000;
  cfg.num_flows = 16;
  cfg.seed = 3;
  const auto trace = setup.to_packets(netsim::generate_flow_trace(cfg));
  const auto half = trace.size() / 2;
  const std::vector<Packet> first(trace.begin(), trace.begin() + half);
  const std::vector<Packet> second(trace.begin() + half, trace.end());

  Fleet split_runs(setup.compiled.machine(), setup.fleet_config(3, true));
  split_runs.run(first);
  split_runs.run(second);

  Fleet one_run(setup.compiled.machine(), setup.fleet_config(3, true));
  one_run.run(trace);

  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(split_runs.shard_machine(s).state(),
              one_run.shard_machine(s).state())
        << "shard " << s;
}

TEST(FleetTest, NarrowPacketIsRefusedBeforeAnyShardRuns) {
  // A packet narrower than the field table throws on the caller's thread in
  // both modes, before any shard runs: no replica state moves, and a
  // parallel run does not terminate the process from a shard worker thread.
  FlowletSetup setup;
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 400;
  cfg.num_flows = 32;
  cfg.seed = 5;
  const auto good = setup.to_packets(netsim::generate_flow_trace(cfg));
  // Narrow, but still wide enough to carry the flow key it is routed by.
  const std::size_t width = std::max(setup.f_sport, setup.f_dport) + 1;
  ASSERT_LT(width, setup.compiled.machine().fields().size());
  Packet narrow(width);
  narrow.set(setup.f_sport, 1000);
  narrow.set(setup.f_dport, 80);
  std::vector<Packet> bad = good;
  bad.insert(bad.begin() + bad.size() / 2, narrow);

  for (bool parallel : {false, true}) {
    Fleet fleet(setup.compiled.machine(), setup.fleet_config(4, parallel));
    EXPECT_THROW(fleet.run(bad), std::invalid_argument);
    for (std::size_t s = 0; s < fleet.num_shards(); ++s)
      EXPECT_EQ(fleet.shard_machine(s).state(),
                setup.compiled.machine().state())
          << "shard " << s << (parallel ? " parallel" : " serial");
    // The refused run leaves the fleet serving.
    const FleetResult result = fleet.run(good);
    expect_shards_match_single_machines(setup, good, fleet, result);
  }
}

TEST(FleetTest, ShardingRequiresFlowKey) {
  FlowletSetup setup;
  FleetConfig cfg;
  cfg.num_shards = 4;  // no flow_key
  EXPECT_THROW(Fleet(setup.compiled.machine(), cfg), std::invalid_argument);
  cfg.num_shards = 1;  // single shard needs no key
  EXPECT_NO_THROW(Fleet(setup.compiled.machine(), cfg));
}

TEST(PartitionTest, StableAndFlowConsistent) {
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = 2000;
  cfg.num_flows = 50;
  cfg.seed = 7;
  const auto trace = netsim::generate_flow_trace(cfg);
  const auto parts = netsim::partition_by_flow(trace, 4);

  std::size_t total = 0;
  for (std::size_t s = 0; s < parts.num_shards(); ++s) {
    total += parts.shards[s].size();
    // Every packet of a flow lands on the shard its flow hashes to, and
    // original positions are strictly increasing (stable partition).
    for (std::size_t i = 0; i < parts.shards[s].size(); ++i) {
      EXPECT_EQ(netsim::shard_of_key(
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        parts.shards[s][i].flow_id)),
                    4),
                s);
      if (i > 0) {
        EXPECT_LT(parts.source_index[s][i - 1], parts.source_index[s][i]);
      }
    }
  }
  EXPECT_EQ(total, trace.size());
}

}  // namespace
