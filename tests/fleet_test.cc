// Differential proof for the sharded Fleet: every shard's egress and final
// StateStore must match a single machine fed the same sub-trace, per-flow
// results must match a single-machine run of the full trace whenever flows do
// not alias in state, and the guarantees must hold on a Zipf-skewed trace
// where one shard runs hot — with worker threads on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include "banzai/fleet.h"
#include "sim/partition.h"
#include "sim/tracegen.h"
#include "test_util.h"

namespace {

using banzai::ExecEngine;
using banzai::FieldId;
using banzai::Fleet;
using banzai::FleetConfig;
using banzai::FleetResult;
using banzai::Machine;
using banzai::Packet;
using banzai::ShardCore;

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

// ---------------------------------------------------------------------------
// ShardCore runs a chunk of rows from many slots in one engine call, each row
// against its own slot replica's state.  These pin that contract on both
// engines against one sequential Machine::process replica per slot.
// ---------------------------------------------------------------------------

class MixedSlotTest : public ::testing::TestWithParam<ExecEngine> {
 protected:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kBatch = 16;

  void SetUp() override {
    domino::CompileOptions opts;
    opts.engine = ExecEngine::kNative;
    const auto& alg = algorithms::algorithm("flowlets");
    compiled_ = std::make_unique<domino::CompileResult>(domino::compile(
        alg.source, *test_util::least_target(alg.source), opts));
    proto_ = compiled_->machine().clone();
    if (GetParam() == ExecEngine::kNative && proto_.native() == nullptr)
      GTEST_SKIP() << "native engine unavailable on this host.  Reason: "
                   << proto_.native_fallback_reason();
    proto_.set_engine(GetParam());
    const auto& ft = proto_.fields();
    f_sport_ = ft.id_of("sport");
    f_dport_ = ft.id_of("dport");
    f_arrival_ = ft.id_of("arrival");
    core_ = std::make_unique<ShardCore>(proto_, kSlots, 1, kBatch,
                                        std::vector<FieldId>{f_sport_,
                                                             f_dport_});
    for (std::size_t s = 0; s < kSlots; ++s) {
      ref_.push_back(compiled_->machine().clone());
      ref_.back().set_engine(ExecEngine::kKernel);
    }
    // Three flows per slot, found by walking source ports.
    flows_.resize(kSlots);
    std::size_t short_slots = kSlots;
    for (banzai::Value sport = 1000; short_slots > 0; ++sport) {
      auto& f = flows_[core_->slot_of(packet(sport, 0))];
      if (f.size() == 3) continue;
      f.push_back(sport);
      if (f.size() == 3) --short_slots;
    }
  }

  Packet packet(banzai::Value sport, banzai::Value arrival) const {
    Packet p(proto_.fields().size());
    p.set(f_sport_, sport);
    p.set(f_dport_, 80);
    p.set(f_arrival_, arrival);
    return p;
  }

  // Appends a row of `slot`'s flow `flow`, arriving 1-7 ticks after the
  // previous row: gaps on both sides of the flowlet threshold (5), so each
  // row's next_hop depends on its slot's state and its rows' order.
  void add(std::size_t slot, std::size_t flow) {
    now_ += 1 + static_cast<banzai::Value>(rng_() % 7);
    rows_.push_back(packet(flows_[slot][flow], now_));
    slot_ids_.push_back(slot);
  }

  // Drains the rows staged by add() in one ShardCore::drain and checks every
  // field of every row, and every slot's state, against the references.
  void drain_and_check(const std::string& what) {
    SCOPED_TRACE(what);
    std::vector<Packet> rows = std::exchange(rows_, {});
    const std::vector<std::size_t> slot_ids = std::exchange(slot_ids_, {});
    std::vector<Packet> expected;
    for (std::size_t i = 0; i < rows.size(); ++i)
      expected.push_back(ref_[slot_ids[i]].process(rows[i]));
    const std::uint64_t batches = core_->shard_stats(0).batches;
    core_->drain(0, slot_ids.data(), rows.data(), rows.size());
    // One engine call per batch-size chunk, however many slots it spans.
    EXPECT_EQ(core_->shard_stats(0).batches - batches,
              (rows.size() + kBatch - 1) / kBatch);
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(rows[i], expected[i])
          << "row " << i << ", slot " << slot_ids[i];
    for (std::size_t s = 0; s < kSlots; ++s)
      ASSERT_EQ(core_->slot_machine(s).state(), ref_[s].state())
          << "slot " << s;
  }

  void every_row_a_different_slot() {
    for (std::size_t i = 0; i < kSlots; ++i) add(i * 37 % kSlots, i % 3);
  }
  void one_slot_interleaved(std::size_t slot) {
    for (std::size_t i = 0; i < 24; ++i) {
      add(slot, 0);
      add((slot + 1 + i % 5) % kSlots, i % 3);
    }
  }
  void single_slot(std::size_t slot) {
    for (std::size_t i = 0; i < 40; ++i) add(slot, i % 3);
  }

  std::unique_ptr<domino::CompileResult> compiled_;
  Machine proto_;
  FieldId f_sport_ = 0, f_dport_ = 0, f_arrival_ = 0;
  std::unique_ptr<ShardCore> core_;
  std::vector<Machine> ref_;
  std::vector<std::vector<banzai::Value>> flows_;
  std::mt19937 rng_{17};
  banzai::Value now_ = 0;
  std::vector<Packet> rows_;
  std::vector<std::size_t> slot_ids_;
};

TEST_P(MixedSlotTest, EveryBatchShapeMatchesPerSlotSequentialMachines) {
  for (int round = 0; round < 3; ++round) {
    every_row_a_different_slot();
    drain_and_check("every row in a different slot");
    one_slot_interleaved(5);
    drain_and_check("one slot interleaved with others");
    single_slot(12);
    drain_and_check("a single slot");
  }
}

TEST_P(MixedSlotTest, NextDrainReadsARestoredSlotStore) {
  one_slot_interleaved(5);
  drain_and_check("before the restore");
  // Restore a pristine store into slot 5 between two drains: the next
  // drain must run against it, not against bindings of the replaced store.
  const banzai::StateStore pristine = proto_.snapshot_state();
  ASSERT_NE(core_->slot_machine(5).state(), pristine);
  core_->slot_machine(5).restore_state(pristine);
  ref_[5].restore_state(pristine);
  one_slot_interleaved(5);
  drain_and_check("after the restore");
}

TEST_P(MixedSlotTest, RefusesAnOwnerOfAnotherPipeline) {
  // A second compile of the same source is another CompiledPipeline: its
  // rows may not share a call, and nothing runs when one is offered.
  auto other = domino::compile(algorithms::algorithm("flowlets").source,
                               *test_util::least_target(
                                   algorithms::algorithm("flowlets").source));
  Machine& runner = core_->slot_machine(0);
  std::vector<Packet> rows = {packet(flows_[0][0], 9), packet(1000, 9)};
  const std::vector<Packet> before = rows;
  Machine* const owners[] = {&runner, &other.machine()};
  EXPECT_THROW(runner.run_batch(banzai::BatchView::owned_rows(
                   rows.data(), owners, rows.size())),
               std::invalid_argument);
  EXPECT_EQ(rows, before);
  EXPECT_EQ(runner.state(), proto_.state());
  EXPECT_EQ(other.machine().state(), proto_.state());
}

INSTANTIATE_TEST_SUITE_P(Engines, MixedSlotTest,
                         ::testing::Values(ExecEngine::kKernel,
                                           ExecEngine::kNative),
                         [](const auto& info) {
                           return info.param == ExecEngine::kKernel
                                      ? std::string("kernel")
                                      : std::string("native");
                         });

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
