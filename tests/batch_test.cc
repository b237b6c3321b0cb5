// Differential proof for the batched throughput engine: BatchSim's
// stage-major execution is observationally identical to the cycle-accurate
// PipelineSim and to sequential Machine::process — every egress field of
// every packet and the full final StateStore — on every mappable algorithm in
// the corpus, across batch sizes including ones that straddle the trace
// length.
#include <gtest/gtest.h>

#include "banzai/batch.h"
#include "test_util.h"

namespace {

using algorithms::AlgorithmInfo;
using banzai::Packet;

std::vector<Packet> make_workload(const AlgorithmInfo& alg,
                                  const banzai::Machine& machine,
                                  int num_packets, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Packet> trace;
  trace.reserve(static_cast<std::size_t>(num_packets));
  for (int i = 0; i < num_packets; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng, i, fields);
    Packet pkt(machine.fields().size());
    for (const auto& [k, v] : fields)
      if (machine.fields().try_id_of(k).has_value())
        pkt.set(machine.fields().id_of(k), v);
    trace.push_back(std::move(pkt));
  }
  return trace;
}

struct BatchCase {
  std::string algorithm;
  std::size_t batch_size;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceTest, BatchMatchesPipelineAndSequential) {
  const auto& tc = GetParam();
  const AlgorithmInfo& alg = algorithms::algorithm(tc.algorithm);
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);

  // Three independent replicas of the compiled machine, one per engine.
  const banzai::StateStore pristine_state = compiled.machine().state();
  banzai::Machine seq_machine = compiled.machine().clone();
  banzai::Machine pipe_machine = compiled.machine().clone();
  banzai::Machine batch_machine = compiled.machine().clone();

  const int kPackets = 1500;
  const auto trace = make_workload(alg, compiled.machine(), kPackets, 77u);

  std::vector<Packet> seq_out;
  seq_out.reserve(trace.size());
  for (const Packet& p : trace) seq_out.push_back(seq_machine.process(p));

  banzai::PipelineSim pipe(pipe_machine);
  for (const Packet& p : trace) pipe.enqueue(p);
  pipe.drain();

  banzai::BatchSim batch(batch_machine, tc.batch_size);
  std::vector<Packet> batch_in = trace;
  batch.enqueue(std::move(batch_in));
  batch.run();

  ASSERT_EQ(pipe.egress().size(), trace.size());
  const std::vector<Packet> batch_out = batch.take_egress();
  ASSERT_EQ(batch_out.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(batch_out[i], seq_out[i]) << "packet " << i;
    ASSERT_EQ(batch_out[i], pipe.egress()[i]) << "packet " << i;
  }
  EXPECT_EQ(batch_machine.state(), seq_machine.state());
  EXPECT_EQ(batch_machine.state(), pipe_machine.state());
  // Replicas have independent StateStores: running all three engines must
  // leave the prototype machine's state untouched.
  EXPECT_EQ(compiled.machine().state(), pristine_state);
}

std::vector<BatchCase> all_cases() {
  std::vector<BatchCase> cases;
  for (const auto& alg : algorithms::corpus()) {
    if (alg.paper_least_atom == "Doesn't map") continue;
    // 1 = degenerate batches; 64 = interior; 377 leaves a ragged tail batch.
    for (std::size_t bs : {std::size_t{1}, std::size_t{64}, std::size_t{377}})
      cases.push_back({alg.name, bs});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BatchEquivalenceTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      return info.param.algorithm + "_bs" +
             std::to_string(info.param.batch_size);
    });

TEST(BatchSimTest, StatsCountBatchesAndPackets) {
  const AlgorithmInfo& alg = algorithms::algorithm("flowlets");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);

  banzai::BatchSim sim(compiled.machine(), 100);
  const auto trace = make_workload(alg, compiled.machine(), 250, 3u);
  for (const Packet& p : trace) sim.enqueue(p);
  sim.run();
  EXPECT_EQ(sim.stats().packets, 250u);
  EXPECT_EQ(sim.stats().batches, 3u);  // 100 + 100 + 50
  EXPECT_EQ(sim.egress().size(), 250u);
}

TEST(BatchSimTest, EnqueueMovesWholeTracesAndAppends) {
  const AlgorithmInfo& alg = algorithms::algorithm("rcp");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);
  const auto trace = make_workload(alg, compiled.machine(), 30, 5u);

  // Reference: one machine fed sequentially.
  banzai::Machine seq = compiled.machine().clone();
  std::vector<Packet> want;
  for (const Packet& p : trace) want.push_back(seq.process(p));

  // Move-append in three chunks: a stolen vector, then two appends (the
  // reserve+move path), preserving arrival order across chunk boundaries.
  banzai::Machine m = compiled.machine().clone();
  banzai::BatchSim sim(m, 8);
  std::vector<Packet> c1(trace.begin(), trace.begin() + 10);
  std::vector<Packet> c2(trace.begin() + 10, trace.begin() + 20);
  sim.enqueue(std::move(c1));
  sim.enqueue(std::move(c2));
  for (std::size_t i = 20; i < trace.size(); ++i) sim.enqueue(trace[i]);
  sim.run();

  const std::vector<Packet> got = sim.take_egress();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "packet " << i;
  // take_egress leaves the queue empty; a second take yields nothing.
  EXPECT_TRUE(sim.egress().empty());
  EXPECT_TRUE(sim.take_egress().empty());
  EXPECT_EQ(m.state(), seq.state());
}

TEST(BatchSimTest, SnapshotRestoreMidStream) {
  // The reshard cycle of FleetService, exercised through BatchSim: drain a
  // third, snapshot, keep draining, restore, drain the rest — must match a
  // sequential machine driven identically.
  const AlgorithmInfo& alg = algorithms::algorithm("flowlets");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);
  const auto trace = make_workload(alg, compiled.machine(), 600, 41u);
  const std::size_t a = 200, b = 400;

  banzai::Machine ref = compiled.machine().clone();
  banzai::Machine m = compiled.machine().clone();
  banzai::BatchSim sim(m, 64);

  std::vector<Packet> want, got;
  banzai::StateStore ref_snap, snap;
  auto drain = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) want.push_back(ref.process(trace[i]));
    sim.enqueue(std::vector<Packet>(trace.begin() + from, trace.begin() + to));
    sim.run();
    for (Packet& p : sim.take_egress()) got.push_back(std::move(p));
  };
  drain(0, a);
  ref_snap = ref.snapshot_state();
  snap = m.snapshot_state();
  drain(a, b);
  ref.restore_state(ref_snap);
  m.restore_state(snap);
  drain(b, trace.size());

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "packet " << i;
  EXPECT_EQ(m.state(), ref.state());
}

TEST(BatchSimTest, ZeroBatchSizeIsClampedToOne) {
  const AlgorithmInfo& alg = algorithms::algorithm("rcp");
  auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  domino::CompileResult compiled = domino::compile(alg.source, *target);
  banzai::BatchSim sim(compiled.machine(), 0);
  EXPECT_EQ(sim.batch_size(), 1u);
}

}  // namespace
