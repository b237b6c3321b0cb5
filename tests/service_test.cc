// Differential proof for the streaming FleetService: for every mappable
// corpus algorithm × shard counts {1,2,4,8} × burst patterns (steady,
// Zipf-hot-flow, single-flow flood), the flushed service egress, merged to
// arrival order, is bit-identical to sequential Machine::process — one
// pristine sequential replica per state slot, fed the same packets in the
// same order (and literally one single machine when the service runs with
// one slot, or when no flows alias in state).  Also pins the lifecycle
// contracts: stop/start persistence, flush on an empty service, DropTail
// drop accounting (delivered + dropped == ingested), and the
// snapshot → reshard → restore cycle.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "banzai/service.h"
#include "sim/partition.h"
#include "test_util.h"
#include "wire/codec.h"

namespace {

using algorithms::AlgorithmInfo;
using banzai::Backpressure;
using banzai::FieldId;
using banzai::FleetService;
using banzai::Packet;
using banzai::ServiceConfig;

enum class Burst { kSteady, kZipfHot, kSingleFlow };

const char* burst_name(Burst b) {
  switch (b) {
    case Burst::kSteady: return "steady";
    case Burst::kZipfHot: return "zipf_hot";
    case Burst::kSingleFlow: return "single_flow_flood";
  }
  return "?";
}

// The algorithm's seeded workload with the flow-key field re-shaped by the
// burst pattern, so the trace exercises the slot/shard routing the way the
// pattern dictates.  The reference sees the identical packets, so re-shaping
// never weakens the differential.
std::vector<Packet> make_trace(const AlgorithmInfo& alg,
                               const banzai::Machine& machine,
                               FieldId flow_field, Burst burst,
                               int num_packets, unsigned seed) {
  std::mt19937 rng(seed);
  std::mt19937 flow_rng(seed ^ 0x9e3779b9u);
  std::uniform_int_distribution<int> hot_coin(0, 9);
  std::uniform_int_distribution<int> cold(1, 15);
  std::vector<Packet> trace;
  trace.reserve(static_cast<std::size_t>(num_packets));
  for (int i = 0; i < num_packets; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng, i, fields);
    Packet pkt(machine.fields().size());
    for (const auto& [k, v] : fields)
      if (machine.fields().try_id_of(k).has_value())
        pkt.set(machine.fields().id_of(k), v);
    int flow = 0;
    switch (burst) {
      case Burst::kSteady: flow = i % 16; break;
      case Burst::kZipfHot:
        flow = hot_coin(flow_rng) < 7 ? 0 : cold(flow_rng);
        break;
      case Burst::kSingleFlow: flow = 0; break;
    }
    pkt.set(flow_field, 1000 + flow);
    trace.push_back(std::move(pkt));
  }
  return trace;
}

// The sequential reference at slot granularity: one pristine Machine::process
// replica per slot, fed each packet in arrival order.  The slot mapping is an
// independent re-derivation of ShardCore's (pinned by partition_test), so the
// service cannot agree with the reference by sharing a buggy hash path.
struct SlotReference {
  std::vector<banzai::Machine> slots;
  std::vector<FieldId> key;

  SlotReference(const banzai::Machine& prototype, std::size_t num_slots,
                std::vector<FieldId> flow_key)
      : key(std::move(flow_key)) {
    slots.reserve(num_slots);
    for (std::size_t v = 0; v < num_slots; ++v)
      slots.push_back(prototype.clone());
  }

  std::size_t slot_of(const Packet& pkt) const {
    if (slots.size() <= 1) return 0;
    std::uint64_t h = 0;
    for (FieldId f : key)
      h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(pkt.get(f))));
    return static_cast<std::size_t>(h % slots.size());
  }

  Packet process(const Packet& pkt) { return slots[slot_of(pkt)].process(pkt); }

  std::vector<Packet> process_all(const std::vector<Packet>& trace) {
    std::vector<Packet> out;
    out.reserve(trace.size());
    for (const Packet& p : trace) out.push_back(process(p));
    return out;
  }
};

struct CompiledAlg {
  domino::CompileResult compiled;
  FieldId flow_field;

  explicit CompiledAlg(const std::string& name)
      : compiled(domino::compile(
            algorithms::algorithm(name).source,
            *test_util::least_target(algorithms::algorithm(name).source))),
        flow_field(compiled.machine().fields().id_of(
            algorithms::algorithm(name).input_fields[0])) {}

  const banzai::Machine& machine() { return compiled.machine(); }

  ServiceConfig service_config(std::size_t shards, std::size_t slots) const {
    ServiceConfig cfg;
    cfg.num_shards = shards;
    cfg.num_slots = slots;
    cfg.batch_size = 64;
    cfg.ring_capacity = 256;
    cfg.backpressure = Backpressure::kBlock;
    cfg.flow_key = {flow_field};
    return cfg;
  }
};

class ServiceDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServiceDifferentialTest, EgressBitIdenticalToSequentialReference) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  CompiledAlg ca(alg.name);
  const std::size_t kSlots = 8;

  unsigned seed = 100;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    for (Burst burst :
         {Burst::kSteady, Burst::kZipfHot, Burst::kSingleFlow}) {
      SCOPED_TRACE(std::string(burst_name(burst)) + ", " +
                   std::to_string(shards) + " shards");
      const auto trace =
          make_trace(alg, ca.machine(), ca.flow_field, burst, 800, ++seed);
      SlotReference ref(ca.machine(), kSlots, {ca.flow_field});
      const auto expected = ref.process_all(trace);

      FleetService svc(ca.machine(), ca.service_config(shards, kSlots));
      svc.start();
      ASSERT_EQ(svc.ingest_all(trace), trace.size());
      svc.flush();
      const auto egress = svc.drain_egress();
      svc.stop();

      ASSERT_EQ(egress.size(), expected.size());
      for (std::size_t i = 0; i < egress.size(); ++i)
        ASSERT_EQ(egress[i], expected[i]) << "packet " << i;
      for (std::size_t v = 0; v < kSlots; ++v)
        EXPECT_EQ(svc.slot_machine(v).state(), ref.slots[v].state())
            << "slot " << v;

      const auto st = svc.stats();
      EXPECT_EQ(st.ingested, trace.size());
      EXPECT_EQ(st.delivered, trace.size());
      EXPECT_EQ(st.dropped, 0u);
      EXPECT_EQ(st.queue_depth.size(), shards);
      EXPECT_GT(st.avg_latency_ticks, 0.0);
    }
  }
}

// The literal single-machine form of the acceptance criterion: with one slot
// there is exactly one StateStore, and the service must reproduce sequential
// Machine::process on the full trace bit for bit.
TEST_P(ServiceDifferentialTest, SingleSlotServiceMatchesOneSequentialMachine) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  CompiledAlg ca(alg.name);

  const auto trace =
      make_trace(alg, ca.machine(), ca.flow_field, Burst::kZipfHot, 1000, 7u);
  banzai::Machine single = ca.machine().clone();
  std::vector<Packet> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.process(p));

  FleetService svc(ca.machine(), ca.service_config(1, 1));
  svc.start();
  ASSERT_EQ(svc.ingest_all(trace), trace.size());
  svc.flush();
  const auto egress = svc.drain_egress();
  svc.stop();

  ASSERT_EQ(egress.size(), expected.size());
  for (std::size_t i = 0; i < egress.size(); ++i)
    ASSERT_EQ(egress[i], expected[i]) << "packet " << i;
  EXPECT_EQ(svc.slot_machine(0).state(), single.state());
}

// Acceptance criterion, elastic form: a service drained, snapshotted,
// resharded to a different worker count, restored and resumed must stay
// bit-identical to the sequential reference across the whole stream.
TEST_P(ServiceDifferentialTest, ReshardCyclePreservesEquivalence) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  CompiledAlg ca(alg.name);
  const std::size_t kSlots = 8;

  struct Move { std::size_t from, to; };
  unsigned seed = 900;
  for (Move mv : {Move{1, 4}, Move{4, 2}, Move{2, 8}}) {
    SCOPED_TRACE(std::to_string(mv.from) + " -> " + std::to_string(mv.to) +
                 " shards");
    const auto trace = make_trace(alg, ca.machine(), ca.flow_field,
                                  Burst::kZipfHot, 1200, ++seed);
    SlotReference ref(ca.machine(), kSlots, {ca.flow_field});
    const auto expected = ref.process_all(trace);
    const std::size_t half = trace.size() / 2;

    FleetService before(ca.machine(), ca.service_config(mv.from, kSlots));
    before.start();
    for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(before.ingest(trace[i]));
    before.stop();  // stop() drains: all accepted packets processed
    auto egress = before.drain_egress();
    const auto snap = before.snapshot();

    FleetService after(ca.machine(), ca.service_config(mv.to, kSlots));
    after.restore(snap);
    after.start();
    for (std::size_t i = half; i < trace.size(); ++i)
      ASSERT_TRUE(after.ingest(trace[i]));
    after.flush();
    const auto tail = after.drain_egress();
    after.stop();

    egress.insert(egress.end(), tail.begin(), tail.end());
    ASSERT_EQ(egress.size(), expected.size());
    for (std::size_t i = 0; i < egress.size(); ++i)
      ASSERT_EQ(egress[i], expected[i]) << "packet " << i;
    for (std::size_t v = 0; v < kSlots; ++v)
      EXPECT_EQ(after.slot_machine(v).state(), ref.slots[v].state())
          << "slot " << v;
  }
}

std::vector<std::string> mappable_corpus() {
  std::vector<std::string> names;
  for (const auto& alg : algorithms::corpus())
    if (alg.paper_least_atom != "Doesn't map") names.push_back(alg.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ServiceDifferentialTest,
                         ::testing::ValuesIn(mappable_corpus()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Lifecycle and loss contracts (flowlets as the worked example).
// ---------------------------------------------------------------------------

TEST(ServiceLifecycleTest, StopStartPersistsStateLikeOneContinuousRun) {
  CompiledAlg ca("flowlets");
  const auto& alg = algorithms::algorithm("flowlets");
  const auto trace =
      make_trace(alg, ca.machine(), ca.flow_field, Burst::kSteady, 1000, 21u);
  const std::size_t half = trace.size() / 2;

  FleetService split(ca.machine(), ca.service_config(4, 8));
  split.start();
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(split.ingest(trace[i]));
  split.stop();
  split.start();  // the switch comes back up; per-flow state survives
  for (std::size_t i = half; i < trace.size(); ++i)
    ASSERT_TRUE(split.ingest(trace[i]));
  split.stop();

  FleetService continuous(ca.machine(), ca.service_config(4, 8));
  continuous.start();
  ASSERT_EQ(continuous.ingest_all(trace), trace.size());
  continuous.stop();

  ASSERT_EQ(split.drain_egress(), continuous.drain_egress());
  for (std::size_t v = 0; v < 8; ++v)
    EXPECT_EQ(split.slot_machine(v).state(), continuous.slot_machine(v).state())
        << "slot " << v;
}

TEST(ServiceLifecycleTest, FlushOnEmptyServiceReturnsImmediately) {
  CompiledAlg ca("flowlets");
  FleetService svc(ca.machine(), ca.service_config(2, 8));
  svc.start();
  svc.flush();
  svc.flush();  // repeated flush with nothing in flight is a no-op
  EXPECT_TRUE(svc.drain_egress().empty());
  const auto st = svc.stats();
  EXPECT_EQ(st.ingested, 0u);
  EXPECT_EQ(st.delivered, 0u);
  EXPECT_EQ(st.dropped, 0u);
  svc.stop();
  // A stopped, fully drained service may also flush (nothing outstanding).
  svc.flush();
}

TEST(ServiceLifecycleTest, IngestRequiresRunningService) {
  CompiledAlg ca("flowlets");
  FleetService svc(ca.machine(), ca.service_config(2, 8));
  Packet pkt(ca.machine().fields().size());
  EXPECT_THROW(svc.ingest(pkt), std::logic_error);
  svc.start();
  EXPECT_TRUE(svc.ingest(pkt));
  svc.stop();
  EXPECT_THROW(svc.ingest(pkt), std::logic_error);

  // The byte path refuses a stopped service before it parses, so a refused
  // frame shows in no wire counter: every offered frame stays exactly one
  // of parsed or rejected.
  const auto& ft = ca.machine().fields();
  const wire::WireSpec spec =
      wire::parse_wire_spec(algorithms::algorithm("flowlets").wire_spec);
  auto rx = std::make_shared<const wire::WireCodec>(spec, ft);
  auto tx = std::make_shared<const wire::WireCodec>(
      spec, ft, ca.compiled.output_map());
  FleetService bytes(ca.machine(), ca.service_config(2, 8));
  bytes.set_wire(rx, tx);
  const std::vector<std::uint8_t> frame = rx->deparse(pkt);
  const std::vector<std::uint8_t> runt = {0xD0};
  EXPECT_THROW(bytes.ingest_frame(frame.data(), frame.size()),
               std::logic_error);
  EXPECT_THROW(bytes.ingest_frame(runt.data(), runt.size()),
               std::logic_error);
  banzai::ServiceStats st = bytes.stats();
  EXPECT_EQ(st.wire.frames_parsed, 0u);
  EXPECT_EQ(st.wire.frames_rejected, 0u);
  EXPECT_EQ(st.wire.bytes_in, 0u);
  EXPECT_EQ(st.ingested, 0u);

  bytes.start();
  EXPECT_TRUE(bytes.ingest_frame(frame.data(), frame.size()).accepted);
  bytes.stop();
  EXPECT_THROW(bytes.ingest_frame(frame.data(), frame.size()),
               std::logic_error);
  st = bytes.stats();
  EXPECT_EQ(st.wire.frames_parsed, 1u);
  EXPECT_EQ(st.wire.frames_rejected, 0u);
  EXPECT_EQ(st.wire.bytes_in, frame.size());
  EXPECT_EQ(st.ingested, 1u);
  EXPECT_EQ(bytes.drain_egress_frames().size(), 1u);
}

// Every ring row is exactly as wide as the FieldTable, so a packet of any
// other width is refused on the caller's thread — before it is counted or
// given a sequence number — instead of reaching a shard worker, where the
// engine's width check would throw with nobody to catch it.
TEST(ServiceLifecycleTest, IngestRefusesAPacketOfTheWrongWidth) {
  CompiledAlg ca("flowlets");
  const std::size_t width = ca.machine().fields().size();
  ServiceConfig cfg = ca.service_config(2, 8);
  cfg.flow_key = {0, 1};
  FleetService svc(ca.machine(), cfg);
  svc.start();
  EXPECT_THROW(svc.ingest(Packet(2)), std::invalid_argument);
  EXPECT_THROW(svc.ingest(Packet()), std::invalid_argument);
  EXPECT_THROW(svc.ingest(Packet(width + 1)), std::invalid_argument);
  EXPECT_EQ(svc.stats().ingested, 0u);

  // The service is unharmed: a full-width packet still goes through.
  EXPECT_TRUE(svc.ingest(Packet(width)));
  svc.flush();
  const auto egress = svc.drain_egress();
  svc.stop();
  ASSERT_EQ(egress.size(), 1u);
  EXPECT_EQ(egress[0].num_fields(), width);
  const auto st = svc.stats();
  EXPECT_EQ(st.ingested, 1u);
  EXPECT_EQ(st.delivered, 1u);
}

TEST(ServiceLifecycleTest, SnapshotAndRestoreRequireStoppedService) {
  CompiledAlg ca("flowlets");
  FleetService svc(ca.machine(), ca.service_config(2, 8));
  svc.start();
  EXPECT_THROW(svc.snapshot(), std::logic_error);
  svc.stop();
  const auto snap = svc.snapshot();
  svc.start();
  EXPECT_THROW(svc.restore(snap), std::logic_error);
  svc.stop();
  EXPECT_NO_THROW(svc.restore(snap));

  // Slot count is the migration contract: a snapshot from a different slot
  // count must be rejected, shard count may differ freely.
  FleetService other_slots(ca.machine(), ca.service_config(2, 4));
  EXPECT_THROW(other_slots.restore(snap), std::invalid_argument);
  FleetService other_shards(ca.machine(), ca.service_config(8, 8));
  EXPECT_NO_THROW(other_shards.restore(snap));

  // A rejected restore is a no-op, not a wound: the refusing service still
  // starts and processes as if the bad snapshot never arrived.
  other_slots.start();
  Packet pkt(ca.machine().fields().size());
  EXPECT_TRUE(other_slots.ingest(pkt));
  other_slots.flush();
  EXPECT_EQ(other_slots.drain_egress().size(), 1u);
  EXPECT_EQ(other_slots.stats().delivered, 1u);
  other_slots.stop();

  // Same slot count but a truncated slot_state vector must also reject:
  // shape is (num_slots, per-slot stores), not just the header.
  banzai::ServiceSnapshot truncated = snap;
  truncated.slot_state.pop_back();
  FleetService same_slots(ca.machine(), ca.service_config(2, 8));
  EXPECT_THROW(same_slots.restore(truncated), std::invalid_argument);
}

TEST(ServiceLifecycleTest, ServiceRequiresEnoughSlotsAndAFlowKey) {
  CompiledAlg ca("flowlets");
  ServiceConfig cfg = ca.service_config(4, 2);  // fewer slots than shards
  EXPECT_THROW(FleetService(ca.machine(), cfg), std::invalid_argument);
  cfg = ca.service_config(4, 8);
  cfg.flow_key.clear();
  EXPECT_THROW(FleetService(ca.machine(), cfg), std::invalid_argument);
}

TEST(ServiceBackpressureTest, DropTailAccountsForEveryOfferedPacket) {
  CompiledAlg ca("flowlets");
  const auto& alg = algorithms::algorithm("flowlets");
  // Single-flow flood into a deliberately tiny ring: the first scenario class
  // where the system may lose packets.
  const auto trace = make_trace(alg, ca.machine(), ca.flow_field,
                                Burst::kSingleFlow, 20000, 33u);
  ServiceConfig cfg = ca.service_config(4, 8);
  cfg.ring_capacity = 8;
  cfg.batch_size = 8;
  cfg.backpressure = Backpressure::kDropTail;

  FleetService svc(ca.machine(), cfg);
  svc.start();
  std::vector<Packet> accepted;
  for (const Packet& p : trace)
    if (svc.ingest(p)) accepted.push_back(p);
  svc.flush();
  const auto egress = svc.drain_egress();
  svc.stop();

  const auto st = svc.stats();
  EXPECT_EQ(st.ingested, trace.size());
  EXPECT_EQ(st.delivered + st.dropped, st.ingested);
  EXPECT_EQ(st.delivered, accepted.size());
  // A 20000-packet flood through an 8-slot ring must shed: ingest is orders
  // of magnitude cheaper than pipeline execution.
  EXPECT_GT(st.dropped, 0u);

  // Delivered packets are exactly the accepted ones, processed in order —
  // drops shed load, they never corrupt the survivors.
  SlotReference ref(ca.machine(), 8, {ca.flow_field});
  const auto expected = ref.process_all(accepted);
  ASSERT_EQ(egress.size(), expected.size());
  for (std::size_t i = 0; i < egress.size(); ++i)
    ASSERT_EQ(egress[i], expected[i]) << "packet " << i;
}

// Full-trace equivalence against ONE sequential machine over the whole trace,
// in the style of fleet_test: valid whenever no two flows alias in state, a
// precondition the test asserts rather than assumes.
TEST(ServiceFullTraceTest, MatchesSingleMachineWhenFlowsDoNotAlias) {
  CompiledAlg ca("flowlets");
  const auto& ft = ca.machine().fields();
  const FieldId f_sport = ft.id_of("sport");
  const FieldId f_dport = ft.id_of("dport");
  const FieldId f_arrival = ft.id_of("arrival");
  const auto& out_map = ca.compiled.output_map();
  const FieldId f_id =
      ft.id_of(out_map.count("id") ? out_map.at("id") : "id");

  netsim::FlowTraceConfig tcfg;
  tcfg.num_packets = 5000;
  tcfg.num_flows = 30;
  tcfg.zipf_skew = 1.1;
  tcfg.seed = 5;
  std::vector<Packet> trace;
  for (const auto& tp : netsim::generate_flow_trace(tcfg)) {
    Packet p(ft.size());
    p.set(f_sport, 1000 + tp.flow_id);
    p.set(f_dport, 80);
    p.set(f_arrival, static_cast<banzai::Value>(tp.arrival));
    trace.push_back(std::move(p));
  }

  banzai::Machine single = ca.machine().clone();
  std::vector<Packet> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) expected.push_back(single.process(p));

  // Precondition: distinct flows occupy distinct flowlet-table entries.
  std::map<banzai::Value, std::set<banzai::Value>> id_to_flows;
  for (std::size_t i = 0; i < trace.size(); ++i)
    id_to_flows[expected[i].get(f_id)].insert(trace[i].get(f_sport));
  for (const auto& [id, flows] : id_to_flows)
    ASSERT_EQ(flows.size(), 1u) << "flowlet slot " << id << " is shared";

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ServiceConfig cfg;
    cfg.num_shards = shards;
    cfg.num_slots = 8;
    cfg.batch_size = 128;
    cfg.ring_capacity = 512;
    cfg.flow_key = {f_sport, f_dport};
    FleetService svc(ca.machine(), cfg);
    svc.start();
    ASSERT_EQ(svc.ingest_all(trace), trace.size());
    svc.flush();
    const auto egress = svc.drain_egress();
    svc.stop();
    ASSERT_EQ(egress.size(), expected.size());
    for (std::size_t i = 0; i < egress.size(); ++i)
      ASSERT_EQ(egress[i], expected[i]) << "packet " << i;
  }
}

}  // namespace
