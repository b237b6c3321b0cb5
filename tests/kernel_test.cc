// The semantic contract of the compiled execution paths (banzai/kernel.h,
// banzai/native.h): for every corpus algorithm, the kernel VM agrees with
// the sequential interpreter (core/interp, the ground truth) on every output
// field and every state cell on a full-range fuzz corpus (wrap-around
// arithmetic, division by zero, INT_MIN/-1, hostile array indices), and the
// kNative engine is bit-exact with the kernel VM on every packet field and
// every state cell, across all four runtimes — per-packet Machine::process,
// batched BatchSim, the sharded Fleet/FleetService, and NetFabric-hosted
// nodes — across snapshot/restore between engines, and under mid-stream
// engine flips.  The native engine participates whenever the host toolchain
// can build it (the machines record a fallback reason otherwise); the loader
// itself is covered in tests/native_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/batch.h"
#include "banzai/fleet.h"
#include "banzai/service.h"
#include "banzai/sim.h"
#include "core/compiler.h"
#include "core/interp.h"
#include "sim/netfabric.h"
#include "sim/tracegen.h"

namespace {

using banzai::ExecEngine;
using banzai::Machine;
using banzai::Packet;

const char* engine_name(ExecEngine e) {
  switch (e) {
    case ExecEngine::kKernel: return "kernel";
    case ExecEngine::kNative: return "native";
  }
  return "?";
}

// Compile with the native engine requested: machines carry the sealed kernel
// always, plus the AOT pipeline when the host toolchain exists.
domino::CompileOptions native_options() {
  domino::CompileOptions opts;
  opts.engine = ExecEngine::kNative;
  return opts;
}

// Compiles `source` on the least expressive paper target that accepts it,
// falling back to the LUT-extended target (CoDel), or nullopt.
std::optional<domino::CompileResult> compile_least(const std::string& source) {
  for (const auto& t : atoms::paper_targets()) {
    try {
      return domino::compile(source, t, native_options());
    } catch (const domino::CompileError&) {
    }
  }
  try {
    return domino::compile(source, atoms::lut_extended_target(),
                           native_options());
  } catch (const domino::CompileError&) {
    return std::nullopt;
  }
}

// Every engine this machine can actually execute: the kernel VM always,
// native only when the loader attached a pipeline (no toolchain -> the
// machine records a fallback reason and the differential narrows to one).
std::vector<ExecEngine> engines_of(const Machine& m) {
  std::vector<ExecEngine> v{ExecEngine::kKernel};
  if (m.native() != nullptr) v.push_back(ExecEngine::kNative);
  return v;
}

Machine engine_clone(const Machine& proto, ExecEngine engine) {
  Machine m = proto.clone();
  m.set_engine(engine);
  return m;
}

// The algorithm's seeded workload as machine packets.
std::vector<Packet> workload_packets(const algorithms::AlgorithmInfo& alg,
                                     const banzai::FieldTable& fields, int n,
                                     unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Packet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(fields.size());
    for (const auto& [k, v] : f)
      if (fields.try_id_of(k).has_value()) p.set(fields.id_of(k), v);
    out.push_back(std::move(p));
  }
  return out;
}

// One full-range value: uniform over int32, or (1 time in 8) an
// adversarial extreme.  Exercises wrapping, x/0, INT_MIN/-1, shift masking
// and out-of-range state indices.
banzai::Value full_range_value(std::mt19937& rng) {
  static const banzai::Value extremes[] = {
      0, 1, -1, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()};
  std::uniform_int_distribution<std::int64_t> full(
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max());
  if (rng() % 8 == 0) return extremes[rng() % 5];
  return static_cast<banzai::Value>(full(rng));
}

// Full-range random packets: every machine field (inputs, temporaries)
// drawn by full_range_value, on all engines identically.
std::vector<Packet> fuzz_packets(const banzai::FieldTable& fields, int n,
                                 unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Packet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Packet p(fields.size());
    for (std::size_t f = 0; f < fields.size(); ++f)
      p.set(f, full_range_value(rng));
    out.push_back(std::move(p));
  }
  return out;
}

// Flow-key fields for sharded runs: the algorithm's declared inputs.
std::vector<banzai::FieldId> flow_key_of(const algorithms::AlgorithmInfo& alg,
                                         const banzai::FieldTable& fields) {
  std::vector<banzai::FieldId> key;
  for (const auto& name : alg.input_fields)
    if (auto id = fields.try_id_of(name)) key.push_back(*id);
  return key;
}

void expect_packets_equal(const std::vector<Packet>& a,
                          const std::vector<Packet>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << ": packet " << i;
}

TEST(KernelLoweringTest, EveryCompilableAlgorithmCarriesASealedKernel) {
  int compiled_count = 0;
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    ++compiled_count;
    const Machine& m = compiled->machine();
    ASSERT_NE(m.kernel(), nullptr) << alg.name;
    EXPECT_TRUE(m.kernel()->sealed()) << alg.name;
    // One stage range per fitted stage, one op per codelet.
    EXPECT_EQ(m.num_stages(), compiled->num_stages()) << alg.name;
    EXPECT_EQ(m.num_atoms(), compiled->codegen.reports.size()) << alg.name;
    EXPECT_EQ(m.kernel()->num_fields(), m.fields().size()) << alg.name;
    // compile() honors the requested engine…
    EXPECT_EQ(m.engine(), ExecEngine::kNative) << alg.name;
    // …and either the native pipeline is attached or the reason it is not
    // was recorded (never both, never neither).
    EXPECT_NE(m.native() != nullptr, !m.native_fallback_reason().empty())
        << alg.name << ": " << m.native_fallback_reason();
  }
  // Table 4: everything except CoDel maps to a paper target, and CoDel maps
  // to the LUT extension — the corpus-wide contract below rests on this.
  EXPECT_GE(compiled_count, 10);
}

TEST(KernelLoweringTest, NativeEngineIsAvailableOrSkipsLoudly) {
  auto compiled = compile_least(algorithms::algorithm("flowlets").source);
  ASSERT_TRUE(compiled.has_value());
  const Machine& m = compiled->machine();
  if (m.native() == nullptr)
    GTEST_SKIP() << "native engine unavailable on this host — differentials "
                    "cover the kernel VM only.  Reason: "
                 << m.native_fallback_reason();
  EXPECT_NE(m.active_native(), nullptr);
  EXPECT_EQ(m.native()->num_fields(), m.fields().size());
  EXPECT_EQ(m.native()->num_state_vars(), m.kernel()->num_state_vars());
}

TEST(KernelLoweringTest, DisassemblyNamesEveryOpAndStateVar) {
  auto compiled = compile_least(algorithms::algorithm("flowlets").source);
  ASSERT_TRUE(compiled.has_value());
  const auto* kernel = compiled->machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string text = kernel->str();
  for (std::size_t si = 0; si < kernel->num_stages(); ++si)
    EXPECT_NE(text.find("stage " + std::to_string(si)), std::string::npos);
  for (const auto& name : kernel->state_names())
    EXPECT_NE(text.find(name), std::string::npos) << name;
  // One line per op, addressed by index.
  EXPECT_NE(text.find("[" + std::to_string(kernel->num_ops() - 1) + "]"),
            std::string::npos);
}

TEST(KernelDifferentialTest, KernelMatchesInterpreterOnFullRangeInputs) {
  // The ground truth is sequential execution of the packet transaction
  // (§3.1).  Every declared field is drawn from the full int32 range, so
  // wrap-around, x/0, INT_MIN/-1 and hostile array indices all reach the
  // compiled program; each engine must reproduce the interpreter's final
  // value of every declared field (through output_map()) and its state.
  int checked = 0;
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    ++checked;
    const auto& decl = compiled->program.packet_fields;
    const banzai::FieldTable& ft = compiled->machine().fields();
    std::vector<banzai::FieldId> in_ids, out_ids;
    for (const auto& f : decl) {
      in_ids.push_back(ft.id_of(f.name));
      const auto it = compiled->output_map().find(f.name);
      out_ids.push_back(
          ft.id_of(it != compiled->output_map().end() ? it->second : f.name));
    }

    std::mt19937 rng(99);
    std::vector<std::vector<banzai::Value>> inputs(2500);
    for (auto& row : inputs)
      for (std::size_t f = 0; f < decl.size(); ++f)
        row.push_back(full_range_value(rng));

    domino::Interpreter interp(compiled->program);
    std::vector<std::vector<banzai::Value>> expected;
    for (const auto& row : inputs) {
      Packet p = interp.make_packet();
      for (std::size_t f = 0; f < decl.size(); ++f)
        interp.set(p, decl[f].name, row[f]);
      interp.run(p);
      std::vector<banzai::Value> out;
      for (const auto& f : decl) out.push_back(interp.get(p, f.name));
      expected.push_back(std::move(out));
    }

    for (ExecEngine engine : engines_of(compiled->machine())) {
      Machine m = engine_clone(compiled->machine(), engine);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        Packet p(ft.size());
        for (std::size_t f = 0; f < decl.size(); ++f)
          p.set(in_ids[f], inputs[i][f]);
        p = m.process(std::move(p));
        for (std::size_t f = 0; f < decl.size(); ++f)
          ASSERT_EQ(p.get(out_ids[f]), expected[i][f])
              << alg.name << " [" << engine_name(engine) << "]: packet " << i
              << " field " << decl[f].name;
      }
      EXPECT_TRUE(m.state() == interp.state())
          << alg.name << " [" << engine_name(engine) << "]";
    }
  }
  EXPECT_GE(checked, 11);
}

TEST(KernelDifferentialTest, PerPacketCorpusWorkloads) {
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    const auto trace =
        workload_packets(alg, compiled->machine().fields(), 4000, 7);
    for (ExecEngine engine : engines_of(compiled->machine())) {
      if (engine == ExecEngine::kKernel) continue;
      Machine ref = engine_clone(compiled->machine(), ExecEngine::kKernel);
      Machine under = engine_clone(compiled->machine(), engine);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const Packet a = ref.process(trace[i]);
        const Packet b = under.process(trace[i]);
        ASSERT_EQ(a, b) << alg.name << " [" << engine_name(engine)
                        << "]: packet " << i;
      }
      EXPECT_TRUE(ref.state() == under.state())
          << alg.name << " [" << engine_name(engine) << "]";
    }
  }
}

TEST(KernelDifferentialTest, PerPacketFuzzCorpus) {
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    const auto trace = fuzz_packets(compiled->machine().fields(), 2500, 99);
    for (ExecEngine engine : engines_of(compiled->machine())) {
      if (engine == ExecEngine::kKernel) continue;
      Machine ref = engine_clone(compiled->machine(), ExecEngine::kKernel);
      Machine under = engine_clone(compiled->machine(), engine);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const Packet a = ref.process(trace[i]);
        const Packet b = under.process(trace[i]);
        ASSERT_EQ(a, b) << alg.name << " [" << engine_name(engine)
                        << "]: fuzz packet " << i;
      }
      EXPECT_TRUE(ref.state() == under.state())
          << alg.name << " [" << engine_name(engine) << "]";
    }
  }
}

TEST(KernelDifferentialTest, BatchedAcrossBatchSizes) {
  // Reference: the kernel VM one packet at a time.  Every engine and batch
  // size must reproduce it bit for bit.
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    const auto trace =
        workload_packets(alg, compiled->machine().fields(), 3000, 11);
    Machine ref = engine_clone(compiled->machine(), ExecEngine::kKernel);
    std::vector<Packet> ref_out;
    for (const Packet& p : trace) ref_out.push_back(ref.process(p));
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{256}}) {
      for (ExecEngine engine : engines_of(compiled->machine())) {
        const std::string tag = alg.name + " [" + engine_name(engine) +
                                "] batch=" + std::to_string(batch);
        Machine under = engine_clone(compiled->machine(), engine);
        banzai::BatchSim sim(under, batch);
        sim.enqueue(trace);
        sim.run();
        expect_packets_equal(ref_out, sim.egress(), tag);
        EXPECT_TRUE(ref.state() == under.state()) << tag;
      }
    }
  }
}

TEST(KernelDifferentialTest, ShardedFleet) {
  for (const auto& alg : algorithms::corpus()) {
    auto compiled = compile_least(alg.source);
    if (!compiled.has_value()) continue;
    const auto key = flow_key_of(alg, compiled->machine().fields());
    if (key.empty()) continue;
    const auto trace =
        workload_packets(alg, compiled->machine().fields(), 3000, 13);
    for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      banzai::FleetConfig cfg;
      cfg.num_shards = shards;
      cfg.batch_size = 64;
      cfg.parallel = true;
      cfg.flow_key = key;
      banzai::Fleet ref(engine_clone(compiled->machine(), ExecEngine::kKernel),
                        cfg);
      const auto ra = ref.run(trace).egress_in_order();
      for (ExecEngine engine : engines_of(compiled->machine())) {
        if (engine == ExecEngine::kKernel) continue;
        banzai::Fleet under(engine_clone(compiled->machine(), engine), cfg);
        const auto rb = under.run(trace).egress_in_order();
        expect_packets_equal(ra, rb,
                             alg.name + " [" + engine_name(engine) +
                                 "] shards=" + std::to_string(shards));
        for (std::size_t s = 0; s < shards; ++s)
          EXPECT_TRUE(ref.shard_machine(s).state() ==
                      under.shard_machine(s).state())
              << alg.name << " [" << engine_name(engine) << "] shard " << s;
      }
    }
  }
}

TEST(KernelDifferentialTest, StreamingFleetService) {
  // The always-on runtime: same ShardCore, live ingest threads.  Egress is
  // released in global arrival order, so all engines must deliver identical
  // packet sequences and identical per-slot state.
  for (const char* name : {"flowlets", "heavy_hitters", "stfq"}) {
    const auto& alg = algorithms::algorithm(name);
    auto compiled = compile_least(alg.source);
    ASSERT_TRUE(compiled.has_value()) << name;
    const auto key = flow_key_of(alg, compiled->machine().fields());
    ASSERT_FALSE(key.empty()) << name;
    const auto trace =
        workload_packets(alg, compiled->machine().fields(), 2000, 17);

    banzai::ServiceConfig cfg;
    cfg.num_shards = 2;
    cfg.num_slots = 4;
    cfg.batch_size = 64;
    cfg.backpressure = banzai::Backpressure::kBlock;
    cfg.flow_key = key;

    const auto engines = engines_of(compiled->machine());
    std::vector<std::vector<Packet>> egress(engines.size());
    std::vector<banzai::ServiceSnapshot> snaps(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      banzai::FleetService svc(engine_clone(compiled->machine(), engines[e]),
                               cfg);
      svc.start();
      svc.ingest_all(trace);
      svc.stop();
      egress[e] = svc.drain_egress();
      snaps[e] = svc.snapshot();
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      expect_packets_equal(egress[0], egress[e],
                           std::string(name) + " service [" +
                               engine_name(engines[e]) + "]");
      ASSERT_EQ(snaps[0].slot_state.size(), snaps[e].slot_state.size());
      for (std::size_t s = 0; s < snaps[0].slot_state.size(); ++s)
        EXPECT_TRUE(snaps[0].slot_state[s] == snaps[e].slot_state[s])
            << name << " [" << engine_name(engines[e]) << "] slot " << s;
    }
  }
}

TEST(KernelDifferentialTest, FabricHostedNodes) {
  // NetFabric runs hosted machines through Machine::process (and ShardCore
  // for multi-pipeline nodes); a native-engined ingress must yield the same
  // deliveries, paths, marks and final state as the kernel VM.
  netsim::FlowTraceConfig tc;
  tc.num_packets = 3000;
  tc.num_flows = 40;
  tc.zipf_skew = 1.1;
  tc.seed = 21;
  auto trace = netsim::generate_flow_trace(tc);
  netsim::sort_by_arrival(trace);

  for (const char* name : {"flowlets", "conga"}) {
    auto compiled = compile_least(algorithms::algorithm(name).source);
    ASSERT_TRUE(compiled.has_value()) << name;
    const auto binding = netsim::FieldBinding::resolve(
        compiled->machine().fields(), compiled->output_map());

    netsim::NetFabricConfig fc;
    fc.num_leaves = 2;
    fc.num_spines = 2;
    fc.port.bytes_per_tick = 900;

    auto run_fabric = [&](ExecEngine engine) {
      auto fabric = std::make_unique<netsim::NetFabric>(fc);
      for (int leaf = 0; leaf < fc.num_leaves; ++leaf)
        fabric->host_ingress(leaf, engine_clone(compiled->machine(), engine),
                             binding);
      for (const auto& tp : trace) {
        const auto ends =
            netsim::flow_endpoints(tp.flow_id, fc.num_leaves, /*salt=*/5);
        fabric->inject(tp, ends.first, ends.second);
      }
      fabric->run();
      return fabric;
    };

    auto ref = run_fabric(ExecEngine::kKernel);
    for (ExecEngine engine : engines_of(compiled->machine())) {
      if (engine == ExecEngine::kKernel) continue;
      auto under = run_fabric(engine);
      ASSERT_EQ(ref->delivered().size(), under->delivered().size())
          << name << " [" << engine_name(engine) << "]";
      for (std::size_t i = 0; i < ref->delivered().size(); ++i) {
        const auto& da = ref->delivered()[i];
        const auto& db = under->delivered()[i];
        ASSERT_EQ(da.path, db.path)
            << name << " [" << engine_name(engine) << "]: packet " << i;
        ASSERT_EQ(da.delivered_tick, db.delivered_tick)
            << name << " [" << engine_name(engine) << "]: " << i;
        ASSERT_EQ(da.ingress_mark, db.ingress_mark)
            << name << " [" << engine_name(engine) << "]: " << i;
        ASSERT_EQ(da.ingress_view, db.ingress_view)
            << name << " [" << engine_name(engine) << "]: " << i;
      }
      EXPECT_EQ(ref->stats().dropped, under->stats().dropped)
          << name << " [" << engine_name(engine) << "]";
      for (int leaf = 0; leaf < fc.num_leaves; ++leaf)
        EXPECT_TRUE(ref->ingress_machine(leaf)->state() ==
                    under->ingress_machine(leaf)->state())
            << name << " [" << engine_name(engine) << "] leaf " << leaf;
    }
  }
}

TEST(KernelDifferentialTest, SnapshotRestoreMigratesAcrossEngines) {
  // State checkpointed on one engine must resume bit-exactly on any other,
  // in every direction — the representation of persistent state is shared,
  // and restore_state() must invalidate the binding cache (a stale pointer
  // into the replaced map would read freed memory; ASan watches this path).
  for (const char* name : {"flowlets", "heavy_hitters", "conga"}) {
    const auto& alg = algorithms::algorithm(name);
    auto compiled = compile_least(alg.source);
    ASSERT_TRUE(compiled.has_value()) << name;
    const auto engines = engines_of(compiled->machine());
    if (engines.size() < 2)
      GTEST_SKIP() << "needs two engines; the native engine is unavailable "
                      "on this host.  Reason: "
                   << compiled->machine().native_fallback_reason();
    const auto trace =
        workload_packets(alg, compiled->machine().fields(), 2000, 29);
    const std::size_t half = trace.size() / 2;

    // Reference: the whole trace on the kernel VM.
    Machine ref = engine_clone(compiled->machine(), ExecEngine::kKernel);
    std::vector<Packet> ref_out;
    for (const auto& p : trace) ref_out.push_back(ref.process(p));

    for (ExecEngine first : engines) {
      for (ExecEngine second : engines) {
        if (first == second) continue;
        Machine m1 = engine_clone(compiled->machine(), first);
        std::vector<Packet> out;
        for (std::size_t i = 0; i < half; ++i)
          out.push_back(m1.process(trace[i]));
        Machine m2 = engine_clone(compiled->machine(), second);
        m2.restore_state(m1.snapshot_state());
        for (std::size_t i = half; i < trace.size(); ++i)
          out.push_back(m2.process(trace[i]));
        const std::string what = std::string(name) + " " +
                                 engine_name(first) + "->" +
                                 engine_name(second);
        expect_packets_equal(out, ref_out, what);
        EXPECT_TRUE(m2.state() == ref.state()) << what;
      }
    }
  }
}

TEST(KernelDifferentialTest, EngineFlipMidStreamIsSeamless) {
  // All paths read and write the same FieldTable ids and StateStore, so
  // rotating the engine between packets must be invisible.
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled = compile_least(alg.source);
  ASSERT_TRUE(compiled.has_value());
  const auto trace =
      workload_packets(alg, compiled->machine().fields(), 3000, 31);

  const auto engines = engines_of(compiled->machine());
  if (engines.size() < 2)
    GTEST_SKIP() << "needs two engines; the native engine is unavailable on "
                    "this host.  Reason: "
                 << compiled->machine().native_fallback_reason();
  Machine ref = engine_clone(compiled->machine(), ExecEngine::kKernel);
  Machine flip = engine_clone(compiled->machine(), engines.back());
  std::mt19937 rng(5);
  std::size_t which = engines.size() - 1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (rng() % 64 == 0) {
      which = (which + 1 + rng() % (engines.size() - 1)) % engines.size();
      flip.set_engine(engines[which]);
    }
    ASSERT_EQ(ref.process(trace[i]), flip.process(trace[i])) << "packet " << i;
  }
  EXPECT_TRUE(ref.state() == flip.state());
}

TEST(EngineContractTest, ActiveEngineReportsTheResolvedLadderRung) {
  // active_engine() replaces the old run_compiled_batch bool protocol: the
  // requested engine is a wish, active_engine() is the rung the dispatch
  // will actually execute on, observable before any packet moves.
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled = compile_least(alg.source);
  ASSERT_TRUE(compiled.has_value());

  Machine m = compiled->machine().clone();
  ASSERT_NE(m.kernel(), nullptr);
  m.set_engine(ExecEngine::kKernel);
  EXPECT_EQ(m.active_engine(), ExecEngine::kKernel);
  // A kNative request resolves to the native rung only when the loader
  // attached a pipeline; otherwise it degrades to the kernel VM, and the
  // machine says so instead of failing at run time.
  m.set_engine(ExecEngine::kNative);
  if (m.native() != nullptr) {
    EXPECT_EQ(m.active_engine(), ExecEngine::kNative);
  } else {
    EXPECT_EQ(m.active_engine(), ExecEngine::kKernel);
    EXPECT_FALSE(m.native_fallback_reason().empty());
  }

  // A machine with no compiled pipeline has nothing to execute: every entry
  // point refuses it instead of passing packets through untouched.
  Machine bare;
  EXPECT_EQ(bare.engine(), ExecEngine::kKernel) << "the default engine";
  EXPECT_EQ(bare.num_stages(), 0u);
  for (ExecEngine engine : {ExecEngine::kKernel, ExecEngine::kNative}) {
    bare.set_engine(engine);
    EXPECT_EQ(bare.active_kernel(), nullptr);
    EXPECT_EQ(bare.active_native(), nullptr);
    EXPECT_THROW(bare.process(Packet(1)), std::logic_error);
    Packet row(1);
    EXPECT_THROW(bare.run_batch(banzai::BatchView::rows(&row, 1)),
                 std::logic_error);
  }
  EXPECT_THROW(banzai::PipelineSim sim(bare), std::logic_error);

  // The engine values are dist wire bytes (HELLO ack, SwapEngine, SwapAck).
  EXPECT_EQ(static_cast<int>(ExecEngine::kKernel), 1);
  EXPECT_EQ(static_cast<int>(ExecEngine::kNative), 2);
}

TEST(KernelDifferentialTest, RestoreMidStreamRebindsStateCleanly) {
  // The binding-cache variant of a reshard cycle: process on cached
  // bindings, snapshot, keep processing, restore the snapshot (replacing
  // the StateStore's map wholesale), keep processing.  Every engine must
  // match the same program driven through the same sequence with no cache
  // at all: CompiledPipeline::run resolves state by name on every call.
  const auto& alg = algorithms::algorithm("heavy_hitters");
  auto compiled = compile_least(alg.source);
  ASSERT_TRUE(compiled.has_value());
  const auto trace =
      workload_packets(alg, compiled->machine().fields(), 3000, 37);
  const std::size_t a = trace.size() / 3, b = 2 * trace.size() / 3;
  const banzai::CompiledPipeline& program =
      compiled->machine().require_kernel();

  for (ExecEngine engine : engines_of(compiled->machine())) {
    banzai::StateStore ref_state = compiled->machine().state();
    Machine under = engine_clone(compiled->machine(), engine);
    std::vector<Packet> ref_out, out;
    banzai::StateStore ref_snap, snap;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i == a) {
        ref_snap = ref_state.snapshot();
        snap = under.snapshot_state();
      }
      if (i == b) {
        ref_state.restore(ref_snap);
        under.restore_state(snap);
      }
      Packet p = trace[i];
      program.run(p, ref_state);
      ref_out.push_back(std::move(p));
      out.push_back(under.process(trace[i]));
    }
    expect_packets_equal(ref_out, out,
                         std::string("restore mid-stream [") +
                             engine_name(engine) + "]");
    EXPECT_TRUE(ref_state == under.state()) << engine_name(engine);
  }
}

TEST(KernelGuardTest, RunBeforeSealAndNarrowPacketsAreRejected) {
  banzai::CompiledPipeline pipe;
  pipe.begin_stage();
  pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1));
  banzai::StateStore store;
  Packet p(1);
  EXPECT_THROW(pipe.run(p, store), std::logic_error);
  pipe.seal(4);
  Packet narrow(2);  // program addresses 4 fields
  EXPECT_THROW(pipe.run(narrow, store), std::invalid_argument);
}

TEST(KernelGuardTest, AddingAnOpBeforeTheFirstStageThrows) {
  banzai::CompiledPipeline pipe;
  EXPECT_THROW(pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1)),
               std::logic_error);
}

TEST(KernelGuardTest, SealRejectsFieldIdsBeyondTheProgramWidth) {
  banzai::CompiledPipeline pipe;
  pipe.begin_stage();
  pipe.add_alu(banzai::KOp::kMov, 3, banzai::KSrc::field_ref(1));
  EXPECT_THROW(pipe.seal(2), std::logic_error) << "dst 3 >= 2 fields";
}

TEST(KernelGuardTest, SealRejectsSharedStateOwnership) {
  // §2.3 state locality: a state variable owned by two ops would have its
  // update sequence reordered by op-major batching — seal must refuse.
  banzai::CompiledPipeline pipe;
  pipe.begin_stage();
  banzai::StatefulOp a;
  a.num_states = 1;
  a.slots[0].var = pipe.intern_state("x");
  pipe.add_stateful(a, {{0, 0, true}});
  pipe.begin_stage();
  banzai::StatefulOp b = a;
  pipe.add_stateful(b, {{1, 0, true}});
  EXPECT_THROW(pipe.seal(2), std::logic_error);
}

TEST(KernelGuardTest, SealRejectsIntraStageHazards) {
  // Two ops of one stage writing the same field…
  {
    banzai::CompiledPipeline pipe;
    pipe.begin_stage();
    pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1));
    pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(2));
    EXPECT_THROW(pipe.seal(1), std::logic_error);
  }
  // …and a later op reading an earlier op's output within one stage are both
  // violations of the stage-parallel contract the lowering depends on.
  {
    banzai::CompiledPipeline pipe;
    pipe.begin_stage();
    pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1));
    pipe.add_alu(banzai::KOp::kMov, 1, banzai::KSrc::field_ref(0));
    EXPECT_THROW(pipe.seal(2), std::logic_error);
  }
  // The same two ops in different stages are plain dataflow.
  {
    banzai::CompiledPipeline pipe;
    pipe.begin_stage();
    pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1));
    pipe.begin_stage();
    pipe.add_alu(banzai::KOp::kMov, 1, banzai::KSrc::field_ref(0));
    pipe.seal(2);
    banzai::StateStore store;
    Packet p(2);
    pipe.run(p, store);
    EXPECT_EQ(p.get(0), 1);
    EXPECT_EQ(p.get(1), 1);
  }
}

TEST(StateGenerationTest, MutationsAndCopiesRetireTheGeneration) {
  banzai::StateStore s;
  const auto g0 = s.generation();
  s.declare("x", 4, /*scalar=*/false);
  const auto g1 = s.generation();
  EXPECT_NE(g0, g1) << "declare must retire cached bindings";

  banzai::StateStore copy = s;  // fresh map nodes -> fresh generation
  EXPECT_NE(copy.generation(), g1);
  EXPECT_TRUE(copy == s) << "generation is identity, not content";

  const banzai::StateStore snap = s.snapshot();
  s.var("x").store(0, 42);
  EXPECT_EQ(s.generation(), g1)
      << "cell writes keep pointers valid and must not rebind";
  s.restore(snap);
  EXPECT_NE(s.generation(), g1) << "restore replaces the map wholesale";
  EXPECT_EQ(s.var("x").load(0), 0);
}

}  // namespace
