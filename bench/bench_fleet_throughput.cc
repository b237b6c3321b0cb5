// Throughput of the sharded batch-execution engine on the paper's worked
// example (flowlet switching, Figure 3a): aggregate packets/sec vs shard
// count, against the per-packet sequential engine and the cycle-accurate
// PipelineSim as baselines.
//
//   $ ./build/bench/bench_fleet_throughput [num_packets]
//
// The acceptance bar: >= 2x aggregate packets/sec at 4 shards vs 1 shard
// (worker threads draining independent replicas; on a single hardware thread
// the batching gain itself carries the comparison against the baselines).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/fleet.h"
#include "banzai/sim.h"
#include "bench_util.h"
#include "core/compiler.h"
#include "sim/tracegen.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<banzai::Packet> flowlet_packets(
    const banzai::Machine& machine,
    const std::vector<netsim::TracePacket>& trace) {
  const auto& ft = machine.fields();
  const auto f_sport = ft.id_of("sport");
  const auto f_dport = ft.id_of("dport");
  const auto f_arrival = ft.id_of("arrival");
  std::vector<banzai::Packet> pkts;
  pkts.reserve(trace.size());
  for (const auto& tp : trace) {
    banzai::Packet p(ft.size());
    p.set(f_sport, 1000 + tp.flow_id);
    p.set(f_dport, 80);
    p.set(f_arrival, static_cast<banzai::Value>(tp.arrival));
    pkts.push_back(std::move(p));
  }
  return pkts;
}

}  // namespace

int main(int argc, char** argv) {
  long requested = 400000;
  if (argc > 1) {
    requested = std::atol(argv[1]);
    if (requested <= 0) {
      std::fprintf(stderr, "usage: %s [num_packets > 0]\n", argv[0]);
      return 2;
    }
  }
  const std::size_t num_packets = static_cast<std::size_t>(requested);

  const auto& alg = algorithms::algorithm("flowlets");
  auto target = *atoms::find_target("banzai-praw");
  // Request both engines; machines fall back to kernel rows when the host
  // has no toolchain for the native path.
  domino::CompileOptions copts;
  copts.engine = banzai::ExecEngine::kNative;
  domino::CompileResult compiled = domino::compile(alg.source, target, copts);
  const bool have_native = compiled.machine().native() != nullptr;
  if (!have_native)
    std::fprintf(stderr, "note: native engine unavailable (%s); skipping "
                         "native rows\n",
                 compiled.machine().native_fallback_reason().c_str());

  netsim::FlowTraceConfig cfg;
  cfg.num_packets = num_packets;
  cfg.num_flows = 1000;
  cfg.zipf_skew = 1.1;
  cfg.seed = 42;
  const auto trace =
      flowlet_packets(compiled.machine(), netsim::generate_flow_trace(cfg));

  bench_util::header(
      "Fleet throughput — flowlet switching, " +
      std::to_string(trace.size()) + " packets, Zipf(1.1) over " +
      std::to_string(cfg.num_flows) + " flows (" +
      std::to_string(std::thread::hardware_concurrency()) + " hw threads)");

  const std::vector<int> widths = {28, 12, 14, 10};
  bench_util::print_rule(widths);
  bench_util::print_row(widths,
                        {"engine", "shards", "pkts/sec", "speedup"});
  bench_util::print_rule(widths);

  // Baseline 1: sequential per-packet engine — the fused micro-op kernel
  // (the speedup baseline), and the AOT native function on the same
  // machine.
  double seq_pps = 0, native_seq_pps = 0;
  {
    banzai::Machine m = compiled.machine().clone();
    m.set_engine(banzai::ExecEngine::kKernel);
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& p : trace) m.process(p);
    seq_pps = static_cast<double>(trace.size()) / seconds_since(t0);
    bench_util::print_row(widths, {"Machine::process [kernel]", "-",
                                   bench_util::fmt(seq_pps, 0), "1.00"});
  }
  if (have_native) {
    banzai::Machine m = compiled.machine().clone();
    m.set_engine(banzai::ExecEngine::kNative);
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& p : trace) m.process(p);
    native_seq_pps = static_cast<double>(trace.size()) / seconds_since(t0);
    bench_util::print_row(widths, {"Machine::process [native]", "-",
                                   bench_util::fmt(native_seq_pps, 0),
                                   bench_util::fmt(native_seq_pps / seq_pps, 2)});
  }

  // Baseline 2: cycle-accurate pipeline simulation.
  {
    banzai::Machine m = compiled.machine().clone();
    banzai::PipelineSim sim(m);
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& p : trace) sim.enqueue(p);
    sim.drain();
    const double pps = static_cast<double>(trace.size()) / seconds_since(t0);
    bench_util::print_row(widths,
                          {"PipelineSim (cycle-acc)", "-",
                           bench_util::fmt(pps, 0),
                           bench_util::fmt(pps / seq_pps, 2)});
  }

  // The engine under test: batched shards on worker threads — fused kernel
  // and AOT native on identical fleets.
  double one_shard_pps = 0, four_shard_pps = 0;
  struct EngineCase {
    const char* label;
    banzai::ExecEngine engine;
  };
  std::vector<EngineCase> engines = {
      {"Fleet [kernel]", banzai::ExecEngine::kKernel},
  };
  if (have_native)
    engines.push_back({"Fleet [native]", banzai::ExecEngine::kNative});
  for (const EngineCase& ec : engines) {
    banzai::Machine proto = compiled.machine().clone();
    proto.set_engine(ec.engine);
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{8}}) {
      banzai::FleetConfig fleet_cfg;
      fleet_cfg.num_shards = shards;
      fleet_cfg.batch_size = 256;
      fleet_cfg.parallel = true;
      fleet_cfg.flow_key = {proto.fields().id_of("sport"),
                            proto.fields().id_of("dport")};
      banzai::Fleet fleet(proto, fleet_cfg);
      auto t0 = std::chrono::steady_clock::now();
      banzai::FleetResult result = fleet.run(trace);
      const double pps =
          static_cast<double>(result.packets) / seconds_since(t0);
      if (ec.engine == banzai::ExecEngine::kKernel) {
        if (shards == 1) one_shard_pps = pps;
        if (shards == 4) four_shard_pps = pps;
      }
      bench_util::print_row(widths,
                            {ec.label, std::to_string(shards),
                             bench_util::fmt(pps, 0),
                             bench_util::fmt(pps / seq_pps, 2)});
    }
  }
  bench_util::print_rule(widths);

  std::printf("\n");
  if (have_native)
    std::printf("native vs kernel, sequential per-packet: %.2fx\n",
                native_seq_pps / seq_pps);
  std::printf("4-shard vs 1-shard aggregate (kernel): %.2fx\n",
              four_shard_pps / one_shard_pps);
  // Engine-matched ratio: kernel fleet over kernel sequential, so this
  // isolates the batching/partitioning effect from the engine speedup.
  std::printf("1-shard batched vs sequential per-packet (both kernel): %.2fx\n",
              one_shard_pps / seq_pps);
  return 0;
}
