// Simulator throughput microbenchmarks (google-benchmark).
//
// These numbers characterize the Banzai *simulation substrate* on the host
// CPU, not switch hardware: the paper's line-rate claim is architectural
// (one packet per clock at 1 GHz, by construction of the machine model);
// what we measure here is how fast the differential tests and example
// applications can drive compiled pipelines.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "banzai/batch.h"
#include "banzai/sim.h"
#include "core/compiler.h"
#include "core/interp.h"

namespace {

domino::CompileResult compile_alg(const std::string& name,
                                  const std::string& target) {
  // Request the native engine so the machine carries both paths; the
  // set_engine call in each benchmark picks the one under test.  Falls back
  // (kernel only) when the host has no toolchain.
  domino::CompileOptions opts;
  opts.engine = banzai::ExecEngine::kNative;
  return domino::compile(algorithms::algorithm(name).source,
                         *atoms::find_target(target), opts);
}

std::vector<banzai::Packet> make_workload(
    const algorithms::AlgorithmInfo& alg, const banzai::FieldTable& fields,
    int n) {
  std::mt19937 rng(99);
  std::vector<banzai::Packet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    banzai::Packet p(fields.size());
    for (const auto& [k, v] : f)
      if (fields.try_id_of(k).has_value()) p.set(fields.id_of(k), v);
    out.push_back(std::move(p));
  }
  return out;
}

void BM_PipelineSim(benchmark::State& state, const std::string& name,
                    const std::string& target) {
  auto compiled = compile_alg(name, target);
  auto& machine = compiled.machine();
  auto workload = make_workload(algorithms::algorithm(name),
                                machine.fields(), 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    banzai::PipelineSim sim(machine);
    sim.enqueue(workload[i % workload.size()]);
    sim.tick();
    benchmark::DoNotOptimize(machine.state());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MachineProcess(benchmark::State& state, const std::string& name,
                       const std::string& target, banzai::ExecEngine engine) {
  auto compiled = compile_alg(name, target);
  auto& machine = compiled.machine();
  machine.set_engine(engine);
  auto workload = make_workload(algorithms::algorithm(name),
                                machine.fields(), 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.process(workload[i % workload.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BatchSim(benchmark::State& state, const std::string& name,
                 const std::string& target, banzai::ExecEngine engine) {
  auto compiled = compile_alg(name, target);
  auto& machine = compiled.machine();
  machine.set_engine(engine);
  auto workload = make_workload(algorithms::algorithm(name),
                                machine.fields(), 4096);
  banzai::BatchSim sim(machine, 256);
  for (auto _ : state) {
    // The workload deep-copy and egress teardown are identical for every
    // engine; keep them out of the timed region so the reported ratio
    // measures only the engines themselves.
    state.PauseTiming();
    sim.enqueue(workload);
    sim.take_egress();
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(sim.egress());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workload.size()));
}

void BM_Interpreter(benchmark::State& state, const std::string& name) {
  const auto& alg = algorithms::algorithm(name);
  domino::Program prog = domino::parse_and_check(alg.source);
  domino::Interpreter interp(prog);
  auto workload = make_workload(alg, interp.fields(), 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    banzai::Packet p = workload[i % workload.size()];
    interp.run(p);
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Compile(benchmark::State& state, const std::string& name,
                const std::string& target) {
  const auto& alg = algorithms::algorithm(name);
  const auto t = *atoms::find_target(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(domino::compile(alg.source, t));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Engine pairs on the same compiled machines: the fused micro-op kernel
  // VM (banzai/kernel.h) and the AOT-compiled native function
  // (banzai/native.h).  Acceptance bar: native >= kernel, median
  // packets/sec — measured numbers are recorded in EXPERIMENTS.md.
  struct EngineCase {
    const char* label;
    banzai::ExecEngine engine;
  };
  std::vector<EngineCase> engines = {
      {"kernel", banzai::ExecEngine::kKernel},
  };
  {
    // Native rows only when the host toolchain can build the pipelines —
    // otherwise a kNative machine silently degrades to the kernel VM and
    // the row would mislabel kernel numbers.
    auto probe = compile_alg("flowlets", "banzai-praw");
    if (probe.machine().native() != nullptr)
      engines.push_back({"native", banzai::ExecEngine::kNative});
    else
      std::fprintf(stderr, "note: native engine unavailable (%s); skipping "
                           "native rows\n",
                   probe.machine().native_fallback_reason().c_str());
  }
  for (const char* name : {"flowlets", "heavy_hitters", "conga", "stfq"}) {
    const std::string target =
        std::string(name) == "conga" ? "banzai-pairs" : "banzai-nested";
    for (const EngineCase& ec : engines) {
      benchmark::RegisterBenchmark(
          (std::string("BM_MachineProcess/") + name + "/" + ec.label).c_str(),
          [name, target, ec](benchmark::State& s) {
            BM_MachineProcess(s, name, target, ec.engine);
          });
      benchmark::RegisterBenchmark(
          (std::string("BM_BatchSim/") + name + "/" + ec.label).c_str(),
          [name, target, ec](benchmark::State& s) {
            BM_BatchSim(s, name, target, ec.engine);
          });
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_Interpreter/") + name).c_str(),
        [name](benchmark::State& s) { BM_Interpreter(s, name); });
  }
  benchmark::RegisterBenchmark(
      "BM_PipelineSim/flowlets",
      [](benchmark::State& s) { BM_PipelineSim(s, "flowlets", "banzai-praw"); });
  benchmark::RegisterBenchmark("BM_Compile/flowlets",
                               [](benchmark::State& s) {
                                 BM_Compile(s, "flowlets", "banzai-praw");
                               });
  benchmark::RegisterBenchmark("BM_Compile/conga",
                               [](benchmark::State& s) {
                                 BM_Compile(s, "conga", "banzai-pairs");
                               });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
