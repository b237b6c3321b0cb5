// dominoc — command-line driver for the Domino compiler.
//
//   dominoc --list                             list corpus programs/targets
//   dominoc <program> [options]                compile a corpus program
//   dominoc <file.domino> [options]            compile a source file
//
// Options:
//   --target <name>     Banzai target (default: least expressive that fits)
//   --artifacts         dump every pass artifact (Figures 5-9 equivalents),
//                       including the lowered micro-op kernel disassembly
//   --emit-p4           print the generated P4-16 program
//   --emit-cc           print the native AOT C++ the kNative engine compiles
//                       and dlopens (core/emit.cc)
//   --dot               print dependency graph + condensed DAG (graphviz)
//   --run <n>           push n seeded workload packets through the machine
//                       (corpus programs only) and print a state summary
//
// Cache maintenance (the native AOT object cache, banzai/native.h):
//   dominoc --native-cache stats           show directory, entry count, bytes
//   dominoc --native-cache clear           remove every cached object/source
//   dominoc --native-cache sweep <bytes>   LRU-evict down to the byte cap
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

#include "algorithms/corpus.h"
#include "banzai/native.h"
#include "banzai/sim.h"
#include "core/compiler.h"
#include "core/emit.h"
#include "core/pipeline.h"
#include "p4/p4gen.h"

namespace {

int usage() {
  std::printf(
      "usage: dominoc --list\n"
      "       dominoc --native-cache {stats|clear|sweep <bytes>}\n"
      "       dominoc <program|file.domino> [--target <name>] [--artifacts]\n"
      "               [--emit-p4] [--emit-cc] [--dot] [--run <n>]\n");
  return 2;
}

int native_cache_cmd(int argc, char** argv) {
  // dominoc --native-cache <verb>, argv[2] onward.  The directory is the
  // resolved default (DOMINO_NATIVE_CACHE or /tmp/domino-native-cache).
  if (argc < 3) return usage();
  const char* verb = argv[2];
  if (std::strcmp(verb, "stats") == 0) {
    const banzai::NativeCacheStats st = banzai::native_cache_stats();
    std::printf("native cache: %s\n", st.dir.c_str());
    std::printf("  objects: %zu\n  sources: %zu\n  bytes:   %llu\n",
                st.objects, st.sources,
                static_cast<unsigned long long>(st.total_bytes));
    return 0;
  }
  if (std::strcmp(verb, "clear") == 0) {
    const std::size_t removed = banzai::native_cache_clear();
    std::printf("removed %zu cached file(s)\n", removed);
    return 0;
  }
  if (std::strcmp(verb, "sweep") == 0) {
    if (argc < 4) return usage();
    char* end = nullptr;
    const unsigned long long cap = std::strtoull(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0') return usage();
    const std::size_t removed = banzai::native_cache_sweep(cap);
    const banzai::NativeCacheStats st = banzai::native_cache_stats();
    std::printf("evicted %zu file(s); cache now %llu byte(s)\n", removed,
                static_cast<unsigned long long>(st.total_bytes));
    return 0;
  }
  return usage();
}

std::optional<std::string> load_source(const std::string& arg,
                                       const algorithms::AlgorithmInfo** alg) {
  *alg = nullptr;
  for (const auto& a : algorithms::corpus()) {
    if (a.name == arg) {
      *alg = &a;
      return a.source;
    }
  }
  // The scheduling corpus: PIFO rank programs (token_bucket, hsched; stfq
  // resolves above as a Table-4 row).
  for (const auto& a : algorithms::rank_corpus()) {
    if (a.name == arg) {
      *alg = &a;
      return a.source;
    }
  }
  std::ifstream in(arg);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  if (std::strcmp(argv[1], "--native-cache") == 0)
    return native_cache_cmd(argc, argv);

  if (std::strcmp(argv[1], "--list") == 0) {
    std::printf("corpus programs:\n");
    for (const auto& a : algorithms::corpus())
      std::printf("  %-18s %s (paper least atom: %s)\n", a.name.c_str(),
                  a.description.c_str(), a.paper_least_atom.c_str());
    std::printf("\nrank programs (PIFO schedulers, docs/SCHEDULING.md):\n");
    for (const auto& a : algorithms::rank_corpus())
      std::printf("  %-18s %s (rank field: %s)\n", a.name.c_str(),
                  a.description.c_str(), a.rank_field.c_str());
    std::printf("\ntargets:\n");
    for (const auto& t : atoms::paper_targets())
      std::printf("  %-18s stateful atom: %s\n", t.name.c_str(),
                  atoms::stateful_kind_name(t.stateful_atom));
    const auto lut = atoms::lut_extended_target();
    std::printf("  %-18s stateful atom: %s (+math unit, extension)\n",
                lut.name.c_str(),
                atoms::stateful_kind_name(lut.stateful_atom));
    return 0;
  }

  const algorithms::AlgorithmInfo* alg = nullptr;
  const auto source = load_source(argv[1], &alg);
  if (!source.has_value()) {
    std::fprintf(stderr, "error: '%s' is neither a corpus program nor a "
                         "readable file\n", argv[1]);
    return 2;
  }

  std::string target_name;
  bool artifacts = false, emit_p4 = false, emit_cc = false, dot = false;
  int run_packets = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--target") == 0 && i + 1 < argc)
      target_name = argv[++i];
    else if (std::strcmp(argv[i], "--artifacts") == 0)
      artifacts = true;
    else if (std::strcmp(argv[i], "--emit-p4") == 0)
      emit_p4 = true;
    else if (std::strcmp(argv[i], "--emit-cc") == 0)
      emit_cc = true;
    else if (std::strcmp(argv[i], "--dot") == 0)
      dot = true;
    else if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc)
      run_packets = std::atoi(argv[++i]);
    else
      return usage();
  }

  // Pick the target: named, or the least expressive one that accepts.
  std::optional<atoms::BanzaiTarget> target;
  std::optional<domino::CompileResult> compiled;
  if (!target_name.empty()) {
    target = atoms::find_target(target_name);
    if (!target.has_value()) {
      std::fprintf(stderr, "error: unknown target '%s'\n",
                   target_name.c_str());
      return 2;
    }
    try {
      compiled = domino::compile(*source, *target);
    } catch (const domino::CompileError& e) {
      std::fprintf(stderr, "rejected by %s: %s\n", target->name.c_str(),
                   e.what());
      return 1;
    }
  } else {
    for (const auto& t : atoms::paper_targets()) {
      try {
        compiled = domino::compile(*source, t);
        target = t;
        break;
      } catch (const domino::CompileError&) {
      }
    }
    if (!compiled.has_value()) {
      std::fprintf(stderr,
                   "rejected by every paper target (try --target "
                   "banzai-pairs-lut or inspect with --artifacts)\n");
      return 1;
    }
  }

  std::printf("%s: compiled for %s — %zu stages, max %zu atoms/stage, "
              "%.1f ms (%.1f ms synthesis)\n",
              compiled->program.transaction.name.c_str(),
              target->name.c_str(), compiled->num_stages(),
              compiled->max_atoms_per_stage(), compiled->seconds * 1e3,
              compiled->codegen.synth_seconds * 1e3);
  std::printf("\n%s", compiled->codegen.fitted.str().c_str());
  for (const auto& rep : compiled->codegen.reports)
    if (rep.stateful)
      std::printf("\nstage %d %s atom: %s", rep.stage, rep.atom.c_str(),
                  rep.config.c_str());
  std::printf("\n");

  if (artifacts) {
    std::printf("\n--- branch removal ---\n%s",
                compiled->normalized.branch_removed.str().c_str());
    std::printf("\n--- state flanks ---\n%s",
                compiled->normalized.flanked.str().c_str());
    std::printf("\n--- SSA ---\n%s", compiled->normalized.ssa.str().c_str());
    std::printf("\n--- three-address code ---\n%s",
                compiled->normalized.tac.str().c_str());
    std::printf("\n--- micro-op kernel ---\n%s",
                compiled->machine().require_kernel().str().c_str());
  }
  if (emit_cc)
    std::printf("\n%s",
                domino::emit_native_cc(compiled->machine().require_kernel())
                    .c_str());
  if (dot) {
    std::printf("\n%s", domino::dep_graph_dot(compiled->normalized.tac).c_str());
    std::printf("\n%s",
                domino::condensed_dag_dot(compiled->normalized.tac).c_str());
  }
  if (emit_p4)
    std::printf("\n%s",
                p4gen::emit_p4(compiled->program, compiled->codegen.fitted)
                    .c_str());

  if (run_packets > 0) {
    if (alg == nullptr) {
      std::fprintf(stderr, "--run needs a corpus program (workload known)\n");
      return 2;
    }
    auto& machine = compiled->machine();
    banzai::PipelineSim sim(machine);
    std::mt19937 rng(1);
    for (int i = 0; i < run_packets; ++i) {
      std::map<std::string, banzai::Value> f;
      alg->workload(rng, i, f);
      banzai::Packet pkt(machine.fields().size());
      for (const auto& [k, v] : f)
        if (machine.fields().try_id_of(k).has_value())
          pkt.set(machine.fields().id_of(k), v);
      sim.enqueue(pkt);
    }
    sim.drain();
    std::printf("\nran %d packets in %llu cycles; state summary:\n",
                run_packets,
                static_cast<unsigned long long>(sim.stats().cycles));
    for (const auto& d : compiled->program.state_vars) {
      const auto& var = machine.state().var(d.name);
      long long sum = 0;
      banzai::Value mx = var.cells()[0];
      for (auto c : var.cells()) {
        sum += c;
        mx = std::max(mx, c);
      }
      std::printf("  %-18s cells=%zu sum=%lld max=%d\n", d.name.c_str(),
                  var.size(), sum, mx);
    }
  }
  return 0;
}
