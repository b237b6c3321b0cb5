// Reproduces §5.3 "Compilation time": compilation is dominated by the
// synthesis search.  For each corpus program it times the compile on the
// least paper target and on banzai-pairs, counts the synthesis candidates
// of the Pairs compile, and names the slowest Pairs compile.  The paper's
// worst case is CoDel's rejection; here CoDel is rejected before any search
// (its codelet uses an operation no stateful atom provides), so the slowest
// compile is one that maps.  Also reproduces the constant-bit-width
// sensitivity: the paper limits SKETCH to 5-bit constants; widening the
// enumerated constant range grows search time.
#include <chrono>
#include <cstdio>

#include "algorithms/corpus.h"
#include "bench_util.h"
#include "core/compiler.h"

namespace {

double time_compile(const std::string& source,
                    const atoms::BanzaiTarget& target,
                    const domino::CompileOptions& opts, bool* accepted) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    domino::compile(source, target, opts);
    *accepted = true;
  } catch (const domino::CompileError&) {
    *accepted = false;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench_util::header(
      "Section 5.3 — compilation time (per algorithm, per target)");

  const std::vector<int> widths = {16, 12, 12, 12, 12};
  bench_util::print_rule(widths);
  bench_util::print_row(widths, {"Algorithm", "least tgt s", "pairs tgt s",
                                 "accepted?", "synth cands"});
  bench_util::print_rule(widths);

  double worst = 0;
  std::string worst_case;
  for (const auto& alg : algorithms::corpus()) {
    domino::CompileOptions opts;
    bool ok_least = false, ok_pairs = false;
    double least_s = 0;
    for (const auto& t : atoms::paper_targets()) {
      least_s = time_compile(alg.source, t, opts, &ok_least);
      if (ok_least) break;
    }
    const auto pairs = *atoms::find_target("banzai-pairs");
    const double pairs_s = time_compile(alg.source, pairs, opts, &ok_pairs);

    std::size_t cands = 0;
    if (ok_pairs) {
      auto r = domino::compile(alg.source, pairs, opts);
      for (const auto& rep : r.codegen.reports)
        cands += rep.synth_stats.candidates_tried;
    }
    if (pairs_s > worst) {
      worst = pairs_s;
      worst_case = alg.name + " on banzai-pairs";
    }
    bench_util::print_row(
        widths, {alg.name, bench_util::fmt(least_s, 4),
                 bench_util::fmt(pairs_s, 4), ok_pairs ? "yes" : "REJECTED",
                 std::to_string(cands)});
  }
  bench_util::print_rule(widths);
  std::printf(
      "\nWorst case: %s at %.3f s.\n"
      "The paper's worst case, 10 s, is CoDel failing to map; here CoDel is\n"
      "rejected before any search, because its codelet uses an operation no\n"
      "stateful atom provides.\n",
      worst_case.c_str(), worst);

  bench_util::header(
      "Constant bit-width sweep (the paper's 5-bit SKETCH restriction)");
  const std::vector<int> w2 = {10, 16, 16, 12};
  bench_util::print_rule(w2);
  bench_util::print_row(w2, {"bits", "compile s", "candidates", "accepted"});
  bench_util::print_rule(w2);
  const auto& netflow = algorithms::algorithm("sampled_netflow");
  const auto target = *atoms::find_target("banzai-ifelseraw");
  for (int bits : {2, 3, 4, 5, 6, 7, 8}) {
    domino::CompileOptions opts;
    opts.synth.seed_constants = false;  // enumerate the full 2^bits range
    opts.synth.const_bits = bits;
    bool ok = false;
    const double s = time_compile(netflow.source, target, opts, &ok);
    std::size_t cands = 0;
    if (ok) {
      auto r = domino::compile(netflow.source, target, opts);
      for (const auto& rep : r.codegen.reports)
        cands += rep.synth_stats.candidates_tried;
    }
    bench_util::print_row(w2, {std::to_string(bits), bench_util::fmt(s, 4),
                               std::to_string(cands), ok ? "yes" : "no"});
  }
  bench_util::print_rule(w2);
  std::printf(
      "\nSearch cost grows with constant width, as §5.3 predicts ('this time\n"
      "will increase if we increase the bit width of constants').\n");
  return 0;
}
