// Ablation: why pipelining must condense strongly connected components
// (§4.2, design choice called out in DESIGN.md).
//
// If the compiler ignored the state pair edges and scheduled a state read
// and its write into different stages, packets in flight between those
// stages would read stale state — lost updates, broken transactional
// semantics.  We show that CompiledPipeline::seal refuses such a "split
// counter" outright, count the updates it would lose with a delay-line model
// of the pipeline, then show how many corpus algorithms would be
// mis-scheduled by a pair-edge-free dependency graph.
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "algorithms/corpus.h"
#include "banzai/kernel.h"
#include "bench_util.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/pipeline.h"
#include "core/sema.h"

namespace {

// The dependency graph WITHOUT the state pair edges: read-after-write only.
domino::DepGraph graph_without_pair_edges(const domino::TacProgram& tac) {
  domino::DepGraph g;
  g.edges.assign(tac.stmts.size(), {});
  std::map<std::string, int> def_of;
  for (std::size_t i = 0; i < tac.stmts.size(); ++i)
    if (auto w = tac.stmts[i].field_written())
      def_of[*w] = static_cast<int>(i);
  for (std::size_t i = 0; i < tac.stmts.size(); ++i)
    for (const auto& f : tac.stmts[i].fields_read())
      if (auto it = def_of.find(f); it != def_of.end())
        g.edges[static_cast<std::size_t>(it->second)].push_back(
            static_cast<int>(i));
  return g;
}

// The split counter c = c + 1, read in stage 1 and written back in stage 3:
// two stateful ops owning `c`.  Returns seal()'s refusal, or "" if it sealed.
std::string seal_split_counter() {
  banzai::CompiledPipeline pipe;
  const std::uint32_t f_old = 0;
  banzai::StatefulOp reader;  // pkt.old = c
  reader.num_states = 1;
  reader.slots[0].var = pipe.intern_state("c");
  banzai::StatefulOp writer = reader;  // c = pkt.old + 1
  writer.arms[0][0].mode = banzai::KArm::kSetAdd;
  writer.arms[0][0].src1 = banzai::KRef::field_ref(f_old);
  writer.arms[0][0].src2 = banzai::KRef::constant(1);
  pipe.begin_stage();
  pipe.add_stateful(reader, {{f_old, 0, false}});
  pipe.begin_stage();
  pipe.begin_stage();
  pipe.add_stateful(writer, {});
  try {
    pipe.seal(1);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

// The same split counter on a pipeline with one packet per cycle: packet i
// reads c as it enters stage 1 at cycle i and writes its read + 1 back from
// stage 3 at cycle i + 2.  Within a cycle the later stage acts first, so the
// write of packet i - 2 lands before the read of packet i.  Returns the
// final counter after n packets.
int split_counter(int n) {
  int c = 0;
  int read[2] = {0, 0};  // delay line: the reads of the two packets in flight
  for (int t = 0; t < n + 2; ++t) {
    if (t >= 2) c = read[t % 2] + 1;  // packet t - 2 writes back
    if (t < n) read[t % 2] = c;       // packet t reads
  }
  return c;
}

}  // namespace

int main() {
  bench_util::header(
      "Ablation — SCC condensation (state pair edges) vs naive scheduling");

  // 1. Quantitative demonstration: counter split across stages 1 and 3.
  {
    const std::string refusal = seal_split_counter();
    std::printf(
        "split counter (read in stage 1, increment written in stage 3):\n"
        "  seal(): %s\n",
        refusal.empty() ? "UNEXPECTED: sealed" : refusal.c_str());
    const int n = 10000;
    const int final_count = split_counter(n);
    std::printf(
        "  delay-line model: %d packets -> counter = %d (sequential "
        "semantics require %d)\n"
        "  lost updates: %d (%.1f%%) — exactly the §2.3 atomicity violation\n\n",
        n, final_count, n, n - final_count,
        100.0 * (n - final_count) / n);
    if (refusal.empty()) return 1;
    if (final_count == n) {
      std::printf("UNEXPECTED: no updates lost\n");
      return 1;
    }
  }

  // 2. How much of the corpus a pair-edge-free schedule would mis-compile.
  const std::vector<int> widths = {16, 16, 16, 20};
  bench_util::print_rule(widths);
  bench_util::print_row(widths, {"Algorithm", "SCCs (with)", "SCCs (without)",
                                 "state split stages?"});
  bench_util::print_rule(widths);
  int broken = 0, stateful_algs = 0;
  for (const auto& alg : algorithms::corpus()) {
    domino::Program p = domino::parse(alg.source);
    domino::analyze(p);
    auto tac = domino::normalize(p).tac;

    auto with = domino::strongly_connected_components(
        domino::build_dep_graph(tac));
    auto without = domino::strongly_connected_components(
        graph_without_pair_edges(tac));

    // Does any state variable's read and write end up in different SCCs
    // without pair edges?
    bool split = false;
    std::map<std::string, std::set<std::size_t>> comp_of_var;
    for (std::size_t k = 0; k < without.size(); ++k)
      for (int v : without[k]) {
        const auto& s = tac.stmts[static_cast<std::size_t>(v)];
        if (s.touches_state()) comp_of_var[s.state_var].insert(k);
      }
    for (const auto& [var, comps] : comp_of_var)
      if (comps.size() > 1) split = true;
    if (!comp_of_var.empty()) ++stateful_algs;
    if (split) ++broken;

    bench_util::print_row(widths, {alg.name, std::to_string(with.size()),
                                   std::to_string(without.size()),
                                   split ? "YES (broken)" : "no"});
  }
  bench_util::print_rule(widths);
  std::printf(
      "\n%d of %d stateful algorithms would have state split across stages\n"
      "without pair edges; SCC condensation is what keeps every state\n"
      "variable inside a single atom.\n",
      broken, stateful_algs);
  return broken > 0 ? 0 : 1;
}
