#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/normalize.h"
#include "core/parser.h"
#include "core/sema.h"
#include "algorithms/corpus.h"

namespace domino {
namespace {

TacProgram tac_of(const std::string& src) {
  Program p = parse(src);
  analyze(p);
  return normalize(p).tac;
}

TEST(DepGraphTest, ReadAfterWriteEdge) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int out; };\n"
      "void t(struct Packet pkt) { pkt.b = pkt.a + 1; pkt.out = pkt.b + 2; "
      "}\n");
  DepGraph g = build_dep_graph(tac);
  ASSERT_EQ(g.num_nodes(), 2u);
  ASSERT_EQ(g.edges[0].size(), 1u);
  EXPECT_EQ(g.edges[0][0], 1);
  EXPECT_TRUE(g.edges[1].empty());
}

TEST(DepGraphTest, IndependentStatementsHaveNoEdges) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int x; int y; };\n"
      "void t(struct Packet pkt) { pkt.x = pkt.a + 1; pkt.y = pkt.b + 2; }\n");
  DepGraph g = build_dep_graph(tac);
  EXPECT_TRUE(g.edges[0].empty());
  EXPECT_TRUE(g.edges[1].empty());
}

TEST(DepGraphTest, StatePairEdgesFormCycle) {
  TacProgram tac = tac_of(
      "struct Packet { int out; };\nint s = 0;\n"
      "void t(struct Packet pkt) { s = s + 1; pkt.out = s; }\n");
  DepGraph g = build_dep_graph(tac);
  // Find the read and write statements of s.
  int read = -1, write = -1;
  for (std::size_t i = 0; i < tac.stmts.size(); ++i) {
    if (tac.stmts[i].reads_state()) read = static_cast<int>(i);
    if (tac.stmts[i].writes_state()) write = static_cast<int>(i);
  }
  ASSERT_GE(read, 0);
  ASSERT_GE(write, 0);
  auto has_edge = [&g](int a, int b) {
    const auto& v = g.edges[static_cast<std::size_t>(a)];
    return std::find(v.begin(), v.end(), b) != v.end();
  };
  EXPECT_TRUE(has_edge(read, write));
  EXPECT_TRUE(has_edge(write, read));
}

TEST(SccTest, StateCycleCollapsesIntoOneComponent) {
  TacProgram tac = tac_of(
      "struct Packet { int out; };\nint s = 0;\n"
      "void t(struct Packet pkt) { s = s + 1; pkt.out = s; }\n");
  DepGraph g = build_dep_graph(tac);
  auto sccs = strongly_connected_components(g);
  // read + add + write collapse together; the output copy stays separate.
  std::size_t largest = 0;
  for (const auto& c : sccs) largest = std::max(largest, c.size());
  EXPECT_GE(largest, 2u);
}

TEST(SccTest, StatelessChainHasSingletonComponents) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int out; };\n"
      "void t(struct Packet pkt) { pkt.b = pkt.a + 1; pkt.out = pkt.b + 2; "
      "}\n");
  auto sccs = strongly_connected_components(build_dep_graph(tac));
  for (const auto& c : sccs) EXPECT_EQ(c.size(), 1u);
}

TEST(SccTest, ComponentsAreInTopologicalOrder) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int c; int out; };\n"
      "void t(struct Packet pkt) { pkt.b = pkt.a + 1; pkt.c = pkt.b + 1; "
      "pkt.out = pkt.c + 1; }\n");
  DepGraph g = build_dep_graph(tac);
  auto sccs = strongly_connected_components(g);
  std::map<int, std::size_t> comp_of;
  for (std::size_t k = 0; k < sccs.size(); ++k)
    for (int v : sccs[k]) comp_of[v] = k;
  for (std::size_t v = 0; v < g.num_nodes(); ++v)
    for (int w : g.edges[v])
      if (comp_of[static_cast<int>(v)] != comp_of[w]) {
        EXPECT_LT(comp_of[static_cast<int>(v)], comp_of[w]);
      }
}

TEST(ScheduleTest, DependentStatementsLandInLaterStages) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int out; };\n"
      "void t(struct Packet pkt) { pkt.b = pkt.a + 1; pkt.out = pkt.b + 2; "
      "}\n");
  CodeletPipeline p = pipeline_schedule(tac);
  ASSERT_EQ(p.num_stages(), 2u);
  EXPECT_EQ(p.stages[0].size(), 1u);
  EXPECT_EQ(p.stages[1].size(), 1u);
}

TEST(ScheduleTest, IndependentStatementsShareAStage) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int b; int x; int y; };\n"
      "void t(struct Packet pkt) { pkt.x = pkt.a + 1; pkt.y = pkt.b + 2; }\n");
  CodeletPipeline p = pipeline_schedule(tac);
  EXPECT_EQ(p.num_stages(), 1u);
  EXPECT_EQ(p.stages[0].size(), 2u);
}

TEST(ScheduleTest, AsapIsCriticalPathDepth) {
  // A chain of length 4 must give exactly 4 stages.
  TacProgram tac = tac_of(
      "struct Packet { int a; int t1; int t2; int t3; int out; };\n"
      "void t(struct Packet pkt) {\n"
      "  pkt.t1 = pkt.a + 1;\n  pkt.t2 = pkt.t1 + 1;\n"
      "  pkt.t3 = pkt.t2 + 1;\n  pkt.out = pkt.t3 + 1;\n}\n");
  EXPECT_EQ(pipeline_schedule(tac).num_stages(), 4u);
}

// Property: the schedule respects every dependency edge, for every corpus
// algorithm — a statement's stage is strictly after all its producers
// (within a codelet, ordering inside the atom covers it).
class SchedulePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulePropertyTest, ScheduleRespectsDependencies) {
  const auto& alg = algorithms::algorithm(GetParam());
  Program p = parse(alg.source);
  analyze(p);
  TacProgram tac = normalize(p).tac;
  CodeletPipeline pipe = pipeline_schedule(tac);

  // stage + codelet of every field definition
  std::map<std::string, std::size_t> def_stage;
  std::map<std::string, const Codelet*> def_codelet;
  for (std::size_t si = 0; si < pipe.stages.size(); ++si)
    for (const auto& c : pipe.stages[si])
      for (const auto& s : c.stmts)
        if (auto w = s.field_written()) {
          def_stage[*w] = si;
          def_codelet[*w] = &c;
        }

  for (std::size_t si = 0; si < pipe.stages.size(); ++si) {
    for (const auto& c : pipe.stages[si]) {
      for (const auto& s : c.stmts) {
        for (const auto& f : s.fields_read()) {
          auto it = def_stage.find(f);
          if (it == def_stage.end()) continue;  // external input
          if (def_codelet[f] == &c) continue;   // intra-codelet dependency
          EXPECT_LT(it->second, si)
              << "field " << f << " read in stage " << si
              << " but defined in stage " << it->second;
        }
      }
    }
  }
}

TEST_P(SchedulePropertyTest, StateConfinedToSingleCodelet) {
  const auto& alg = algorithms::algorithm(GetParam());
  Program p = parse(alg.source);
  analyze(p);
  CodeletPipeline pipe = pipeline_schedule(normalize(p).tac);
  std::map<std::string, const Codelet*> owner;
  for (const auto& st : pipe.stages)
    for (const auto& c : st)
      for (const auto& v : c.state_vars()) {
        auto [it, inserted] = owner.try_emplace(v, &c);
        EXPECT_TRUE(inserted || it->second == &c)
            << "state " << v << " split across codelets";
      }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SchedulePropertyTest,
    ::testing::Values("bloom_filter", "heavy_hitters", "flowlets", "rcp",
                      "sampled_netflow", "hull", "avq", "stfq",
                      "dns_ttl_tracker", "conga", "codel"));

TEST(DotTest, DependencyGraphDotIsWellFormed) {
  TacProgram tac = tac_of(
      "struct Packet { int a; int out; };\nint s = 0;\n"
      "void t(struct Packet pkt) { s = s + pkt.a; pkt.out = s; }\n");
  std::string dot = dep_graph_dot(tac);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  std::string cdot = condensed_dag_dot(tac);
  EXPECT_NE(cdot.find("digraph"), std::string::npos);
}

}  // namespace
}  // namespace domino
