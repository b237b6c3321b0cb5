// The Table 4 reproduction as a test suite: every corpus algorithm must
// (a) be a valid Domino program,
// (b) map to exactly the paper's least expressive atom,
// (c) stay within sane LOC bounds relative to the paper's counts.
// It also pins every synthesis result of the corpus in a golden ledger.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/compiler.h"
#include "test_util.h"

namespace {

class CorpusTest : public ::testing::TestWithParam<std::string> {
 protected:
  const algorithms::AlgorithmInfo& alg() const {
    return algorithms::algorithm(GetParam());
  }
};

TEST_P(CorpusTest, ParsesAndPassesSema) {
  EXPECT_NO_THROW(domino::parse_and_check(alg().source));
}

TEST_P(CorpusTest, LeastExpressiveAtomMatchesTable4) {
  auto least = test_util::least_target(alg().source);
  if (alg().paper_least_atom == "Doesn't map") {
    EXPECT_FALSE(least.has_value())
        << GetParam() << " unexpectedly mapped to " << least->name;
  } else {
    ASSERT_TRUE(least.has_value()) << GetParam() << " failed on all targets";
    EXPECT_EQ(atoms::stateful_kind_name(least->stateful_atom),
              alg().paper_least_atom);
  }
}

TEST_P(CorpusTest, MostExpressiveTargetAcceptsEverythingMappable) {
  if (alg().paper_least_atom == "Doesn't map") return;
  EXPECT_NO_THROW(
      domino::compile(alg().source, *atoms::find_target("banzai-pairs")));
}

TEST_P(CorpusTest, DominoLocComparableToPaper) {
  const std::size_t loc = domino::count_loc(alg().source);
  // Same order of magnitude as the paper's count; our formatting differs.
  EXPECT_GE(loc, static_cast<std::size_t>(alg().paper_domino_loc / 3));
  EXPECT_LE(loc, static_cast<std::size_t>(alg().paper_domino_loc * 2));
}

TEST_P(CorpusTest, StageCountWithinPipelineDepth) {
  if (alg().paper_least_atom == "Doesn't map") return;
  auto r =
      domino::compile(alg().source, *atoms::find_target("banzai-pairs"));
  EXPECT_LE(r.num_stages(), 32u);
  EXPECT_GE(r.num_stages(), 1u);
}

TEST_P(CorpusTest, WorkloadGeneratorPopulatesDeclaredInputs) {
  std::mt19937 rng(1);
  std::map<std::string, banzai::Value> fields;
  alg().workload(rng, 0, fields);
  for (const auto& f : alg().input_fields)
    EXPECT_TRUE(fields.count(f)) << "workload does not set " << f;
}

TEST_P(CorpusTest, MetadataSanity) {
  EXPECT_FALSE(alg().description.empty());
  EXPECT_GT(alg().paper_domino_loc, 0);
  EXPECT_GT(alg().paper_p4_loc, alg().paper_domino_loc);
  EXPECT_TRUE(alg().pipeline_location == "Ingress" ||
              alg().pipeline_location == "Egress" ||
              alg().pipeline_location == "Either");
}

INSTANTIATE_TEST_SUITE_P(
    Table4, CorpusTest,
    ::testing::Values("bloom_filter", "heavy_hitters", "flowlets", "rcp",
                      "sampled_netflow", "hull", "avq", "stfq",
                      "dns_ttl_tracker", "conga", "codel"));

TEST(CorpusGlobalTest, ElevenAlgorithms) {
  EXPECT_EQ(algorithms::corpus().size(), 11u);
}

TEST(CorpusGlobalTest, UnknownAlgorithmThrows) {
  EXPECT_THROW(algorithms::algorithm("nope"), std::out_of_range);
}

TEST(CorpusGlobalTest, CodelCompilesOnlyOnLutTarget) {
  const auto& codel = algorithms::algorithm("codel");
  EXPECT_FALSE(test_util::least_target(codel.source).has_value());
  EXPECT_NO_THROW(domino::compile(codel.source, atoms::lut_extended_target()));
}

// ---- the synthesis ledger -------------------------------------------------
//
// Every corpus() and rank_corpus() program compiled on each paper target and
// on banzai-pairs-lut: the accept/reject outcome (with the CompileError text)
// and, for each stateful codelet of an accepted compile, the configuration
// and the search's own counts.  A change to the synthesis search that claims
// to visit the same candidates in the same order must leave it unchanged.
// To regenerate after an intended change, run the test with
// DOMINO_UPDATE_GOLDEN=1 and review the diff.

std::string one_line(std::string s) {
  for (char& c : s)
    if (c == '\n') c = ' ';
  return s;
}

std::string synthesis_ledger() {
  std::vector<const algorithms::AlgorithmInfo*> programs;
  for (const auto& a : algorithms::corpus()) programs.push_back(&a);
  for (const auto& a : algorithms::rank_corpus()) programs.push_back(&a);
  std::vector<atoms::BanzaiTarget> targets = atoms::paper_targets();
  targets.push_back(atoms::lut_extended_target());

  std::ostringstream os;
  for (const auto* a : programs) {
    for (const auto& t : targets) {
      os << a->name << ' ' << t.name;
      try {
        const auto r = domino::compile(a->source, t);
        os << " accept\n";
        for (const auto& rep : r.codegen.reports) {
          if (!rep.stateful) continue;
          const auto& st = rep.synth_stats;
          os << "  stage " << rep.stage << ": " << one_line(rep.config)
             << " | candidates " << st.candidates_tried << " iterations "
             << st.cegis_iterations << " predicates " << st.unique_predicates
             << '\n';
        }
      } catch (const domino::CompileError& e) {
        os << " reject: " << one_line(e.what()) << '\n';
      }
    }
  }
  return os.str();
}

TEST(SynthesisLedgerTest, CorpusSynthesisMatchesGolden) {
  const std::string path =
      std::string(DOMINO_TESTS_DIR) + "/golden/synthesis_ledger.txt";
  const std::string got = synthesis_ledger();
  if (std::getenv("DOMINO_UPDATE_GOLDEN")) {
    std::ofstream(path) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::stringstream want;
  want << in.rdbuf();

  std::istringstream g(got), w(want.str());
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) break;
    ASSERT_EQ(more_g, more_w) << "ledger length differs at line " << line;
    ASSERT_EQ(gl, wl) << "first difference at line " << line;
  }
}

// Semantic spot-checks of individual reference behaviours.

TEST(CorpusSemanticsTest, BloomFilterNeverFalseNegative) {
  const auto& alg = algorithms::algorithm("bloom_filter");
  domino::Program p = domino::parse_and_check(alg.source);
  domino::Interpreter interp(p);
  // Insert (1000, 80); it must be reported as member on re-query.
  auto insert = [&](int sport, int dport) {
    auto pkt = interp.make_packet();
    interp.set(pkt, "sport", sport);
    interp.set(pkt, "dport", dport);
    interp.run(pkt);
    return interp.get(pkt, "member");
  };
  insert(1000, 80);
  EXPECT_EQ(insert(1000, 80), 1);  // second query sees membership
}

TEST(CorpusSemanticsTest, SampledNetflowSamplesOneInN) {
  const auto& alg = algorithms::algorithm("sampled_netflow");
  domino::Program p = domino::parse_and_check(alg.source);
  domino::Interpreter interp(p);
  int samples = 0;
  for (int i = 0; i < 300; ++i) {
    auto pkt = interp.make_packet();
    interp.run(pkt);
    samples += interp.get(pkt, "sample");
  }
  EXPECT_EQ(samples, 10);  // 300 packets / 30
}

TEST(CorpusSemanticsTest, FlowletsPickNewHopAfterGap) {
  const auto& alg = algorithms::algorithm("flowlets");
  domino::Program p = domino::parse_and_check(alg.source);
  domino::Interpreter interp(p);
  auto send = [&](int arrival) {
    auto pkt = interp.make_packet();
    interp.set(pkt, "sport", 1);
    interp.set(pkt, "dport", 2);
    interp.set(pkt, "arrival", arrival);
    interp.run(pkt);
    return interp.get(pkt, "next_hop");
  };
  const int h1 = send(100);
  // Packets inside the flowlet keep the hop regardless of their own hash.
  EXPECT_EQ(send(101), h1);
  EXPECT_EQ(send(103), h1);
  // After a gap larger than THRESHOLD the hop may be re-picked; the saved
  // hop must equal the new packet's fresh hash choice.
  auto pkt = interp.make_packet();
  interp.set(pkt, "sport", 1);
  interp.set(pkt, "dport", 2);
  interp.set(pkt, "arrival", 500);
  interp.run(pkt);
  EXPECT_EQ(interp.get(pkt, "next_hop"), interp.get(pkt, "new_hop"));
}

TEST(CorpusSemanticsTest, CongaTracksTrueMinimumUtilization) {
  const auto& alg = algorithms::algorithm("conga");
  domino::Program p = domino::parse_and_check(alg.source);
  domino::Interpreter interp(p);
  using VP = std::pair<banzai::Value, banzai::Value>;
  auto feedback = [&](int src, int util, int path) {
    auto pkt = interp.make_packet();
    interp.set(pkt, "src", src);
    interp.set(pkt, "util", util);
    interp.set(pkt, "path_id", path);
    interp.run(pkt);
    return VP(interp.get(pkt, "best_util_now"),
              interp.get(pkt, "best_path_now"));
  };
  EXPECT_EQ(feedback(3, 500, 1), VP(500, 1));
  EXPECT_EQ(feedback(3, 300, 2), VP(300, 2));
  // Worse utilization on a different path: best unchanged.
  EXPECT_EQ(feedback(3, 900, 5), VP(300, 2));
  // The best path itself degrading must be tracked (the Pairs case).
  EXPECT_EQ(feedback(3, 700, 2), VP(700, 2));
}

TEST(CorpusSemanticsTest, CodelMarksFasterUnderSustainedDelay) {
  const auto& alg = algorithms::algorithm("codel");
  domino::Program p = domino::parse_and_check(alg.source);
  domino::Interpreter interp(p);
  int marks = 0;
  int now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += 7;
    auto pkt = interp.make_packet();
    interp.set(pkt, "now", now);
    interp.set(pkt, "qdelay", 50);  // always above target
    interp.run(pkt);
    marks += interp.get(pkt, "mark");
  }
  EXPECT_GT(marks, 3);  // marking accelerates: several marks well inside 5000
  // With low delay, no marks.
  int marks_low = 0;
  for (int i = 0; i < 1000; ++i) {
    now += 7;
    auto pkt = interp.make_packet();
    interp.set(pkt, "now", now);
    interp.set(pkt, "qdelay", 1);
    interp.run(pkt);
    marks_low += interp.get(pkt, "mark");
  }
  EXPECT_EQ(marks_low, 0);
}

}  // namespace
