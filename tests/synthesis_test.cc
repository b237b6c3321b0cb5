// Tests for the codelet-to-atom synthesis engine (§4.3), including the
// paper's own worked examples: mapping x = x + 1 onto an add/subtract
// template succeeds, mapping x = x * x fails.
#include "synthesis/synthesizer.h"

#include <gtest/gtest.h>

#include "core/normalize.h"
#include "core/parser.h"
#include "core/pipeline.h"
#include "core/sema.h"

namespace synthesis {
namespace {

using atoms::StatefulKind;
using domino::Codelet;
using domino::CodeletPipeline;

// Builds the stateful codelet of a tiny Domino transaction.
Codelet stateful_codelet(const std::string& src) {
  domino::Program p = domino::parse(src);
  domino::analyze(p);
  CodeletPipeline pipe =
      domino::pipeline_schedule(domino::normalize(p).tac);
  for (const auto& st : pipe.stages)
    for (const auto& c : st)
      if (c.is_stateful()) return c;
  throw std::runtime_error("no stateful codelet in test program");
}

Codelet counter_codelet() {
  return stateful_codelet(
      "struct Packet { int a; };\nint x = 0;\n"
      "void t(struct Packet pkt) { x = x + 1; }\n");
}

TEST(SynthesisTest, PaperExampleIncrementMapsToRaw) {
  // §4.3: "assume we want to map the codelet x=x+1 ... SKETCH finds the
  // solution with choice=0 and constant=1".
  CodeletSpec spec(counter_codelet(), {});
  SynthResult r = synthesize(spec, StatefulKind::kRAW);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.config.leaves.size(), 1u);
  const auto& arm = r.config.leaves[0][0];
  EXPECT_EQ(arm.mode, atoms::ArmMode::kAdd);
  EXPECT_EQ(arm.src1.kind, atoms::OperandSel::Kind::kConst);
  EXPECT_EQ(arm.src1.cst, 1);
}

TEST(SynthesisTest, PaperExampleSquareDoesNotMap) {
  // §4.3: "if the codelet x=x*x was supplied ... SKETCH will return an error
  // as no parameters exist."
  Codelet sq = stateful_codelet(
      "struct Packet { int a; };\nint x = 2;\n"
      "void t(struct Packet pkt) { x = x * x; }\n");
  CodeletSpec spec(sq, {});
  for (const auto& t : atoms::stateful_hierarchy()) {
    SynthResult r = synthesize(spec, t.kind);
    EXPECT_FALSE(r.success) << "x=x*x mapped onto " << t.name;
  }
}

TEST(SynthesisTest, IncrementDoesNotMapToWrite) {
  CodeletSpec spec(counter_codelet(), {});
  SynthResult r = synthesize(spec, StatefulKind::kWrite);
  EXPECT_FALSE(r.success);
}

TEST(SynthesisTest, PlainWriteMapsToWrite) {
  Codelet w = stateful_codelet(
      "struct Packet { int a; };\nint x = 0;\n"
      "void t(struct Packet pkt) { x = pkt.a; }\n");
  SynthResult r = synthesize(CodeletSpec(w, {}), StatefulKind::kWrite);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.config.leaves[0][0].mode, atoms::ArmMode::kSet);
}

TEST(SynthesisTest, PredicatedWriteNeedsPraw) {
  const char* src =
      "struct Packet { int a; int c; };\nint x = 0;\n"
      "void t(struct Packet pkt) { if (pkt.c > 0) { x = pkt.a; } }\n";
  Codelet c = stateful_codelet(src);
  EXPECT_FALSE(synthesize(CodeletSpec(c, {}), StatefulKind::kRAW).success);
  SynthResult r = synthesize(CodeletSpec(c, {}), StatefulKind::kPRAW);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.config.preds.size(), 1u);
  EXPECT_NE(r.config.preds[0].rel, atoms::RelKind::kAlways);
}

TEST(SynthesisTest, TwoSidedUpdateNeedsIfElseRaw) {
  // if (x == 29) x = 0 else x = x + 1  — PRAW's false leaf must keep.
  const char* src =
      "struct Packet { int a; };\nint x = 0;\n"
      "void t(struct Packet pkt) { if (x == 29) { x = 0; } else { x = x + 1; "
      "} }\n";
  Codelet c = stateful_codelet(src);
  EXPECT_FALSE(synthesize(CodeletSpec(c, {}), StatefulKind::kPRAW).success);
  EXPECT_TRUE(synthesize(CodeletSpec(c, {}), StatefulKind::kIfElseRAW).success);
}

TEST(SynthesisTest, SubtractionOfFieldNeedsSub) {
  const char* src =
      "struct Packet { int d; };\nint x = 0;\n"
      "void t(struct Packet pkt) { if (x < pkt.d) { x = 0; } else { x = x - "
      "pkt.d; } }\n";
  Codelet c = stateful_codelet(src);
  EXPECT_FALSE(
      synthesize(CodeletSpec(c, {}), StatefulKind::kIfElseRAW).success);
  EXPECT_TRUE(synthesize(CodeletSpec(c, {}), StatefulKind::kSub).success);
}

TEST(SynthesisTest, TwoLevelPredicationNeedsNested) {
  const char* src =
      "struct Packet { int a; int b; };\nint x = 0;\n"
      "void t(struct Packet pkt) {\n"
      "  if (pkt.a > 0) { if (x < 100) { x = x + 1; } }\n"
      "  else { if (x > 0) { x = x - 1; } }\n"
      "}\n";
  Codelet c = stateful_codelet(src);
  EXPECT_FALSE(synthesize(CodeletSpec(c, {}), StatefulKind::kSub).success);
  EXPECT_TRUE(synthesize(CodeletSpec(c, {}), StatefulKind::kNested).success);
}

TEST(SynthesisTest, PairedStateNeedsPairs) {
  const char* src =
      "#define INF 2147483647\n"
      "struct Packet { int util; int path; };\n"
      "int bu = 0;\nint bp = 0;\n"
      "void t(struct Packet pkt) {\n"
      "  if (pkt.util < bu) { bu = pkt.util; bp = pkt.path; }\n"
      "  else if (pkt.path == bp) { bu = pkt.util; }\n"
      "}\n";
  Codelet c = stateful_codelet(src);
  EXPECT_FALSE(synthesize(CodeletSpec(c, {}), StatefulKind::kNested).success);
  SynthResult r = synthesize(CodeletSpec(c, {}), StatefulKind::kPairs);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.config.leaves.size(), 4u);
  EXPECT_EQ(r.config.leaves[0].size(), 2u);  // two state arms per leaf
}

TEST(SynthesisTest, ThreeStateVariablesNeverMap) {
  const char* src =
      "struct Packet { int a; };\nint x = 0;\nint y = 0;\nint z = 0;\n"
      "void t(struct Packet pkt) {\n"
      "  if (x > 0) { y = y + 1; }\n"
      "  if (y > 0) { z = z + 1; }\n"
      "  if (z > 0) { x = x + 1; }\n"
      "}\n";
  Codelet c = stateful_codelet(src);
  SynthResult r = synthesize(CodeletSpec(c, {}), StatefulKind::kPairs);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("state variables"), std::string::npos);
}

// ---- live-out bindings -----------------------------------------------------

TEST(SynthesisTest, ReadFlankBindsToOldValue) {
  domino::Program p = domino::parse(
      "struct Packet { int a; int out; };\nint x = 0;\n"
      "void t(struct Packet pkt) { pkt.out = x; x = x + pkt.a; }\n");
  domino::analyze(p);
  CodeletPipeline pipe = domino::pipeline_schedule(domino::normalize(p).tac);
  for (const auto& st : pipe.stages)
    for (const auto& c : st)
      if (c.is_stateful()) {
        auto flanks = c.read_flanks();
        ASSERT_FALSE(flanks.empty());
        CodeletSpec spec(c, {flanks[0].second});
        SynthResult r = synthesize(spec, StatefulKind::kRAW);
        ASSERT_TRUE(r.success) << r.failure_reason;
        ASSERT_EQ(r.liveouts.size(), 1u);
        EXPECT_FALSE(r.liveouts[0].use_new);
      }
}

TEST(SynthesisTest, PostUpdateValueBindsToNewValue) {
  Codelet c = stateful_codelet(
      "struct Packet { int out; };\nint x = 0;\n"
      "void t(struct Packet pkt) { x = x + 1; pkt.out = x; }\n");
  // The codelet's written field feeding pkt.out is the updated value.
  std::string liveout;
  for (const auto& s : c.stmts)
    if (s.kind == domino::TacStmt::Kind::kBinary) liveout = s.dst;
  ASSERT_FALSE(liveout.empty());
  SynthResult r = synthesize(CodeletSpec(c, {liveout}), StatefulKind::kRAW);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.liveouts.size(), 1u);
  EXPECT_TRUE(r.liveouts[0].use_new);
}

// ---- hierarchy containment (property) --------------------------------------

struct HierarchyCase {
  const char* name;
  const char* src;
  StatefulKind least;
  int min_cegis_iterations = 1;
};

class HierarchyContainmentTest
    : public ::testing::TestWithParam<HierarchyCase> {};

TEST_P(HierarchyContainmentTest, EveryAtomAboveLeastAlsoMaps) {
  const auto& tc = GetParam();
  Codelet c = stateful_codelet(tc.src);
  CodeletSpec spec(c, {});
  const int least_rank = atoms::template_info(tc.least).hierarchy_rank;
  for (const auto& t : atoms::stateful_hierarchy()) {
    SynthResult r = synthesize(spec, t.kind);
    if (t.hierarchy_rank < least_rank) {
      EXPECT_FALSE(r.success)
          << tc.name << " unexpectedly mapped onto " << t.name;
    } else {
      EXPECT_TRUE(r.success)
          << tc.name << " failed on " << t.name << ": " << r.failure_reason;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codelets, HierarchyContainmentTest,
    ::testing::Values(
        HierarchyCase{"set_const",
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { x = 7; }\n",
                      StatefulKind::kWrite},
        HierarchyCase{"add_field",
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { x = x + pkt.a; }\n",
                      StatefulKind::kRAW},
        HierarchyCase{"guarded_add",
                      "struct Packet { int a; int c; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (pkt.c != 0) { x = x + "
                      "pkt.a; } }\n",
                      StatefulKind::kPRAW},
        HierarchyCase{"reset_or_inc",
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x == 5) { x = 0; } "
                      "else { x = x + 1; } }\n",
                      StatefulKind::kIfElseRAW},
        HierarchyCase{"drain",
                      "struct Packet { int d; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x < pkt.d) { x = 0; } "
                      "else { x = x - pkt.d; } }\n",
                      StatefulKind::kSub}),
    [](const ::testing::TestParamInfo<HierarchyCase>& info) {
      return info.param.name;
    });

// ---- soundness (property) ---------------------------------------------------

class SoundnessTest : public ::testing::TestWithParam<HierarchyCase> {};

TEST_P(SoundnessTest, AcceptedConfigsAreEquivalentOnFreshVectors) {
  const auto& tc = GetParam();
  Codelet c = stateful_codelet(tc.src);
  CodeletSpec spec(c, {});
  SynthResult r = synthesize(spec, tc.least);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.stats.cegis_iterations, tc.min_cegis_iterations);
  // Fresh seed never used during search.
  std::string why;
  EXPECT_TRUE(
      check_equivalent(spec, r.config, r.liveouts, 0xf4e5711u, 20000, &why))
      << why;
}

INSTANTIATE_TEST_SUITE_P(
    Codelets, SoundnessTest,
    ::testing::Values(
        HierarchyCase{"guarded_add",
                      "struct Packet { int a; int c; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (pkt.c != 0) { x = x + "
                      "pkt.a; } }\n",
                      StatefulKind::kPRAW},
        HierarchyCase{"reset_or_inc",
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x == 5) { x = 0; } "
                      "else { x = x + 1; } }\n",
                      StatefulKind::kIfElseRAW},
        HierarchyCase{"stfq_like",
                      "struct Packet { int now; int len; };\nint x = 0;\n"
                      "void t(struct Packet pkt) {\n"
                      "  if (x == 0) { x = pkt.now + pkt.len; }\n"
                      "  else if (x > pkt.now) { x = x + pkt.len; }\n"
                      "  else { x = pkt.now + pkt.len; }\n}\n",
                      StatefulKind::kNested},
        // The search keeps its vector sets as bitsets of 64-bit words.  The
        // initial set holds 1 + n*|base| + 40 vectors, where n counts the
        // state variables and input fields, and |base| is 13 values plus
        // up to 3 per distinct constant of the codelet (c-1, c, c+1).  The
        // next cases sit on both sides of the word boundaries.
        HierarchyCase{"vectors_63",  // n = 1, |base| = 22
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x == 200) { x = 300; } "
                      "else { x = x + 400; } }\n",
                      StatefulKind::kIfElseRAW},
        HierarchyCase{"vectors_64",  // n = 1, |base| = 23
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x > 64) { if (x < -50) "
                      "{ x = x + 65536; } } else { x = 65535; } }\n",
                      StatefulKind::kNested},
        HierarchyCase{"vectors_65",  // n = 1, |base| = 24
                      "struct Packet { int a; };\nint x = 0;\n"
                      "void t(struct Packet pkt) { if (x > 8) { if (x < -5) "
                      "{ x = x + 100; } } else { x = -1000; } }\n",
                      StatefulKind::kNested},
        HierarchyCase{"vectors_129_pairs",  // n = 4, |base| = 22
                      "struct Packet { int util; int path; };\n"
                      "int bu = 0;\nint bp = 0;\n"
                      "void t(struct Packet pkt) {\n"
                      "  if (pkt.util < bu) { bu = pkt.util; bp = pkt.path; }\n"
                      "  else if (pkt.path == bp) { bu = bu + 300; }\n"
                      "  else { bp = 7000; bu = 9000; }\n}\n",
                      StatefulKind::kPairs},
        // n = 3, |base| = 28: 125 vectors to start, and four
        // counterexamples take the set from two words to three.
        HierarchyCase{"counterexample_crosses_128",
                      "struct Packet { int a; int c; };\nint x = 0;\n"
                      "void t(struct Packet pkt) {\n"
                      "  if (pkt.c != 0) { if (x < -300) { x = x + pkt.a; }\n"
                      "                    else { x = -500; } }\n"
                      "  else { if (x > 2000) { x = x - 500; }\n"
                      "         else { x = 100000; } }\n}\n",
                      StatefulKind::kNested, 5}),
    [](const ::testing::TestParamInfo<HierarchyCase>& info) {
      return info.param.name;
    });

// ---- options ----------------------------------------------------------------

TEST(SynthesisOptionsTest, ExhaustiveConstantEnumerationStillFindsSolution) {
  SynthOptions opts;
  opts.seed_constants = false;
  opts.const_bits = 5;
  CodeletSpec spec(counter_codelet(), {});
  SynthResult r = synthesize(spec, StatefulKind::kRAW, opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.config.leaves[0][0].src1.cst, 1);
}

TEST(SynthesisOptionsTest, WiderConstantsEnlargeSearch) {
  SynthOptions narrow, wide;
  narrow.seed_constants = wide.seed_constants = false;
  narrow.const_bits = 3;
  wide.const_bits = 7;
  CodeletSpec spec(counter_codelet(), {});
  auto rn = synthesize(spec, StatefulKind::kPRAW, narrow);
  auto rw = synthesize(spec, StatefulKind::kPRAW, wide);
  ASSERT_TRUE(rn.success);
  ASSERT_TRUE(rw.success);
  EXPECT_GT(rw.stats.candidates_tried, rn.stats.candidates_tried);
}

TEST(SynthesisOptionsTest, DeterministicAcrossRuns) {
  CodeletSpec spec(counter_codelet(), {});
  auto r1 = synthesize(spec, StatefulKind::kNested);
  auto r2 = synthesize(spec, StatefulKind::kNested);
  ASSERT_TRUE(r1.success);
  ASSERT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.config.str(r1.input_fields), r2.config.str(r2.input_fields));
}

TEST(SynthesisTest, FailureReasonsAreInformative) {
  Codelet sq = stateful_codelet(
      "struct Packet { int a; };\nint x = 2;\n"
      "void t(struct Packet pkt) { x = x * x; }\n");
  SynthResult r = synthesize(CodeletSpec(sq, {}), StatefulKind::kPairs);
  EXPECT_NE(r.failure_reason.find("*"), std::string::npos);
}

}  // namespace
}  // namespace synthesis
