// Tests for code generation (§4.3): the all-or-nothing guarantee, resource
// fitting, computational limits, and machine structure invariants.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/corpus.h"
#include "core/compiler.h"

namespace domino {
namespace {

atoms::BanzaiTarget target_named(const std::string& n) {
  auto t = atoms::find_target(n);
  EXPECT_TRUE(t.has_value());
  return *t;
}

TEST(AllOrNothingTest, MappingFailureRejectsWholeProgram) {
  // One unmappable codelet (multiplication on state) poisons everything.
  const char* src =
      "struct Packet { int a; int ok; };\nint x = 1;\n"
      "void t(struct Packet pkt) { pkt.ok = pkt.a + 1; x = x * 3; }\n";
  try {
    compile(src, target_named("banzai-pairs"));
    FAIL() << "expected rejection";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.phase(), CompilePhase::kMapping);
  }
}

TEST(AllOrNothingTest, StatelessMulRejectedByAlu) {
  const char* src =
      "struct Packet { int a; int b; int out; };\n"
      "void t(struct Packet pkt) { pkt.out = pkt.a * pkt.b; }\n";
  try {
    compile(src, target_named("banzai-pairs"));
    FAIL() << "expected rejection";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.phase(), CompilePhase::kMapping);
    EXPECT_NE(std::string(e.what()).find("stateless ALU"), std::string::npos);
  }
}

TEST(AllOrNothingTest, MathIntrinsicRejectedOnPaperTargets) {
  const char* src =
      "struct Packet { int a; int out; };\n"
      "void t(struct Packet pkt) { pkt.out = isqrt(pkt.a); }\n";
  for (const auto& t : atoms::paper_targets())
    EXPECT_THROW(compile(src, t), CompileError) << t.name;
  // ... but accepted on the LUT-extended target, which has a math unit.
  EXPECT_NO_THROW(compile(src, atoms::lut_extended_target()));
}

TEST(AllOrNothingTest, DepthOverflowRejected) {
  // A dependent chain longer than the pipeline depth cannot be fitted.
  std::string body;
  std::string decl = "struct Packet { int f0; ";
  for (int i = 1; i <= 40; ++i) {
    decl += "int f" + std::to_string(i) + "; ";
    body += "pkt.f" + std::to_string(i) + " = pkt.f" + std::to_string(i - 1) +
            " + 1;\n";
  }
  decl += "};\n";
  const std::string src =
      decl + "void t(struct Packet pkt) {\n" + body + "}\n";
  try {
    compile(src, target_named("banzai-write"));
    FAIL() << "expected resource rejection";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.phase(), CompilePhase::kResource);
  }
}

TEST(AllOrNothingTest, WidthOverflowSpreadsAcrossStages) {
  // More independent stateful updates than stateful slots in one stage: the
  // compiler must spread them over extra stages rather than reject.
  std::string decls;
  std::string body;
  for (int i = 0; i < 15; ++i) {  // 15 > 10 stateful atoms per stage
    decls += "int s" + std::to_string(i) + " = 0;\n";
    body += "s" + std::to_string(i) + " += 1;\n";
  }
  const std::string src = "struct Packet { int a; };\n" + decls +
                          "void t(struct Packet pkt) {\n" + body + "}\n";
  CompileResult r = compile(src, target_named("banzai-raw"));
  EXPECT_GE(r.num_stages(), 2u);
  // No physical stage exceeds the stateful width.
  for (const auto& stage : r.codegen.fitted.stages) {
    std::size_t stateful = 0;
    for (const auto& c : stage)
      if (c.is_stateful()) ++stateful;
    EXPECT_LE(stateful, 10u);
  }
}

TEST(AllOrNothingTest, CompilationSucceedsOrThrowsNeverPartial) {
  // A failing program leaves no observable machine behind.
  const char* bad =
      "struct Packet { int a; };\nint x = 1;\n"
      "void t(struct Packet pkt) { x = x * x; }\n";
  for (const auto& t : atoms::paper_targets())
    EXPECT_THROW(compile(bad, t), CompileError);
}

// ---- machine structure invariants ------------------------------------------

// Both invariants are read off the sealed kernel the machine executes: one
// op per atom, one StageRange per stage.

TEST(MachineInvariantTest, EachStateVariableOwnedByExactlyOneAtom) {
  for (const auto& alg : algorithms::corpus()) {
    if (alg.paper_least_atom == "Doesn't map") continue;
    CompileResult r = compile(alg.source, target_named("banzai-pairs"));
    const banzai::CompiledPipeline& k = r.machine().require_kernel();
    std::map<std::string, int> owners;
    for (const banzai::StatefulOp& op : k.stateful_pool())
      for (std::size_t s = 0; s < op.num_states; ++s)
        owners[k.state_names().at(op.slots[s].var)]++;
    for (const auto& [var, count] : owners)
      EXPECT_EQ(count, 1) << alg.name << ": state " << var << " owned by "
                          << count << " atoms";
  }
}

TEST(MachineInvariantTest, AtomOutputFieldsAreDisjointWithinStage) {
  for (const auto& alg : algorithms::corpus()) {
    if (alg.paper_least_atom == "Doesn't map") continue;
    CompileResult r = compile(alg.source, target_named("banzai-pairs"));
    const banzai::CompiledPipeline& k = r.machine().require_kernel();
    for (const auto& range : k.stage_ranges()) {
      std::set<std::uint32_t> written;
      for (std::uint32_t i = range.begin; i < range.end; ++i) {
        const banzai::MicroOp& op = k.ops()[i];
        std::vector<std::uint32_t> outs{op.dst};
        if (op.code == banzai::KOp::kStateful) {
          const banzai::StatefulOp& so = k.stateful_pool()[op.aux];
          outs.clear();
          for (std::uint32_t l = so.liveout_begin; l < so.liveout_end; ++l)
            outs.push_back(k.liveout_pool()[l].dst);
        }
        for (std::uint32_t f : outs)
          EXPECT_TRUE(written.insert(f).second)
              << alg.name << ": two atoms in one stage write field " << f;
      }
    }
  }
}

TEST(MachineInvariantTest, StateDeclarationsCarriedToMachine) {
  CompileResult r = compile(algorithms::algorithm("flowlets").source,
                            target_named("banzai-praw"));
  EXPECT_TRUE(r.machine().state().contains("last_time"));
  EXPECT_TRUE(r.machine().state().contains("saved_hop"));
  EXPECT_EQ(r.machine().state().var("last_time").size(), 8000u);
  EXPECT_FALSE(r.machine().state().var("last_time").is_scalar());
}

TEST(MachineInvariantTest, ReportsCoverEveryCodelet) {
  CompileResult r = compile(algorithms::algorithm("flowlets").source,
                            target_named("banzai-praw"));
  std::size_t codelets = 0;
  for (const auto& s : r.codegen.fitted.stages) codelets += s.size();
  EXPECT_EQ(r.codegen.reports.size(), codelets);
  int stateful = 0, hash_units = 0;
  for (const auto& rep : r.codegen.reports) {
    if (rep.stateful) {
      ++stateful;
      EXPECT_FALSE(rep.config.empty());
      EXPECT_EQ(rep.atom, "PRAW");
    }
    if (rep.intrinsic) {
      ++hash_units;
      EXPECT_EQ(rep.atom, "hash-unit");
    }
  }
  EXPECT_EQ(stateful, 2);
  EXPECT_EQ(hash_units, 2);
}

TEST(MachineInvariantTest, OutputMapCoversAllUserFields) {
  CompileResult r = compile(algorithms::algorithm("flowlets").source,
                            target_named("banzai-praw"));
  for (const auto& f : r.program.packet_fields) {
    ASSERT_TRUE(r.output_map().count(f.name)) << f.name;
    EXPECT_TRUE(r.machine().fields().try_id_of(r.output_map().at(f.name))
                    .has_value());
  }
}

TEST(CodegenTest, GuardableViaPolicyFieldsPreserved) {
  // Input fields keep their user-visible names in the machine field table so
  // match-action guards can key on them.
  CompileResult r = compile(algorithms::algorithm("flowlets").source,
                            target_named("banzai-praw"));
  EXPECT_TRUE(r.machine().fields().try_id_of("sport").has_value());
  EXPECT_TRUE(r.machine().fields().try_id_of("dport").has_value());
  EXPECT_TRUE(r.machine().fields().try_id_of("arrival").has_value());
}

TEST(CodegenTest, CompileTimingsRecorded) {
  CompileResult r = compile(algorithms::algorithm("conga").source,
                            target_named("banzai-pairs"));
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.codegen.synth_seconds, 0.0);
  EXPECT_LE(r.codegen.synth_seconds, r.seconds);
}

}  // namespace
}  // namespace domino
