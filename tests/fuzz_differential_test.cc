// Fuzzed end-to-end property test: generate random (but sema-valid) Domino
// programs, compile each onto the least expressive paper target that accepts
// it, and check the central serializability property — the pipelined machine
// with packets in flight is observationally identical to the sequential
// interpreter — on seeded random workloads.
//
// Programs that no target accepts are skipped (all-or-nothing rejection is
// itself exercised); the suite asserts that a healthy fraction compiles so
// the generator cannot silently rot.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "banzai/sim.h"
#include "core/compiler.h"
#include "core/interp.h"

namespace {

using banzai::Value;

class ProgramGen {
 public:
  explicit ProgramGen(unsigned seed) : rng_(seed) {}

  std::string generate() {
    num_fields_ = pick(2, 4);
    num_states_ = pick(1, 3);
    std::ostringstream os;
    os << "struct Packet {";
    for (int i = 0; i < num_fields_; ++i) os << " int f" << i << ";";
    os << " int out0; int out1; int idx; };\n";
    for (int i = 0; i < num_states_; ++i) {
      if (i == 0 && chance(40)) {
        os << "int s0[16] = {" << pick(-2, 2) << "};\n";
        state_is_array_ = true;
      } else {
        os << "int s" << i << " = " << pick(-3, 3) << ";\n";
      }
    }
    os << "void fuzz(struct Packet pkt) {\n";
    if (state_is_array_)
      os << "  pkt.idx = hash2(pkt.f0, pkt.f1) % 16;\n";
    const int num_stmts = pick(2, 5);
    for (int i = 0; i < num_stmts; ++i) os << "  " << statement() << "\n";
    os << "  pkt.out0 = " << pure_expr(2) << ";\n";
    os << "  pkt.out1 = " << state_ref(0) << " + " << pure_expr(1) << ";\n";
    os << "}\n";
    return os.str();
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool chance(int percent) { return pick(1, 100) <= percent; }

  std::string field() { return "pkt.f" + std::to_string(pick(0, num_fields_ - 1)); }

  std::string state_ref(int i) {
    if (i == 0 && state_is_array_) return "s0[pkt.idx]";
    return "s" + std::to_string(i);
  }

  std::string rand_state() { return state_ref(pick(0, num_states_ - 1)); }

  // Expression over fields and constants only (always mappable statelessly).
  std::string pure_expr(int depth) {
    if (depth == 0 || chance(35))
      return chance(50) ? field() : std::to_string(pick(-8, 8));
    static const char* ops[] = {"+", "-", "&", "|", "^", "<", ">", "==",
                                "!=", "&&", "||"};
    const std::string op = ops[pick(0, 10)];
    return "(" + pure_expr(depth - 1) + " " + op + " " + pure_expr(depth - 1) +
           ")";
  }

  std::string condition() {
    switch (pick(0, 3)) {
      case 0: return field() + " > " + std::to_string(pick(-4, 4));
      case 1: return rand_state() + " < " + field();
      case 2: return rand_state() + " == " + std::to_string(pick(0, 4));
      default: return "(" + field() + " != 0)";
    }
  }

  // One update of a single state variable, in shapes the atom grammar spans
  // (plus occasional deliberately-unmappable shapes to exercise rejection).
  std::string update(const std::string& s) {
    switch (pick(0, 5)) {
      case 0: return s + " = " + s + " + " + std::to_string(pick(1, 4)) + ";";
      case 1: return s + " = " + field() + ";";
      case 2: return s + " = " + s + " + " + field() + ";";
      case 3: return s + " = " + s + " - " + field() + ";";
      case 4: return s + " = " + std::to_string(pick(0, 3)) + ";";
      default: return s + " = " + s + " & " + field() + ";";  // unmappable
    }
  }

  std::string statement() {
    const std::string s = rand_state();
    switch (pick(0, 3)) {
      case 0:
        return update(s);
      case 1:
        return "if (" + condition() + ") { " + update(s) + " }";
      case 2:
        return "if (" + condition() + ") { " + update(s) + " } else { " +
               update(s) + " }";
      default:
        return "if (" + condition() + ") { if (" + condition() + ") { " +
               update(s) + " } }";
    }
  }

  std::mt19937 rng_;
  int num_fields_ = 2;
  int num_states_ = 1;
  bool state_is_array_ = false;
};

class FuzzDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzDifferentialTest, PipelineSerializable) {
  ProgramGen gen(GetParam());
  const std::string source = gen.generate();
  SCOPED_TRACE(source);

  // Front end must always accept generator output.
  domino::Program prog;
  ASSERT_NO_THROW(prog = domino::parse_and_check(source));

  std::optional<domino::CompileResult> compiled;
  for (const auto& target : atoms::paper_targets()) {
    try {
      compiled = domino::compile(source, target);
      break;
    } catch (const domino::CompileError&) {
    }
  }
  if (!compiled.has_value()) {
    GTEST_SKIP() << "no target accepts this program (all-or-nothing)";
  }

  domino::Interpreter interp(compiled->program);
  auto& machine = compiled->machine();
  banzai::PipelineSim sim(machine);

  std::mt19937 wl(GetParam() ^ 0xabcdefu);
  std::uniform_int_distribution<Value> val(-64, 64);
  const int n = 600;
  std::vector<std::vector<Value>> inputs;
  for (int i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (const auto& f : compiled->program.packet_fields)
      row.push_back(f.name.rfind("f", 0) == 0 ? val(wl) : 0);
    inputs.push_back(row);
  }

  std::vector<std::pair<Value, Value>> expected;
  for (int i = 0; i < n; ++i) {
    auto pkt = interp.make_packet();
    std::size_t j = 0;
    for (const auto& f : compiled->program.packet_fields)
      interp.set(pkt, f.name, inputs[static_cast<std::size_t>(i)][j++]);
    interp.run(pkt);
    expected.emplace_back(interp.get(pkt, "out0"), interp.get(pkt, "out1"));
  }

  for (int i = 0; i < n; ++i) {
    banzai::Packet pkt(machine.fields().size());
    std::size_t j = 0;
    for (const auto& f : compiled->program.packet_fields)
      pkt.set(machine.fields().id_of(f.name),
              inputs[static_cast<std::size_t>(i)][j++]);
    sim.enqueue(pkt);
  }
  sim.drain();

  const auto out0 = machine.fields().id_of(compiled->output_map().at("out0"));
  const auto out1 = machine.fields().id_of(compiled->output_map().at("out1"));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(sim.egress()[static_cast<std::size_t>(i)].get(out0),
              expected[static_cast<std::size_t>(i)].first)
        << "packet " << i << " out0";
    ASSERT_EQ(sim.egress()[static_cast<std::size_t>(i)].get(out1),
              expected[static_cast<std::size_t>(i)].second)
        << "packet " << i << " out1";
  }
  EXPECT_TRUE(interp.state() == machine.state());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range(0u, 60u));

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The generator must keep producing both outcomes: mappable programs (or
// the differential property above is never exercised) and unmappable ones
// (or all-or-nothing rejection is never exercised).  Runs its own sweep so
// it holds under per-test process isolation.
//
// The sweep also folds the outcome of every target it tries into one FNV-1a
// digest: the CompileError text of a rejection, or each stateful codelet's
// configuration and search counts of an acceptance.  A change to the
// synthesis search that claims to visit the same candidates in the same
// order must leave the digest unchanged.
TEST(FuzzGeneratorHealth, GeneratorExercisesBothOutcomes) {
  int compiled = 0, rejected = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (unsigned seed = 0; seed < 60; ++seed) {
    ProgramGen gen(seed);
    const std::string source = gen.generate();
    bool ok = false;
    for (const auto& target : atoms::paper_targets()) {
      std::ostringstream outcome;
      outcome << seed << ' ' << target.name;
      try {
        const auto r = domino::compile(source, target);
        for (const auto& rep : r.codegen.reports)
          if (rep.stateful)
            outcome << " | " << rep.config << ' '
                    << rep.synth_stats.candidates_tried << ' '
                    << rep.synth_stats.cegis_iterations << ' '
                    << rep.synth_stats.unique_predicates;
        ok = true;
      } catch (const domino::CompileError& e) {
        outcome << " reject: " << e.what();
      }
      digest = fnv1a(outcome.str() + "\n", digest);
      if (ok) break;
    }
    (ok ? compiled : rejected)++;
  }
  EXPECT_GT(compiled, 20);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(digest, 0x866d6d9ba377dc29ull)
      << std::hex << "digest 0x" << digest;
}

}  // namespace
