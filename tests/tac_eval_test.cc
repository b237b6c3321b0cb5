// Direct semantic-preservation test for the whole normalization pipeline at
// the TAC level: executing the optimized three-address code sequentially
// (CompiledTac + a real StateStore, arrays included) must match the AST
// reference interpreter packet for packet and state cell for state cell —
// isolating the passes from scheduling and code generation.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "core/interp.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/sema.h"

namespace domino {
namespace {

using Fields = std::map<std::string, banzai::Value>;

// Runs one packet through `tac` on a fresh field environment seeded from
// `in`; fields the program never touches are not in the environment.
std::vector<banzai::Value> run_packet(const CompiledTac& tac, const Fields& in,
                                      banzai::StateStore& state) {
  std::vector<banzai::Value> env = tac.make_env();
  for (const auto& [k, v] : in)
    if (auto idx = tac.index_of(k)) env[*idx] = v;
  tac.exec(env, state);
  return env;
}

// The value of `name` after run_packet: the program's result when it touches
// the field, otherwise the packet's input value, or 0 when the packet does
// not carry the field either.
banzai::Value read_field(const CompiledTac& tac,
                         const std::vector<banzai::Value>& env,
                         const Fields& in, const std::string& name) {
  if (auto idx = tac.index_of(name)) return env[*idx];
  auto it = in.find(name);
  return it == in.end() ? 0 : it->second;
}

class TacPreservationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TacPreservationTest, OptimizedTacMatchesInterpreter) {
  const auto& alg = algorithms::algorithm(GetParam());
  Program prog = parse(alg.source);
  analyze(prog);
  Normalized norm = normalize(prog);
  const CompiledTac tac(norm.tac);

  Interpreter interp(prog);

  // Independent state store for the TAC execution.
  banzai::StateStore tac_state;
  for (const auto& d : prog.state_vars)
    tac_state.declare(d.name, static_cast<std::size_t>(d.size), !d.is_array,
                      d.init);

  std::mt19937 rng(2718), rng2(2718);
  for (int i = 0; i < 1000; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng, i, fields);

    // Reference execution.
    auto pkt = interp.make_packet();
    for (const auto& [k, v] : fields)
      if (interp.fields().try_id_of(k).has_value()) interp.set(pkt, k, v);
    interp.run(pkt);

    // TAC execution: fresh field environment per packet, persistent state.
    Fields fields2;
    alg.workload(rng2, i, fields2);
    const auto env = run_packet(tac, fields2, tac_state);

    for (const auto& f : prog.packet_fields) {
      const auto& final_name = norm.final_names.at(f.name);
      ASSERT_EQ(read_field(tac, env, fields2, final_name),
                interp.get(pkt, f.name))
          << GetParam() << " packet " << i << " field " << f.name;
    }
  }
  EXPECT_TRUE(tac_state == interp.state()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TacPreservationTest,
    ::testing::Values("bloom_filter", "heavy_hitters", "flowlets", "rcp",
                      "sampled_netflow", "hull", "avq", "stfq",
                      "dns_ttl_tracker", "conga", "codel"));

// The raw (pre-copy-prop/DCE) TAC must agree with the optimized TAC: the
// optimizer may only remove work, never change observable values.
class TacOptimizerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TacOptimizerTest, OptimizerPreservesObservables) {
  const auto& alg = algorithms::algorithm(GetParam());
  Program prog = parse(alg.source);
  analyze(prog);
  Normalized norm = normalize(prog);
  EXPECT_LE(norm.tac.stmts.size(), norm.tac_raw.stmts.size());
  const CompiledTac raw(norm.tac_raw), opt(norm.tac);

  banzai::StateStore s_raw, s_opt;
  for (const auto& d : prog.state_vars) {
    s_raw.declare(d.name, static_cast<std::size_t>(d.size), !d.is_array,
                  d.init);
    s_opt.declare(d.name, static_cast<std::size_t>(d.size), !d.is_array,
                  d.init);
  }
  std::mt19937 rng(31415), rng2(31415);
  for (int i = 0; i < 500; ++i) {
    Fields f1, f2;
    alg.workload(rng, i, f1);
    alg.workload(rng2, i, f2);
    const auto e1 = run_packet(raw, f1, s_raw);
    const auto e2 = run_packet(opt, f2, s_opt);
    for (const auto& [user, ssa] : norm.final_names)
      ASSERT_EQ(read_field(raw, e1, f1, ssa), read_field(opt, e2, f2, ssa))
          << GetParam() << " field " << user << " packet " << i;
  }
  EXPECT_TRUE(s_raw == s_opt);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TacOptimizerTest,
    ::testing::Values("bloom_filter", "flowlets", "hull", "avq", "stfq",
                      "dns_ttl_tracker", "conga", "codel"));

}  // namespace
}  // namespace domino
