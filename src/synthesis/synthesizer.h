// Codelet-to-atom synthesis (§4.3) — the SKETCH substitute.
//
// The paper hands each codelet plus an atom template to the SKETCH program
// synthesizer, which searches for hole values making the configured template
// functionally identical to the codelet (with hole constants restricted to
// 5 bits).  We implement the same search as counterexample-guided inductive
// synthesis (CEGIS) with an enumerative inductive step:
//
//   1. Evaluate the codelet spec on a set V of test vectors.
//   2. Enumerate predicate holes, deduplicated by their truth vector on V,
//      and update-arm holes per decision-tree leaf, memoized per vector
//      subset; assemble a candidate configuration consistent with V.
//      Subsets of V are bitsets (a predicate splits one with AND and
//      AND-NOT).  Each update arm has, per state variable, a fit row: the
//      bitset of vectors on which it yields the spec's next value, built
//      when a scan first reaches the arm and extended by one bit per
//      counterexample.  An arm fits a subset when its row covers it.
//   3. Verify the candidate against a bounded oracle (an exhaustive small
//      domain plus thousands of seeded random 32-bit vectors).  A mismatch
//      becomes a counterexample added to V, and the search repeats.
//
// Like SKETCH, the search is complete over the hole space: if the inductive
// step fails on V, no configuration exists (failing on a subset implies
// failing on any superset), so rejection is definitive.  Unlike SKETCH,
// verification is bounded rather than SAT-based; every accepted mapping is
// additionally cross-validated end-to-end by the differential pipeline tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atoms/config.h"
#include "atoms/stateful.h"
#include "synthesis/spec.h"

namespace synthesis {

struct SynthOptions {
  // Width of enumerated constant holes when seed_constants is false:
  // constants range over [-2^(bits-1), 2^(bits-1)-1].  The paper limits
  // SKETCH to 5-bit constants for the same reason (§5.3).
  int const_bits = 5;
  // Seed the constant pool from constants appearing in the codelet (+/-1)
  // plus small values, instead of enumerating the full 2^bits range.
  bool seed_constants = true;
  int max_cegis_iters = 16;
  std::size_t random_verify_vectors = 3000;
  std::uint32_t seed = 0x5eedu;
};

struct SynthStats {
  std::size_t candidates_tried = 0;  // arm + predicate candidates evaluated
  std::size_t unique_predicates = 0;
  int cegis_iterations = 0;
  double seconds = 0.0;
};

struct SynthResult {
  bool success = false;
  atoms::StatefulConfig config;
  std::vector<atoms::LiveOutBinding> liveouts;
  // Field-position ordering referenced by OperandSel::field_pos.
  std::vector<std::string> input_fields;
  std::string failure_reason;
  SynthStats stats;
};

// Attempts to map `spec` onto the stateful template `kind`.
SynthResult synthesize(const CodeletSpec& spec, atoms::StatefulKind kind,
                       const SynthOptions& opts = {});

// Independent equivalence check between a spec and a configured atom on
// `num_vectors` fresh seeded vectors; used by soundness property tests.
bool check_equivalent(const CodeletSpec& spec,
                      const atoms::StatefulConfig& config,
                      const std::vector<atoms::LiveOutBinding>& liveouts,
                      std::uint32_t seed, std::size_t num_vectors,
                      std::string* mismatch = nullptr);

}  // namespace synthesis
