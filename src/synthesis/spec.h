// Codelet specifications for synthesis (§4.3): "Each codelet can be viewed as
// a functional specification of the atom."
//
// A stateful codelet is a block of three-address code touching one or two
// state variables.  Thanks to the same-index restriction (Table 1), per-cell
// behaviour is a pure function
//     (state_in[], input_fields[]) -> (state_out[], liveout_fields[])
// which this class evaluates by directly interpreting the codelet's
// statements with a scalar view of each state variable.
#pragma once

#include "util/span.h"
#include <optional>
#include <string>
#include <vector>

#include "banzai/value.h"
#include "ir/pvsm.h"
#include "ir/tac.h"

namespace synthesis {

using banzai::Value;

class CodeletSpec {
 public:
  // `liveouts`: the packet fields written by the codelet that later pipeline
  // stages read (code generation computes these; tests may pass any subset).
  CodeletSpec(const domino::Codelet& codelet,
              std::vector<std::string> liveouts);

  const std::vector<std::string>& state_vars() const { return state_vars_; }
  const std::vector<std::string>& input_fields() const {
    return input_fields_;
  }
  const std::vector<std::string>& liveout_fields() const {
    return liveout_fields_;
  }
  const domino::Codelet& codelet() const { return codelet_; }

  std::size_t num_states() const { return state_vars_.size(); }
  std::size_t num_inputs() const { return input_fields_.size(); }

  // Constants that appear anywhere in the codelet (used to seed the
  // constant-hole search, mirroring the paper's 5-bit constant restriction).
  std::vector<Value> constants() const;

  // True if the codelet contains an operation no stateful atom provides
  // (multiply / divide / modulo / intrinsic call); such codelets are
  // rejected without search.  When `allow_lut_intrinsics` is set (the
  // LUT-extension template), intrinsic calls are admitted and the search
  // decides whether the atom's look-up table realizes them.
  bool has_unmappable_op(std::string* reason = nullptr,
                         bool allow_lut_intrinsics = false) const;

  // Caller-owned working storage for eval(), so that evaluating many
  // vectors (the CEGIS loop, verification) allocates nothing per vector.
  struct Scratch {
    std::vector<Value> state_val;
    std::vector<Value> env;
  };

  // Evaluates the codelet.  states_in/states_out are indexed like
  // state_vars(); fields like input_fields(); liveouts like liveout_fields().
  void eval(util::Span<const Value> states_in, util::Span<const Value> fields,
            util::Span<Value> states_out, util::Span<Value> liveouts,
            Scratch& scratch) const;

 private:
  domino::Codelet codelet_;
  std::vector<std::string> state_vars_;
  std::vector<std::string> input_fields_;
  std::vector<std::string> liveout_fields_;

  // Resolved-index execution plan: eval() runs in the synthesis inner loop
  // (once per candidate atom per example), so field names are interned once
  // here instead of being scanned per operand access.
  domino::CompiledTac compiled_;
  std::vector<std::size_t> stmt_state_index_;  // per stmt: index into state_vars_
  std::vector<std::optional<std::uint32_t>> input_index_;
  std::vector<std::optional<std::uint32_t>> liveout_index_;
};

}  // namespace synthesis
