// Concrete configurations (hole assignments) for stateful atom templates, and
// their evaluation semantics.
//
// A configuration is what the synthesis engine searches for (§4.3): "the
// mapping problem is equivalent to searching for the value of the parameters
// to configure the atom such that it implements the provided specification."
// The same configuration object is used three ways:
//   1. during synthesis, to test a candidate against the codelet spec,
//   2. during final verification, on a much larger input sample,
//   3. at code generation, lowered into one fused banzai::StatefulOp of the
//      machine's CompiledPipeline (core/codegen.cc, banzai/kernel.h).
#pragma once

#include <array>
#include <cstdint>
#include "util/span.h"
#include <string>
#include <vector>

#include "atoms/stateful.h"
#include "banzai/value.h"

namespace atoms {

using banzai::Value;

// Relational operator of a predicate; kAlways ignores its operands.
enum class RelKind { kAlways, kLt, kLe, kGt, kGe, kEq, kNe };

inline bool eval_rel(RelKind r, Value a, Value b) {
  switch (r) {
    case RelKind::kAlways: return true;
    case RelKind::kLt: return a < b;
    case RelKind::kLe: return a <= b;
    case RelKind::kGt: return a > b;
    case RelKind::kGe: return a >= b;
    case RelKind::kEq: return a == b;
    case RelKind::kNe: return a != b;
  }
  return false;
}

const char* rel_str(RelKind r);

// An operand selector: one of the atom's state inputs, one of the codelet's
// input packet fields (by position in the codelet's input list), or an
// immediate constant.
struct OperandSel {
  enum class Kind { kState, kField, kConst };
  Kind kind = Kind::kConst;
  int state_idx = 0;  // kState
  int field_pos = 0;  // kField: position in the codelet input-field list
  Value cst = 0;      // kConst

  static OperandSel state(int idx) {
    OperandSel o;
    o.kind = Kind::kState;
    o.state_idx = idx;
    return o;
  }
  static OperandSel field(int pos) {
    OperandSel o;
    o.kind = Kind::kField;
    o.field_pos = pos;
    return o;
  }
  static OperandSel constant(Value v) {
    OperandSel o;
    o.kind = Kind::kConst;
    o.cst = v;
    return o;
  }

  Value eval(util::Span<const Value> states, util::Span<const Value> fields) const {
    switch (kind) {
      case Kind::kState: return states[static_cast<std::size_t>(state_idx)];
      case Kind::kField: return fields[static_cast<std::size_t>(field_pos)];
      case Kind::kConst: return cst;
    }
    return 0;
  }

  std::string str(util::Span<const std::string> field_names) const;
};

struct PredConfig {
  RelKind rel = RelKind::kAlways;
  OperandSel a, b;

  bool eval(util::Span<const Value> states, util::Span<const Value> fields) const {
    return eval_rel(rel, a.eval(states, fields), b.eval(states, fields));
  }

  std::string str(util::Span<const std::string> field_names) const;
};

// One update arm: next value for one state variable.
struct ArmConfig {
  ArmMode mode = ArmMode::kKeep;
  OperandSel src1, src2;

  Value eval(Value x, util::Span<const Value> states,
             util::Span<const Value> fields) const {
    using namespace banzai;
    const Value s1 = src1.eval(states, fields);
    const Value s2 = src2.eval(states, fields);
    switch (mode) {
      case ArmMode::kKeep: return x;
      case ArmMode::kSet: return s1;
      case ArmMode::kAdd: return wrap_add(x, s1);
      case ArmMode::kSubt: return wrap_sub(x, s1);
      case ArmMode::kSetAdd: return wrap_add(s1, s2);
      case ArmMode::kSetSub: return wrap_sub(s1, s2);
      case ArmMode::kAddSub: return wrap_sub(wrap_add(x, s1), s2);
      case ArmMode::kLutAdd: return wrap_add(lut_eval(s1), s2);
    }
    return x;
  }

  std::string str(util::Span<const std::string> field_names) const;
};

// A full hole assignment for a stateful template.
struct StatefulConfig {
  StatefulKind kind = StatefulKind::kWrite;
  // Predicates: empty (Write/RAW), {p1} (PRAW..Sub) or {p1, p2, p3}
  // (Nested/Pairs; p2 guards the p1-true side, p3 the p1-false side).
  std::vector<PredConfig> preds;
  // leaves[leaf][state]: one arm per owned state variable per leaf.
  // Leaf order: one level: {true, false}; two levels:
  // {p1&p2, p1&!p2, !p1&p3, !p1&!p3}.
  std::vector<std::vector<ArmConfig>> leaves;

  // Returns the active leaf index for the given inputs.
  int select_leaf(util::Span<const Value> states,
                  util::Span<const Value> fields) const {
    const auto& t = template_info(kind);
    if (t.pred_levels == 0) return 0;
    const bool p1 = preds[0].eval(states, fields);
    if (t.pred_levels == 1) return p1 ? 0 : 1;
    if (p1) return preds[1].eval(states, fields) ? 0 : 1;
    return preds[2].eval(states, fields) ? 2 : 3;
  }

  // Evaluates the configured atom: given old state values and input fields,
  // returns the new state values.
  void eval(util::Span<const Value> states_in, util::Span<const Value> fields,
            util::Span<Value> states_out) const {
    const int leaf = select_leaf(states_in, fields);
    const auto& arms = leaves[static_cast<std::size_t>(leaf)];
    for (std::size_t k = 0; k < arms.size(); ++k)
      states_out[k] = arms[k].eval(states_in[k], states_in, fields);
  }

  std::string str(util::Span<const std::string> field_names) const;
};

// How each live-out packet field of a codelet is produced by the atom: the
// pre-update ("old") or post-update ("new") value of one owned state slot.
struct LiveOutBinding {
  std::string field;
  int state_idx = 0;
  bool use_new = false;  // false: old value (read flank), true: updated value
};

}  // namespace atoms
