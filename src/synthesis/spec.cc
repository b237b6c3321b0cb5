#include "synthesis/spec.h"

#include <algorithm>
#include <set>

#include "ir/intrinsics.h"

namespace synthesis {

using domino::TacStmt;

CodeletSpec::CodeletSpec(const domino::Codelet& codelet,
                         std::vector<std::string> liveouts)
    : codelet_(codelet),
      liveout_fields_(std::move(liveouts)),
      compiled_(codelet.stmts) {
  // State variables in first-touch order (stable across runs).
  std::set<std::string> seen;
  for (const auto& s : codelet_.stmts) {
    if (s.touches_state() && !seen.count(s.state_var)) {
      seen.insert(s.state_var);
      state_vars_.push_back(s.state_var);
    }
  }
  input_fields_ = codelet_.external_inputs();

  // Resolve every name eval() will touch to a dense index, once.
  stmt_state_index_.reserve(codelet_.stmts.size());
  for (const auto& s : codelet_.stmts) {
    std::size_t k = 0;
    if (s.touches_state()) {
      while (k < state_vars_.size() && state_vars_[k] != s.state_var) ++k;
      if (k == state_vars_.size()) k = 0;
    }
    stmt_state_index_.push_back(k);
  }
  input_index_.reserve(input_fields_.size());
  for (const auto& f : input_fields_) input_index_.push_back(compiled_.index_of(f));
  liveout_index_.reserve(liveout_fields_.size());
  for (const auto& f : liveout_fields_)
    liveout_index_.push_back(compiled_.index_of(f));
}

std::vector<Value> CodeletSpec::constants() const {
  std::set<Value> consts;
  auto add = [&consts](const domino::Operand& o) {
    if (o.is_const()) consts.insert(o.cst);
  };
  for (const auto& s : codelet_.stmts) {
    add(s.a);
    add(s.b);
    add(s.c);
    for (const auto& arg : s.args) add(arg);
  }
  return {consts.begin(), consts.end()};
}

bool CodeletSpec::has_unmappable_op(std::string* reason,
                                    bool allow_lut_intrinsics) const {
  for (const auto& s : codelet_.stmts) {
    if (s.kind == TacStmt::Kind::kIntrinsic && !allow_lut_intrinsics) {
      if (reason)
        *reason = "stateful codelet calls intrinsic '" + s.intrinsic +
                  "', which no stateful atom provides";
      return true;
    }
    if (s.kind == TacStmt::Kind::kBinary &&
        (s.op == domino::BinOp::kMul || s.op == domino::BinOp::kDiv ||
         s.op == domino::BinOp::kMod)) {
      if (reason)
        *reason = std::string("stateful codelet uses operator '") +
                  domino::binop_str(s.op) +
                  "', which no stateful atom provides";
      return true;
    }
  }
  return false;
}

void CodeletSpec::eval(util::Span<const Value> states_in,
                       util::Span<const Value> fields,
                       util::Span<Value> states_out,
                       util::Span<Value> liveouts, Scratch& scratch) const {
  // Scalar state view: valid because all accesses to an array within one
  // transaction use the same index (enforced by sema).
  std::vector<Value>& state_val = scratch.state_val;
  state_val.assign(states_in.begin(), states_in.end());
  // Dense field environment indexed by CompiledTac's interned ids; fields the
  // codelet never writes read as zero, like the by-name evaluator.
  std::vector<Value>& env = scratch.env;
  env.assign(compiled_.num_fields(), 0);
  for (std::size_t i = 0; i < input_fields_.size(); ++i)
    if (input_index_[i]) env[*input_index_[i]] = fields[i];

  using C = domino::CompiledTac;
  const auto& stmts = compiled_.stmts();
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const C::RStmt& s = stmts[i];
    switch (s.kind) {
      case TacStmt::Kind::kReadState:
        env[s.dst] = state_val[stmt_state_index_[i]];
        break;
      case TacStmt::Kind::kWriteState:
        state_val[stmt_state_index_[i]] = C::eval_operand(s.a, env);
        break;
      default: {
        // Pure packet-field statement; no state store needed.
        static thread_local banzai::StateStore empty_store;
        compiled_.exec_stmt(s, env, empty_store);
        break;
      }
    }
  }

  for (std::size_t k = 0; k < state_vars_.size(); ++k)
    states_out[k] = state_val[k];
  for (std::size_t i = 0; i < liveout_fields_.size(); ++i)
    liveouts[i] = liveout_index_[i] ? env[*liveout_index_[i]] : 0;
}

}  // namespace synthesis
