#include "ir/tac.h"

#include <sstream>

#include "ir/intrinsics.h"

namespace domino {

std::vector<std::string> TacStmt::fields_read() const {
  std::vector<std::string> out;
  auto add = [&out](const Operand& o) {
    if (o.is_field()) out.push_back(o.field);
  };
  switch (kind) {
    case Kind::kCopy:
    case Kind::kUnary:
      add(a);
      break;
    case Kind::kBinary:
      add(a);
      add(b);
      break;
    case Kind::kTernary:
      add(a);
      add(b);
      add(c);
      break;
    case Kind::kIntrinsic:
      for (const auto& arg : args) add(arg);
      break;
    case Kind::kReadState:
      if (state_is_array) add(index);
      break;
    case Kind::kWriteState:
      add(a);
      if (state_is_array) add(index);
      break;
  }
  return out;
}

std::optional<std::string> TacStmt::field_written() const {
  if (kind == Kind::kWriteState) return std::nullopt;
  return dst;
}

std::string TacStmt::str() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kCopy:
      os << "pkt." << dst << " = " << a.str() << ";";
      break;
    case Kind::kUnary:
      os << "pkt." << dst << " = " << unop_str(un_op) << a.str() << ";";
      break;
    case Kind::kBinary:
      os << "pkt." << dst << " = " << a.str() << " " << binop_str(op) << " "
         << b.str() << ";";
      break;
    case Kind::kTernary:
      os << "pkt." << dst << " = " << a.str() << " ? " << b.str() << " : "
         << c.str() << ";";
      break;
    case Kind::kIntrinsic: {
      os << "pkt." << dst << " = " << intrinsic << "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ", ";
        os << args[i].str();
      }
      os << ")";
      if (intrinsic_mod > 0) os << " % " << intrinsic_mod;
      os << ";";
      break;
    }
    case Kind::kReadState:
      os << "pkt." << dst << " = " << state_var;
      if (state_is_array) os << "[" << index.str() << "]";
      os << ";";
      break;
    case Kind::kWriteState:
      os << state_var;
      if (state_is_array) os << "[" << index.str() << "]";
      os << " = " << a.str() << ";";
      break;
  }
  return os.str();
}

std::string TacProgram::str() const {
  std::ostringstream os;
  for (const auto& s : stmts) os << s.str() << "\n";
  return os.str();
}

std::uint32_t CompiledTac::intern(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

CompiledTac::ROperand CompiledTac::resolve(const Operand& op) {
  ROperand r;
  if (op.is_const()) {
    r.is_const = true;
    r.cst = op.cst;
  } else {
    r.is_const = false;
    r.idx = intern(op.field);
  }
  return r;
}

CompiledTac::CompiledTac(const std::vector<TacStmt>& stmts) {
  stmts_.reserve(stmts.size());
  for (const TacStmt& s : stmts) {
    RStmt r;
    r.kind = s.kind;
    if (!s.dst.empty()) r.dst = intern(s.dst);
    r.a = resolve(s.a);
    r.b = resolve(s.b);
    r.c = resolve(s.c);
    r.un_op = s.un_op;
    r.op = s.op;
    r.state_var = s.state_var;
    r.state_is_array = s.state_is_array;
    r.index = resolve(s.index);
    r.intrinsic = s.intrinsic;
    r.args.reserve(s.args.size());
    for (const Operand& a : s.args) r.args.push_back(resolve(a));
    r.intrinsic_mod = s.intrinsic_mod;
    stmts_.push_back(std::move(r));
  }
}

void CompiledTac::exec_stmt(const RStmt& stmt, std::vector<Value>& env,
                            banzai::StateStore& state) const {
  switch (stmt.kind) {
    case TacStmt::Kind::kCopy:
      env[stmt.dst] = eval_operand(stmt.a, env);
      break;
    case TacStmt::Kind::kUnary:
      env[stmt.dst] = eval_unop(stmt.un_op, eval_operand(stmt.a, env));
      break;
    case TacStmt::Kind::kBinary:
      env[stmt.dst] = eval_binop(stmt.op, eval_operand(stmt.a, env),
                                 eval_operand(stmt.b, env));
      break;
    case TacStmt::Kind::kTernary:
      env[stmt.dst] = eval_operand(stmt.a, env) != 0
                          ? eval_operand(stmt.b, env)
                          : eval_operand(stmt.c, env);
      break;
    case TacStmt::Kind::kIntrinsic: {
      // Reused scratch: this runs in the synthesis inner loop, where a
      // per-statement allocation would swamp the O(1) field accesses.
      static thread_local std::vector<Value> argv;
      argv.clear();
      argv.reserve(stmt.args.size());
      for (const ROperand& a : stmt.args) argv.push_back(eval_operand(a, env));
      Value v = eval_intrinsic(stmt.intrinsic, argv);
      if (stmt.intrinsic_mod > 0) v = banzai::total_mod(v, stmt.intrinsic_mod);
      env[stmt.dst] = v;
      break;
    }
    case TacStmt::Kind::kReadState: {
      auto& var = state.var(stmt.state_var);
      env[stmt.dst] = stmt.state_is_array
                          ? var.load(eval_operand(stmt.index, env))
                          : var.load_scalar();
      break;
    }
    case TacStmt::Kind::kWriteState: {
      auto& var = state.var(stmt.state_var);
      Value v = eval_operand(stmt.a, env);
      if (stmt.state_is_array)
        var.store(eval_operand(stmt.index, env), v);
      else
        var.store_scalar(v);
      break;
    }
  }
}

}  // namespace domino
