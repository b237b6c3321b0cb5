// Three-address code (§4.1 "Flattening to three-address code").
//
// After normalization every instruction is either a read/write of a state
// variable or an operation on packet fields:
//     pkt.f = pkt.g op pkt.h;          (binary; operands may be constants)
//     pkt.f = pkt.c ? pkt.a : pkt.b;   (conditional — 4 arguments)
//     pkt.f = intrinsic(...) [% mod];  (hash units etc.)
//     pkt.f = state;  pkt.f = state[pkt.idx];   (read flank)
//     state = pkt.f;  state[pkt.idx] = pkt.f;   (write flank)
//
// The `% mod` attachment on intrinsics reflects hash generator hardware that
// produces an index into a memory of a given size; the front end folds
// `hashK(...) % CONST` into a single unit, mirroring the flowlet example
// (Figure 3b keeps `hash2(...) % NUM_FLOWLETS` as one box).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "banzai/state.h"
#include "banzai/value.h"
#include "ir/diag.h"
#include "ir/ops.h"

namespace domino {

struct Operand {
  enum class Kind { kField, kConst };
  Kind kind = Kind::kConst;
  std::string field;
  Value cst = 0;

  static Operand make_field(std::string name) {
    Operand o;
    o.kind = Kind::kField;
    o.field = std::move(name);
    return o;
  }
  static Operand make_const(Value v) {
    Operand o;
    o.kind = Kind::kConst;
    o.cst = v;
    return o;
  }

  bool is_field() const { return kind == Kind::kField; }
  bool is_const() const { return kind == Kind::kConst; }
  std::string str() const {
    return is_field() ? ("pkt." + field) : std::to_string(cst);
  }
  bool operator==(const Operand& o) const {
    return kind == o.kind && field == o.field && cst == o.cst;
  }
};

struct TacStmt {
  enum class Kind {
    kCopy,       // dst = a
    kUnary,      // dst = un_op a
    kBinary,     // dst = a op b
    kTernary,    // dst = a ? b : c
    kIntrinsic,  // dst = intrinsic(args) [% intrinsic_mod]
    kReadState,  // dst = state_var[index?]
    kWriteState, // state_var[index?] = a
  };

  Kind kind = Kind::kCopy;
  SourceLoc loc;

  std::string dst;  // destination packet field (empty for kWriteState)
  Operand a, b, c;
  UnOp un_op = UnOp::kNeg;
  BinOp op = BinOp::kAdd;

  std::string state_var;
  bool state_is_array = false;
  Operand index;  // a packet field after normalization

  std::string intrinsic;
  std::vector<Operand> args;
  Value intrinsic_mod = 0;  // 0 means "no modulus"

  bool reads_state() const { return kind == Kind::kReadState; }
  bool writes_state() const { return kind == Kind::kWriteState; }
  bool touches_state() const { return reads_state() || writes_state(); }

  // Packet fields read by this statement (including array indices).
  std::vector<std::string> fields_read() const;
  // Packet field written, if any.
  std::optional<std::string> field_written() const;

  std::string str() const;
  bool operator==(const TacStmt& o) const {
    return kind == o.kind && dst == o.dst && a == o.a && b == o.b &&
           c == o.c && un_op == o.un_op && op == o.op &&
           state_var == o.state_var && state_is_array == o.state_is_array &&
           index == o.index && intrinsic == o.intrinsic && args == o.args &&
           intrinsic_mod == o.intrinsic_mod;
  }
};

// A normalized transaction: straight-line three-address code plus the state
// declarations it references.
struct TacProgram {
  std::vector<TacStmt> stmts;
  std::string str() const;
};

// --- Evaluation -------------------------------------------------------------

// Per-program compiled TAC evaluator.  Construction walks the statements
// once, interning every packet-field name into a dense index; execution then
// reads and writes a flat Value array, so each operand access is O(1).
// Fields start at zero (packet temporaries start uninitialized-as-zero,
// matching the simulator).
class CompiledTac {
 public:
  struct ROperand {
    bool is_const = true;
    Value cst = 0;
    std::uint32_t idx = 0;  // field index when !is_const
  };

  // A TacStmt with every field name replaced by its dense index.  The state
  // variable keeps its name: the StateStore is supplied per execution and may
  // differ between calls.
  struct RStmt {
    TacStmt::Kind kind = TacStmt::Kind::kCopy;
    std::uint32_t dst = 0;  // unused for kWriteState
    ROperand a, b, c;
    UnOp un_op = UnOp::kNeg;
    BinOp op = BinOp::kAdd;
    std::string state_var;
    bool state_is_array = false;
    ROperand index;
    std::string intrinsic;
    std::vector<ROperand> args;
    Value intrinsic_mod = 0;
  };

  explicit CompiledTac(const std::vector<TacStmt>& stmts);
  explicit CompiledTac(const TacProgram& prog) : CompiledTac(prog.stmts) {}

  std::size_t num_fields() const { return names_.size(); }
  const std::vector<std::string>& field_names() const { return names_; }
  const std::vector<RStmt>& stmts() const { return stmts_; }

  // Dense index of `name`, or nullopt if the program never touches it.
  std::optional<std::uint32_t> index_of(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  // A zeroed environment sized for this program.
  std::vector<Value> make_env() const {
    return std::vector<Value>(names_.size(), 0);
  }

  static Value eval_operand(const ROperand& op, const std::vector<Value>& env) {
    return op.is_const ? op.cst : env[op.idx];
  }

  // Executes one resolved statement / the whole program.  env.size() must be
  // num_fields().
  void exec_stmt(const RStmt& stmt, std::vector<Value>& env,
                 banzai::StateStore& state) const;
  void exec(std::vector<Value>& env, banzai::StateStore& state) const {
    for (const RStmt& s : stmts_) exec_stmt(s, env, state);
  }

 private:
  std::uint32_t intern(const std::string& name);
  ROperand resolve(const Operand& op);

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<RStmt> stmts_;
};

}  // namespace domino
