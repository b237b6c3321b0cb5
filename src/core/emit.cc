#include "core/emit.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "banzai/native.h"

namespace domino {

using banzai::CompiledPipeline;
using banzai::IntrinsicKind;
using banzai::IntrinsicOp;
using banzai::KArm;
using banzai::KArmOp;
using banzai::KOp;
using banzai::KPred;
using banzai::KRef;
using banzai::KRel;
using banzai::KSrc;
using banzai::MicroOp;
using banzai::StatefulOp;
using banzai::Value;

namespace {

// The self-contained prelude of every generated translation unit: the total
// arithmetic of banzai/value.h and the hash mixer of ir/intrinsics.cc
// (duplicated textually — the .so must link against nothing) and the ABI
// PODs, layout-identical to NativeStateView / NativeAbi in banzai/native.h:
// `states` is the per-row table, so row `pi` reaches state slot `k` through
// `abi->states[pi][k]`.  Keep the four in sync; the corpus differentials
// (native vs kernel VM) pin the duplicated arithmetic bit-exactly.
constexpr const char* kPrelude = R"(#include <cstddef>
#include <cstdint>

namespace {

using Value = std::int32_t;

inline Value wrap_add(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) +
                            static_cast<std::uint32_t>(b));
}
inline Value wrap_sub(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) -
                            static_cast<std::uint32_t>(b));
}
inline Value wrap_mul(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) *
                            static_cast<std::uint32_t>(b));
}
inline Value total_div(Value a, Value b) {
  if (b == 0) return 0;
  if (a == INT32_MIN && b == -1) return INT32_MIN;
  return a / b;
}
inline Value total_mod(Value a, Value b) {
  if (b == 0) return 0;
  if (a == INT32_MIN && b == -1) return 0;
  return a % b;
}
inline Value shift_left(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a)
                            << (static_cast<std::uint32_t>(b) & 31u));
}
inline Value shift_right(Value a, Value b) {
  return a >> (static_cast<std::uint32_t>(b) & 31u);
}
inline std::uint32_t hash_mix(std::uint32_t h, std::uint32_t v) {
  h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  return h;
}

}  // namespace

extern "C" {

struct DominoNativeStateView {
  Value* cells;
  std::uint64_t size;
};

struct DominoNativeAbi {
  const DominoNativeStateView* const* states;
  Value (*const* intrinsics)(const Value*, std::size_t);
  Value (*const* luts)(Value);
};
)";

// The counters twin of kPrelude (NativeEmitOptions::stage_counters): same
// arithmetic helpers plus a monotonic-nanosecond read, and the ABI POD grown
// by the stage-counters pointer — layout-identical to the 4-member NativeAbi
// of banzai/native.h, of which the default POD above is a strict prefix.
// Kept as a verbatim second constant rather than assembled from fragments:
// the default prelude's bytes must not depend on the counters option
// (content-hash cache), and a reviewer diffing the two raw strings sees
// exactly the counted additions.
// Keep the shared middle in sync with kPrelude.
constexpr const char* kPreludeCounters = R"(#include <chrono>
#include <cstddef>
#include <cstdint>

namespace {

using Value = std::int32_t;

inline Value wrap_add(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) +
                            static_cast<std::uint32_t>(b));
}
inline Value wrap_sub(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) -
                            static_cast<std::uint32_t>(b));
}
inline Value wrap_mul(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a) *
                            static_cast<std::uint32_t>(b));
}
inline Value total_div(Value a, Value b) {
  if (b == 0) return 0;
  if (a == INT32_MIN && b == -1) return INT32_MIN;
  return a / b;
}
inline Value total_mod(Value a, Value b) {
  if (b == 0) return 0;
  if (a == INT32_MIN && b == -1) return 0;
  return a % b;
}
inline Value shift_left(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint32_t>(a)
                            << (static_cast<std::uint32_t>(b) & 31u));
}
inline Value shift_right(Value a, Value b) {
  return a >> (static_cast<std::uint32_t>(b) & 31u);
}
inline std::uint32_t hash_mix(std::uint32_t h, std::uint32_t v) {
  h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  return h;
}
inline std::uint64_t domino_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

extern "C" {

struct DominoNativeStateView {
  Value* cells;
  std::uint64_t size;
};

struct DominoStageCounterRow {
  std::uint64_t packets;
  std::uint64_t ops;
  std::uint64_t ns;
};

struct DominoNativeAbi {
  const DominoNativeStateView* const* states;
  Value (*const* intrinsics)(const Value*, std::size_t);
  Value (*const* luts)(Value);
  DominoStageCounterRow* stage_counters;
};
)";

// Field N of the current packet: ops read and write `f[N]` of the packet's
// field array.
std::string field_expr(std::uint32_t f) {
  return "f[" + std::to_string(f) + "]";
}

std::string literal(Value v) {
  // INT32_MIN has no decimal literal in C++; every other value prints as-is.
  if (v == INT32_MIN) return "(-2147483647 - 1)";
  return std::to_string(v);
}

std::string src_expr(const KSrc& s) {
  return s.is_const ? literal(s.cst) : field_expr(s.field);
}

// A stateful-template operand inside the op's block: `in0`/`in1` are the
// pre-update state loads declared at the top of the block.
std::string ref_expr(const KRef& r) {
  switch (r.kind) {
    case KRef::Kind::kConst: return literal(r.cst);
    case KRef::Kind::kField: return field_expr(r.field);
    case KRef::Kind::kState: return "in" + std::to_string(r.state_idx);
  }
  return "0";
}

std::string pred_expr(const KPred& p) {
  const char* rel = "";
  switch (p.rel) {
    case KRel::kAlways: return "true";
    case KRel::kLt: rel = "<"; break;
    case KRel::kLe: rel = "<="; break;
    case KRel::kGt: rel = ">"; break;
    case KRel::kGe: rel = ">="; break;
    case KRel::kEq: rel = "=="; break;
    case KRel::kNe: rel = "!="; break;
  }
  return ref_expr(p.a) + " " + rel + " " + ref_expr(p.b);
}

// The update-arm value for state k of one leaf; `x` is the pre-update value.
std::string arm_expr(const KArmOp& arm, std::size_t k, std::uint32_t lut_idx) {
  const std::string x = "in" + std::to_string(k);
  const std::string s1 = ref_expr(arm.src1);
  const std::string s2 = ref_expr(arm.src2);
  switch (arm.mode) {
    case KArm::kKeep: return x;
    case KArm::kSet: return s1;
    case KArm::kAdd: return "wrap_add(" + x + ", " + s1 + ")";
    case KArm::kSubt: return "wrap_sub(" + x + ", " + s1 + ")";
    case KArm::kSetAdd: return "wrap_add(" + s1 + ", " + s2 + ")";
    case KArm::kSetSub: return "wrap_sub(" + s1 + ", " + s2 + ")";
    case KArm::kAddSub:
      return "wrap_sub(wrap_add(" + x + ", " + s1 + "), " + s2 + ")";
    case KArm::kLutAdd:
      return "wrap_add(abi->luts[" + std::to_string(lut_idx) + "](" + s1 +
             "), " + s2 + ")";
  }
  return x;
}

std::string alu_expr(const MicroOp& op) {
  const std::string a = src_expr(op.a);
  const std::string b = src_expr(op.b);
  switch (op.code) {
    case KOp::kMov: return a;
    case KOp::kNeg: return "wrap_sub(0, " + a + ")";
    case KOp::kLNot: return "(" + a + " == 0 ? 1 : 0)";
    case KOp::kBitNot: return "~" + a;
    case KOp::kAdd: return "wrap_add(" + a + ", " + b + ")";
    case KOp::kSub: return "wrap_sub(" + a + ", " + b + ")";
    case KOp::kMul: return "wrap_mul(" + a + ", " + b + ")";
    case KOp::kDiv: return "total_div(" + a + ", " + b + ")";
    case KOp::kMod: return "total_mod(" + a + ", " + b + ")";
    case KOp::kShl: return "shift_left(" + a + ", " + b + ")";
    case KOp::kShr: return "shift_right(" + a + ", " + b + ")";
    case KOp::kBitAnd: return "(" + a + " & " + b + ")";
    case KOp::kBitOr: return "(" + a + " | " + b + ")";
    case KOp::kBitXor: return "(" + a + " ^ " + b + ")";
    case KOp::kLAnd: return "((" + a + " != 0 && " + b + " != 0) ? 1 : 0)";
    case KOp::kLOr: return "((" + a + " != 0 || " + b + " != 0) ? 1 : 0)";
    case KOp::kLt: return "(" + a + " < " + b + " ? 1 : 0)";
    case KOp::kLe: return "(" + a + " <= " + b + " ? 1 : 0)";
    case KOp::kGt: return "(" + a + " > " + b + " ? 1 : 0)";
    case KOp::kGe: return "(" + a + " >= " + b + " ? 1 : 0)";
    case KOp::kEq: return "(" + a + " == " + b + " ? 1 : 0)";
    case KOp::kNe: return "(" + a + " != " + b + " ? 1 : 0)";
    case KOp::kSelect:
      return "(" + a + " != 0 ? " + b + " : " + src_expr(op.c) + ")";
    case KOp::kIntrinsic:
    case KOp::kStateful:
      break;  // handled by their own emitters
  }
  return "0";
}

// Seed literal for an inlineable hash intrinsic, or nullptr for opaque
// bodies.  Values must match ir/intrinsics.cc (hash2/hash3/hash4); the
// corpus differentials hold the duplicated definition bit-exact.
const char* hash_seed_literal(IntrinsicKind kind) {
  switch (kind) {
    case IntrinsicKind::kHash2: return "0xdeadbeefu";
    case IntrinsicKind::kHash3: return "0xcafef00du";
    case IntrinsicKind::kHash4: return "0x8badf00du";
    case IntrinsicKind::kOpaque: return nullptr;
  }
  return nullptr;
}

// The inline twin of ir/intrinsics.cc's hash_n: seed, one hash_mix per
// argument, mask to non-negative.  Straight-line integer ops instead of a
// call through the ABI function-pointer table.
void emit_inline_hash(std::ostringstream& os, const MicroOp& op,
                      const IntrinsicOp& io, const std::string& ind) {
  os << ind << "{\n";
  os << ind << "  std::uint32_t h = " << hash_seed_literal(io.kind) << ";\n";
  for (std::size_t a = 0; a < io.num_args; ++a)
    os << ind << "  h = hash_mix(h, static_cast<std::uint32_t>("
       << src_expr(io.args[a]) << "));\n";
  os << ind << "  " << field_expr(op.dst)
     << " = static_cast<Value>(h & 0x7fffffffu);\n";
  os << ind << "}\n";
  if (io.mod > 0)
    os << ind << field_expr(op.dst) << " = total_mod(" << field_expr(op.dst)
       << ", " << literal(io.mod) << ");\n";
}

// An opaque intrinsic: argument marshalling plus a call through the ABI
// function-pointer table.
void emit_opaque_intrinsic(std::ostringstream& os, const MicroOp& op,
                           const IntrinsicOp& io, const std::string& ind) {
  os << ind << "{\n";
  if (io.num_args > 0) {
    os << ind << "  const Value argv[" << int(io.num_args) << "] = {";
    for (std::size_t a = 0; a < io.num_args; ++a)
      os << (a ? ", " : "") << src_expr(io.args[a]);
    os << "};\n";
    os << ind << "  Value v = abi->intrinsics[" << op.aux << "](argv, "
       << int(io.num_args) << ");\n";
  } else {
    os << ind << "  Value v = abi->intrinsics[" << op.aux
       << "](nullptr, 0);\n";
  }
  if (io.mod > 0)
    os << ind << "  v = total_mod(v, " << literal(io.mod) << ");\n";
  os << ind << "  " << field_expr(op.dst) << " = v;\n";
  os << ind << "}\n";
}

void emit_intrinsic(std::ostringstream& os, const MicroOp& op,
                    const IntrinsicOp& io, const std::string& ind) {
  if (hash_seed_literal(io.kind) != nullptr)
    emit_inline_hash(os, op, io, ind);
  else
    emit_opaque_intrinsic(os, op, io, ind);
}

// One leaf of the decision tree: the update arms for every owned state.
// Arms read only `in0`/`in1` (pre-update values), packet fields and
// constants, so assignment order within a leaf is immaterial.
void emit_leaf(std::ostringstream& os, const StatefulOp& so,
               std::size_t leaf, std::uint32_t lut_idx,
               const std::string& indent) {
  for (std::size_t k = 0; k < so.num_states; ++k) {
    const KArmOp& arm = so.arms[leaf][k];
    if (arm.mode == KArm::kKeep) continue;  // out{k} already holds in{k}
    os << indent << "out" << k << " = " << arm_expr(arm, k, lut_idx) << ";\n";
  }
}

// The per-packet block of one stateful op: state-view bindings (through the
// row's own view array, abi->states[pi]), state loads, decision tree, state
// stores, live-out publication.
void emit_stateful(std::ostringstream& os, const CompiledPipeline& prog,
                   const MicroOp& op) {
  const StatefulOp& so = prog.stateful_pool()[op.aux];
  const std::string base = "      ";
  os << "    {  // stateful #" << op.aux;
  for (std::size_t k = 0; k < so.num_states; ++k)
    os << " s" << k << "=" << prog.state_names()[so.slots[k].var];
  os << "\n";
  for (std::size_t k = 0; k < so.num_states; ++k)
    os << base << "const DominoNativeStateView& s" << k
       << " = abi->states[pi][" << so.slots[k].var << "];\n";
  // Loads: every arm and predicate sees the pre-update values.
  for (std::size_t k = 0; k < so.num_states; ++k) {
    const StatefulOp::Slot& slot = so.slots[k];
    if (slot.is_array) {
      // Mirrors StateVar::clamp: wrap hostile indices like truncated
      // hardware address lines.
      os << base << "const std::uint64_t x" << k
         << " = static_cast<std::uint64_t>(static_cast<std::uint32_t>("
         << field_expr(slot.index_field) << ")) % s" << k << ".size;\n";
      os << base << "const Value in" << k << " = s" << k << ".cells[x" << k
         << "];\n";
    } else {
      os << base << "const Value in" << k << " = s" << k << ".cells[0];\n";
    }
  }
  for (std::size_t k = 0; k < so.num_states; ++k)
    os << base << "Value out" << k << " = in" << k << ";\n";
  // The decision tree, as real branches.
  if (so.pred_levels == 0) {
    emit_leaf(os, so, 0, op.aux, base);
  } else if (so.pred_levels == 1) {
    os << base << "if (" << pred_expr(so.preds[0]) << ") {\n";
    emit_leaf(os, so, 0, op.aux, base + "  ");
    os << base << "} else {\n";
    emit_leaf(os, so, 1, op.aux, base + "  ");
    os << base << "}\n";
  } else {
    os << base << "if (" << pred_expr(so.preds[0]) << ") {\n";
    os << base << "  if (" << pred_expr(so.preds[1]) << ") {\n";
    emit_leaf(os, so, 0, op.aux, base + "    ");
    os << base << "  } else {\n";
    emit_leaf(os, so, 1, op.aux, base + "    ");
    os << base << "  }\n";
    os << base << "} else {\n";
    os << base << "  if (" << pred_expr(so.preds[2]) << ") {\n";
    emit_leaf(os, so, 2, op.aux, base + "    ");
    os << base << "  } else {\n";
    emit_leaf(os, so, 3, op.aux, base + "    ");
    os << base << "  }\n";
    os << base << "}\n";
  }
  // Stores, then live-out publication.
  for (std::size_t k = 0; k < so.num_states; ++k) {
    if (so.slots[k].is_array)
      os << base << "s" << k << ".cells[x" << k << "] = out" << k << ";\n";
    else
      os << base << "s" << k << ".cells[0] = out" << k << ";\n";
  }
  for (std::uint32_t l = so.liveout_begin; l < so.liveout_end; ++l) {
    const banzai::KLiveOut& lo = prog.liveout_pool()[l];
    os << base << field_expr(lo.dst) << " = "
       << (lo.use_new ? "out" : "in") << int(lo.state_idx) << ";\n";
  }
  os << "    }\n";
}

void emit_rows_ops(std::ostringstream& os, const CompiledPipeline& prog,
                   std::uint32_t begin, std::uint32_t end) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const MicroOp& op = prog.ops()[i];
    switch (op.code) {
      case KOp::kIntrinsic:
        emit_intrinsic(os, op, prog.intrinsic_pool()[op.aux], "    ");
        break;
      case KOp::kStateful:
        emit_stateful(os, prog, op);
        break;
      default:
        os << "    f[" << op.dst << "] = " << alu_expr(op) << ";\n";
        break;
    }
  }
}

void emit_rows_body(std::ostringstream& os, const CompiledPipeline& prog) {
  const auto& stages = prog.stage_ranges();
  for (std::size_t si = 0; si < stages.size(); ++si) {
    os << "    // ---- stage " << si << " ----\n";
    emit_rows_ops(os, prog, stages[si].begin, stages[si].end);
  }
}

// The counted increment for stage si: packets, micro-ops retired, wall ns —
// identical accounting to CompiledPipeline::run_batch_counted so kernel and
// native totals are comparable op for op.
void emit_counter_update(std::ostringstream& os, std::size_t si,
                         std::uint32_t num_ops) {
  os << "    if (ctr) {\n"
     << "      ctr[" << si << "].packets += n;\n"
     << "      ctr[" << si << "].ops += " << num_ops << "ull * n;\n"
     << "      ctr[" << si << "].ns += domino_now_ns() - t0;\n"
     << "    }\n";
}

// Counted row body: stage-major (all packets through stage s, then s+1 — the
// BatchSim order, legal by §2.3 state locality) so one clock read brackets
// the whole batch per stage instead of every packet paying two.
void emit_rows_body_counted(std::ostringstream& os,
                            const CompiledPipeline& prog) {
  const auto& stages = prog.stage_ranges();
  for (std::size_t si = 0; si < stages.size(); ++si) {
    os << "  {  // ---- stage " << si << " ----\n"
       << "    const std::uint64_t t0 = ctr ? domino_now_ns() : 0;\n"
       << "    for (std::uint64_t pi = 0; pi < n; ++pi) {\n"
       << "    Value* const f = pkts[pi];\n";
    emit_rows_ops(os, prog, stages[si].begin, stages[si].end);
    os << "    }\n";
    emit_counter_update(os, si, stages[si].end - stages[si].begin);
    os << "  }\n";
  }
}

}  // namespace

std::string emit_native_cc(const CompiledPipeline& prog,
                           const NativeEmitOptions& opts) {
  if (!prog.sealed())
    throw std::logic_error("emit_native_cc: program is not sealed");
  std::ostringstream os;
  os << "// Generated by domino (core/emit.cc) — do not edit.\n"
     << "// One sealed CompiledPipeline as straight-line C++: " << prog.num_ops()
     << " ops over " << prog.num_stages() << " stages, " << prog.num_fields()
     << " packet fields, " << prog.num_state_vars() << " state vars.\n";
  if (opts.stage_counters)
    os << "// Emitted with per-stage counters (DOMINO_STAGE_COUNTERS): the\n"
       << "// body runs stage-major, bracketing each stage's batch loop\n"
       << "// with monotonic-clock reads against abi->stage_counters.\n";
  if (prog.num_state_vars() > 0) {
    os << "// State table (row pi reads slot k as abi->states[pi][k]):\n";
    for (std::size_t k = 0; k < prog.state_names().size(); ++k)
      os << "//   states[" << k << "] = " << prog.state_names()[k] << "\n";
  }
  os << (opts.stage_counters ? kPreludeCounters : kPrelude);

  // The entry point: one outer packet loop, ops addressing f[N] and state
  // through the row's views.  The counted form inverts the nesting
  // (stage-major) so each stage's wall time covers the whole batch with two
  // clock reads.
  os << "\nvoid " << banzai::kNativeEntrySymbol
     << "(Value* const* pkts, std::uint64_t n,\n"
     << "     const DominoNativeAbi* abi) {\n";
  if (opts.stage_counters) {
    os << "  DominoStageCounterRow* const ctr = abi->stage_counters;\n";
    emit_rows_body_counted(os, prog);
  } else {
    os << "  for (std::uint64_t pi = 0; pi < n; ++pi) {\n"
       << "    Value* const f = pkts[pi];\n";
    emit_rows_body(os, prog);
    os << "  }\n";
  }
  os << "}\n"
     << "\n}  // extern \"C\"\n";
  return os.str();
}

}  // namespace domino
