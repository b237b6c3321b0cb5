#include "banzai/kernel.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "banzai/stats.h"

namespace banzai {

namespace {

constexpr std::size_t kInlineStateVars = 16;

const char* kop_name(KOp code) {
  switch (code) {
    case KOp::kMov: return "mov";
    case KOp::kNeg: return "neg";
    case KOp::kLNot: return "lnot";
    case KOp::kBitNot: return "bnot";
    case KOp::kAdd: return "add";
    case KOp::kSub: return "sub";
    case KOp::kMul: return "mul";
    case KOp::kDiv: return "div";
    case KOp::kMod: return "mod";
    case KOp::kShl: return "shl";
    case KOp::kShr: return "shr";
    case KOp::kBitAnd: return "and";
    case KOp::kBitOr: return "or";
    case KOp::kBitXor: return "xor";
    case KOp::kLAnd: return "land";
    case KOp::kLOr: return "lor";
    case KOp::kLt: return "lt";
    case KOp::kLe: return "le";
    case KOp::kGt: return "gt";
    case KOp::kGe: return "ge";
    case KOp::kEq: return "eq";
    case KOp::kNe: return "ne";
    case KOp::kSelect: return "sel";
    case KOp::kIntrinsic: return "intrin";
    case KOp::kStateful: return "stateful";
  }
  return "?";
}

const char* krel_name(KRel rel) {
  switch (rel) {
    case KRel::kAlways: return "always";
    case KRel::kLt: return "<";
    case KRel::kLe: return "<=";
    case KRel::kGt: return ">";
    case KRel::kGe: return ">=";
    case KRel::kEq: return "==";
    case KRel::kNe: return "!=";
  }
  return "?";
}

const char* karm_name(KArm mode) {
  switch (mode) {
    case KArm::kKeep: return "keep";
    case KArm::kSet: return "set";
    case KArm::kAdd: return "add";
    case KArm::kSubt: return "sub";
    case KArm::kSetAdd: return "set+";
    case KArm::kSetSub: return "set-";
    case KArm::kAddSub: return "add-sub";
    case KArm::kLutAdd: return "lut+";
  }
  return "?";
}

std::string src_str(const KSrc& s) {
  return s.is_const ? std::to_string(s.cst) : "f" + std::to_string(s.field);
}

std::string ref_str(const KRef& r) {
  switch (r.kind) {
    case KRef::Kind::kConst: return std::to_string(r.cst);
    case KRef::Kind::kField: return "f" + std::to_string(r.field);
    case KRef::Kind::kState: return "s" + std::to_string(r.state_idx);
  }
  return "?";
}

int operand_count(KOp code) {
  switch (code) {
    case KOp::kMov:
    case KOp::kNeg:
    case KOp::kLNot:
    case KOp::kBitNot:
      return 1;
    case KOp::kSelect:
      return 3;
    default:
      return 2;
  }
}

bool eval_pred(const KPred& pred, const Packet& p, const Value* states_in) {
  if (pred.rel == KRel::kAlways) return true;
  const Value a = pred.a.get(p, states_in);
  const Value b = pred.b.get(p, states_in);
  switch (pred.rel) {
    case KRel::kAlways: return true;
    case KRel::kLt: return a < b;
    case KRel::kLe: return a <= b;
    case KRel::kGt: return a > b;
    case KRel::kGe: return a >= b;
    case KRel::kEq: return a == b;
    case KRel::kNe: return a != b;
  }
  return false;
}

Value eval_arm(const KArmOp& arm, Value x, const Packet& p,
               const Value* states_in, LutFn lut) {
  const Value s1 = arm.src1.get(p, states_in);
  const Value s2 = arm.src2.get(p, states_in);
  switch (arm.mode) {
    case KArm::kKeep: return x;
    case KArm::kSet: return s1;
    case KArm::kAdd: return wrap_add(x, s1);
    case KArm::kSubt: return wrap_sub(x, s1);
    case KArm::kSetAdd: return wrap_add(s1, s2);
    case KArm::kSetSub: return wrap_sub(s1, s2);
    case KArm::kAddSub: return wrap_sub(wrap_add(x, s1), s2);
    case KArm::kLutAdd: return wrap_add(lut(s1), s2);
  }
  return x;
}

}  // namespace

void CompiledPipeline::begin_stage() {
  const auto at = static_cast<std::uint32_t>(ops_.size());
  stages_.push_back({at, at});
}

void CompiledPipeline::require_open_stage() const {
  if (stages_.empty())
    throw std::logic_error(
        "CompiledPipeline: add an op before the first begin_stage()");
}

void CompiledPipeline::add_alu(KOp code, std::uint32_t dst, KSrc a, KSrc b,
                               KSrc c) {
  require_open_stage();
  MicroOp op;
  op.code = code;
  op.dst = dst;
  op.a = a;
  op.b = b;
  op.c = c;
  ops_.push_back(op);
  stages_.back().end = static_cast<std::uint32_t>(ops_.size());
}

void CompiledPipeline::add_intrinsic(std::uint32_t dst,
                                     const IntrinsicOp& payload) {
  require_open_stage();
  if (payload.fn == nullptr)
    throw std::logic_error("CompiledPipeline: intrinsic without a body");
  if (payload.num_args > IntrinsicOp::kMaxArgs)
    throw std::logic_error("CompiledPipeline: intrinsic arity exceeds pool");
  MicroOp op;
  op.code = KOp::kIntrinsic;
  op.dst = dst;
  op.aux = static_cast<std::uint32_t>(intrinsics_.size());
  intrinsics_.push_back(payload);
  ops_.push_back(op);
  stages_.back().end = static_cast<std::uint32_t>(ops_.size());
}

void CompiledPipeline::add_stateful(const StatefulOp& sop,
                                    const std::vector<KLiveOut>& liveouts) {
  require_open_stage();
  StatefulOp stored = sop;
  stored.liveout_begin = static_cast<std::uint32_t>(liveouts_.size());
  liveouts_.insert(liveouts_.end(), liveouts.begin(), liveouts.end());
  stored.liveout_end = static_cast<std::uint32_t>(liveouts_.size());
  MicroOp op;
  op.code = KOp::kStateful;
  op.aux = static_cast<std::uint32_t>(stateful_.size());
  stateful_.push_back(stored);
  ops_.push_back(op);
  stages_.back().end = static_cast<std::uint32_t>(ops_.size());
}

std::uint32_t CompiledPipeline::intern_state(const std::string& name) {
  auto it = state_index_.find(name);
  if (it != state_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(state_names_.size());
  state_names_.push_back(name);
  state_index_.emplace(name, id);
  return id;
}

void CompiledPipeline::seal(std::size_t num_fields) {
  num_fields_ = num_fields;
  verify_in_place_safe();
  sealed_ = true;
}

// In-place execution is only equivalent to Banzai's copy-in/copy-out stage
// semantics (every atom reads the stage-entry packet) when, within each
// stage, (a) no two ops write the same field and (b) no op reads a field an
// earlier op of the same stage writes.  The pipeliner guarantees both
// (same-stage codelets are mutually independent with disjoint outputs); this
// check turns a violated assumption into a loud compile-time failure instead
// of silent divergence.
void CompiledPipeline::verify_in_place_safe() const {
  auto op_reads = [&](const MicroOp& op, std::vector<std::uint32_t>& out) {
    out.clear();
    auto add_src = [&](const KSrc& s) {
      if (!s.is_const) out.push_back(s.field);
    };
    auto add_ref = [&](const KRef& r) {
      if (r.kind == KRef::Kind::kField) out.push_back(r.field);
    };
    switch (op.code) {
      case KOp::kIntrinsic: {
        const IntrinsicOp& io = intrinsics_[op.aux];
        for (std::size_t i = 0; i < io.num_args; ++i) add_src(io.args[i]);
        break;
      }
      case KOp::kStateful: {
        const StatefulOp& so = stateful_[op.aux];
        for (std::size_t k = 0; k < so.num_states; ++k)
          if (so.slots[k].is_array) out.push_back(so.slots[k].index_field);
        for (const KPred& pr : so.preds) {
          add_ref(pr.a);
          add_ref(pr.b);
        }
        for (const auto& leaf : so.arms)
          for (const KArmOp& arm : leaf) {
            add_ref(arm.src1);
            add_ref(arm.src2);
          }
        break;
      }
      default:
        add_src(op.a);
        add_src(op.b);
        add_src(op.c);
        break;
    }
  };
  auto op_writes = [&](const MicroOp& op, std::vector<std::uint32_t>& out) {
    out.clear();
    if (op.code == KOp::kStateful) {
      const StatefulOp& so = stateful_[op.aux];
      for (std::uint32_t l = so.liveout_begin; l < so.liveout_end; ++l)
        out.push_back(liveouts_[l].dst);
    } else {
      out.push_back(op.dst);
    }
  };

  // Op-major batching additionally relies on §2.3's state locality: every
  // state variable is owned by exactly one op program-wide, or interleaving
  // packets across ops would reorder that variable's update sequence.
  std::set<std::uint32_t> state_owned;
  for (const StatefulOp& so : stateful_)
    for (std::size_t k = 0; k < so.num_states; ++k)
      if (!state_owned.insert(so.slots[k].var).second)
        throw std::logic_error(
            "CompiledPipeline: state variable '" +
            state_names_[so.slots[k].var] +
            "' is owned by two stateful ops — op-major batching would "
            "reorder its updates");

  std::vector<std::uint32_t> reads, writes;
  for (const StageRange& st : stages_) {
    std::set<std::uint32_t> written;  // by earlier ops of this stage
    for (std::uint32_t i = st.begin; i < st.end; ++i) {
      op_reads(ops_[i], reads);
      for (std::uint32_t f : reads) {
        if (f >= num_fields_)
          throw std::logic_error(
              "CompiledPipeline: op reads field " + std::to_string(f) +
              " beyond the program's " + std::to_string(num_fields_) +
              " fields");
        if (written.count(f))
          throw std::logic_error(
              "CompiledPipeline: intra-stage read-after-write on field " +
              std::to_string(f) + " — stage is not in-place safe");
      }
      op_writes(ops_[i], writes);
      for (std::uint32_t f : writes) {
        if (f >= num_fields_)
          throw std::logic_error(
              "CompiledPipeline: op writes field " + std::to_string(f) +
              " beyond the program's " + std::to_string(num_fields_) +
              " fields");
        if (!written.insert(f).second)
          throw std::logic_error(
              "CompiledPipeline: two ops of one stage write field " +
              std::to_string(f));
      }
    }
  }
}

void CompiledPipeline::run(Packet& pkt, StateStore& state) const {
  StateVar* inline_vars[kInlineStateVars];
  std::vector<StateVar*> heap_vars;
  StateVar** vars = inline_vars;
  if (state_names_.size() > kInlineStateVars) {
    heap_vars.resize(state_names_.size());
    vars = heap_vars.data();
  }
  resolve_state(state, vars);
  StateVar* const* const row_vars[1] = {vars};
  run_batch_bound(&pkt, 1, row_vars);
}

void CompiledPipeline::run_batch_bound(Packet* pkts, std::size_t n,
                                       StateVar* const* const* row_vars) const {
  if (n == 0) return;
  if (!sealed_)
    throw std::logic_error("CompiledPipeline: run before seal()");
  for (std::size_t i = 0; i < n; ++i)
    if (pkts[i].num_fields() < num_fields_)
      throw std::invalid_argument(
          "CompiledPipeline: packet narrower than the compiled program's "
          "field table");
  run_ops_bound(0, static_cast<std::uint32_t>(ops_.size()), pkts, n,
                row_vars);
}

void CompiledPipeline::run_stage(std::size_t stage, Packet& pkt,
                                 StateStore& state) const {
  StateVar* inline_vars[kInlineStateVars];
  std::vector<StateVar*> heap_vars;
  StateVar** vars = inline_vars;
  if (state_names_.size() > kInlineStateVars) {
    heap_vars.resize(state_names_.size());
    vars = heap_vars.data();
  }
  resolve_state(state, vars);
  run_stage_bound(stage, pkt, vars);
}

void CompiledPipeline::run_stage_bound(std::size_t stage, Packet& pkt,
                                       StateVar* const* vars) const {
  if (!sealed_)
    throw std::logic_error("CompiledPipeline: run before seal()");
  if (stage >= stages_.size())
    throw std::out_of_range("CompiledPipeline: stage index out of range");
  if (pkt.num_fields() < num_fields_)
    throw std::invalid_argument(
        "CompiledPipeline: packet narrower than the compiled program's "
        "field table");
  const StageRange& r = stages_[stage];
  run_ops_bound(r.begin, r.end, &pkt, 1, &vars);
}

void CompiledPipeline::run_ops_bound(std::uint32_t first, std::uint32_t last,
                                     Packet* pkts, std::size_t n,
                                     StateVar* const* const* row_vars) const {
  // Op-major: one dispatch per op per batch, packets innermost.
  for (std::uint32_t oi = first; oi < last; ++oi) {
    const MicroOp& op = ops_[oi];
    auto unary = [&](auto f) {
      for (std::size_t i = 0; i < n; ++i) {
        Packet& p = pkts[i];
        p[op.dst] = f(op.a.get(p));
      }
    };
    auto binary = [&](auto f) {
      for (std::size_t i = 0; i < n; ++i) {
        Packet& p = pkts[i];
        p[op.dst] = f(op.a.get(p), op.b.get(p));
      }
    };
    switch (op.code) {
      case KOp::kMov:
        unary([](Value a) { return a; });
        break;
      case KOp::kNeg:
        unary([](Value a) { return wrap_sub(0, a); });
        break;
      case KOp::kLNot:
        unary([](Value a) { return a == 0 ? 1 : 0; });
        break;
      case KOp::kBitNot:
        unary([](Value a) { return ~a; });
        break;
      case KOp::kAdd:
        binary([](Value a, Value b) { return wrap_add(a, b); });
        break;
      case KOp::kSub:
        binary([](Value a, Value b) { return wrap_sub(a, b); });
        break;
      case KOp::kMul:
        binary([](Value a, Value b) { return wrap_mul(a, b); });
        break;
      case KOp::kDiv:
        binary([](Value a, Value b) { return total_div(a, b); });
        break;
      case KOp::kMod:
        binary([](Value a, Value b) { return total_mod(a, b); });
        break;
      case KOp::kShl:
        binary([](Value a, Value b) { return shift_left(a, b); });
        break;
      case KOp::kShr:
        binary([](Value a, Value b) { return shift_right(a, b); });
        break;
      case KOp::kBitAnd:
        binary([](Value a, Value b) { return a & b; });
        break;
      case KOp::kBitOr:
        binary([](Value a, Value b) { return a | b; });
        break;
      case KOp::kBitXor:
        binary([](Value a, Value b) { return a ^ b; });
        break;
      case KOp::kLAnd:
        binary([](Value a, Value b) { return (a != 0 && b != 0) ? 1 : 0; });
        break;
      case KOp::kLOr:
        binary([](Value a, Value b) { return (a != 0 || b != 0) ? 1 : 0; });
        break;
      case KOp::kLt:
        binary([](Value a, Value b) { return a < b ? 1 : 0; });
        break;
      case KOp::kLe:
        binary([](Value a, Value b) { return a <= b ? 1 : 0; });
        break;
      case KOp::kGt:
        binary([](Value a, Value b) { return a > b ? 1 : 0; });
        break;
      case KOp::kGe:
        binary([](Value a, Value b) { return a >= b ? 1 : 0; });
        break;
      case KOp::kEq:
        binary([](Value a, Value b) { return a == b ? 1 : 0; });
        break;
      case KOp::kNe:
        binary([](Value a, Value b) { return a != b ? 1 : 0; });
        break;
      case KOp::kSelect:
        for (std::size_t i = 0; i < n; ++i) {
          Packet& p = pkts[i];
          p[op.dst] = op.a.get(p) != 0 ? op.b.get(p) : op.c.get(p);
        }
        break;
      case KOp::kIntrinsic: {
        const IntrinsicOp& io = intrinsics_[op.aux];
        for (std::size_t i = 0; i < n; ++i) {
          Packet& p = pkts[i];
          Value argv[IntrinsicOp::kMaxArgs];
          for (std::size_t j = 0; j < io.num_args; ++j)
            argv[j] = io.args[j].get(p);
          Value v = io.fn(argv, io.num_args);
          if (io.mod > 0) v = total_mod(v, io.mod);
          p[op.dst] = v;
        }
        break;
      }
      case KOp::kStateful: {
        const StatefulOp& so = stateful_[op.aux];
        for (std::size_t i = 0; i < n; ++i) {
          Packet& p = pkts[i];
          // Each row reaches state through its owner's bindings.
          StateVar* const* const vars = row_vars[i];
          StateVar* const sv[2] = {
              vars[so.slots[0].var],
              so.num_states > 1 ? vars[so.slots[1].var] : nullptr};
          Value states_in[2] = {0, 0}, states_out[2] = {0, 0};
          Value idx[2] = {0, 0};
          for (std::size_t k = 0; k < so.num_states; ++k) {
            if (so.slots[k].is_array) {
              idx[k] = p[so.slots[k].index_field];
              states_in[k] = sv[k]->load(idx[k]);
            } else {
              states_in[k] = sv[k]->load_scalar();
            }
          }
          int leaf = 0;
          if (so.pred_levels >= 1) {
            const bool p1 = eval_pred(so.preds[0], p, states_in);
            if (so.pred_levels == 1) {
              leaf = p1 ? 0 : 1;
            } else if (p1) {
              leaf = eval_pred(so.preds[1], p, states_in) ? 0 : 1;
            } else {
              leaf = eval_pred(so.preds[2], p, states_in) ? 2 : 3;
            }
          }
          const auto lf = static_cast<std::size_t>(leaf);
          for (std::size_t k = 0; k < so.num_states; ++k)
            states_out[k] =
                eval_arm(so.arms[lf][k], states_in[k], p, states_in, so.lut);
          for (std::size_t k = 0; k < so.num_states; ++k) {
            if (so.slots[k].is_array)
              sv[k]->store(idx[k], states_out[k]);
            else
              sv[k]->store_scalar(states_out[k]);
          }
          for (std::uint32_t l = so.liveout_begin; l < so.liveout_end; ++l) {
            const KLiveOut& lo = liveouts_[l];
            p[lo.dst] = lo.use_new ? states_out[lo.state_idx]
                                   : states_in[lo.state_idx];
          }
        }
        break;
      }
    }
  }
}

void CompiledPipeline::run_batch_counted(Packet* pkts, std::size_t n,
                                         StateVar* const* const* row_vars,
                                         StageCounters& counters) const {
  if (n == 0) return;
  if (!sealed_)
    throw std::logic_error("CompiledPipeline: run before seal()");
  for (std::size_t i = 0; i < n; ++i)
    if (pkts[i].num_fields() < num_fields_)
      throw std::invalid_argument(
          "CompiledPipeline: packet narrower than the compiled program's "
          "field table");
  counters.prepare(stages_.size());
  using clock = std::chrono::steady_clock;
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const StageRange& st = stages_[si];
    const auto t0 = clock::now();
    run_ops_bound(st.begin, st.end, pkts, n, row_vars);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    counters.add(si, n, static_cast<std::uint64_t>(st.end - st.begin) * n, ns);
  }
}

std::string CompiledPipeline::str() const {
  std::ostringstream os;
  os << "micro-op kernel: " << ops_.size() << " ops, " << stages_.size()
     << " stages, " << num_fields_ << " fields, " << state_names_.size()
     << " state vars" << (sealed_ ? "" : " (unsealed)") << "\n";
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const StageRange& st = stages_[si];
    os << "stage " << si << " (ops " << st.begin << ".." << st.end << "):\n";
    for (std::uint32_t i = st.begin; i < st.end; ++i) {
      const MicroOp& op = ops_[i];
      os << "  [" << i << "] " << kop_name(op.code);
      switch (op.code) {
        case KOp::kIntrinsic: {
          const IntrinsicOp& io = intrinsics_[op.aux];
          os << "#" << op.aux << " f" << op.dst << " <- (";
          for (std::size_t a = 0; a < io.num_args; ++a)
            os << (a ? ", " : "") << src_str(io.args[a]);
          os << ")";
          if (io.mod > 0) os << " % " << io.mod;
          break;
        }
        case KOp::kStateful: {
          const StatefulOp& so = stateful_[op.aux];
          os << "#" << op.aux;
          for (std::size_t k = 0; k < so.num_states; ++k) {
            const StatefulOp::Slot& slot = so.slots[k];
            os << " s" << k << "=" << state_names_[slot.var];
            if (slot.is_array) os << "[f" << slot.index_field << "]";
          }
          const int num_preds = so.pred_levels == 0 ? 0
                                : so.pred_levels == 1 ? 1
                                                      : 3;
          for (int p = 0; p < num_preds; ++p) {
            os << " p" << p + 1 << ":(";
            if (so.preds[p].rel == KRel::kAlways)
              os << "always";
            else
              os << ref_str(so.preds[p].a) << " " << krel_name(so.preds[p].rel)
                 << " " << ref_str(so.preds[p].b);
            os << ")";
          }
          const std::size_t num_leaves = so.pred_levels == 0 ? 1
                                         : so.pred_levels == 1 ? 2
                                                               : 4;
          for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
            os << " L" << leaf << ":[";
            for (std::size_t k = 0; k < so.num_states; ++k) {
              const KArmOp& arm = so.arms[leaf][k];
              os << (k ? "; " : "") << karm_name(arm.mode);
              if (arm.mode != KArm::kKeep)
                os << "(" << ref_str(arm.src1) << "," << ref_str(arm.src2)
                   << ")";
            }
            os << "]";
          }
          for (std::uint32_t l = so.liveout_begin; l < so.liveout_end; ++l)
            os << " out:f" << liveouts_[l].dst << "="
               << (liveouts_[l].use_new ? "new" : "old") << "(s"
               << int(liveouts_[l].state_idx) << ")";
          break;
        }
        default: {
          os << " f" << op.dst << " <- " << src_str(op.a);
          const int argc = operand_count(op.code);
          if (argc >= 2) os << ", " << src_str(op.b);
          if (argc >= 3) os << ", " << src_str(op.c);
          break;
        }
      }
      os << "\n";
    }
  }
  if (!state_names_.empty()) {
    os << "state table:\n";
    for (std::size_t k = 0; k < state_names_.size(); ++k)
      os << "  s[" << k << "] = " << state_names_[k] << "\n";
  }
  return os.str();
}

}  // namespace banzai
