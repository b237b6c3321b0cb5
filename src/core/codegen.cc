#include "core/codegen.h"

#include <memory>
#include <set>

#include "atoms/stateless.h"
#include "banzai/kernel.h"
#include "ir/intrinsics.h"

namespace domino {

using banzai::FieldId;
using banzai::FieldTable;

namespace {

// ---- Lowering to the micro-op program (banzai/kernel.h) --------------------
// Each atom is lowered straight into the machine's CompiledPipeline:
// operators map to dense opcodes, intrinsics to raw function pointers, and
// stateful operand selectors resolve from codelet-relative field positions
// to packet FieldIds.  Field names are interned into the machine's
// FieldTable as they are met, in a fixed order (a statement's destination,
// then its operands in order), so a program's field ids are deterministic.

banzai::KSrc lower_src(const Operand& o, FieldTable& ft) {
  return o.is_const() ? banzai::KSrc::constant(o.cst)
                      : banzai::KSrc::field_ref(
                            static_cast<std::uint32_t>(ft.intern(o.field)));
}

banzai::KOp lower_unop(UnOp op) {
  switch (op) {
    case UnOp::kNeg: return banzai::KOp::kNeg;
    case UnOp::kLNot: return banzai::KOp::kLNot;
    case UnOp::kBitNot: return banzai::KOp::kBitNot;
  }
  return banzai::KOp::kNeg;
}

banzai::KOp lower_binop(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return banzai::KOp::kAdd;
    case BinOp::kSub: return banzai::KOp::kSub;
    case BinOp::kMul: return banzai::KOp::kMul;
    case BinOp::kDiv: return banzai::KOp::kDiv;
    case BinOp::kMod: return banzai::KOp::kMod;
    case BinOp::kShl: return banzai::KOp::kShl;
    case BinOp::kShr: return banzai::KOp::kShr;
    case BinOp::kBitAnd: return banzai::KOp::kBitAnd;
    case BinOp::kBitOr: return banzai::KOp::kBitOr;
    case BinOp::kBitXor: return banzai::KOp::kBitXor;
    case BinOp::kLAnd: return banzai::KOp::kLAnd;
    case BinOp::kLOr: return banzai::KOp::kLOr;
    case BinOp::kLt: return banzai::KOp::kLt;
    case BinOp::kLe: return banzai::KOp::kLe;
    case BinOp::kGt: return banzai::KOp::kGt;
    case BinOp::kGe: return banzai::KOp::kGe;
    case BinOp::kEq: return banzai::KOp::kEq;
    case BinOp::kNe: return banzai::KOp::kNe;
  }
  return banzai::KOp::kAdd;
}

banzai::KRel lower_rel(atoms::RelKind rel) {
  switch (rel) {
    case atoms::RelKind::kAlways: return banzai::KRel::kAlways;
    case atoms::RelKind::kLt: return banzai::KRel::kLt;
    case atoms::RelKind::kLe: return banzai::KRel::kLe;
    case atoms::RelKind::kGt: return banzai::KRel::kGt;
    case atoms::RelKind::kGe: return banzai::KRel::kGe;
    case atoms::RelKind::kEq: return banzai::KRel::kEq;
    case atoms::RelKind::kNe: return banzai::KRel::kNe;
  }
  return banzai::KRel::kAlways;
}

banzai::KArm lower_arm_mode(atoms::ArmMode mode) {
  switch (mode) {
    case atoms::ArmMode::kKeep: return banzai::KArm::kKeep;
    case atoms::ArmMode::kSet: return banzai::KArm::kSet;
    case atoms::ArmMode::kAdd: return banzai::KArm::kAdd;
    case atoms::ArmMode::kSubt: return banzai::KArm::kSubt;
    case atoms::ArmMode::kSetAdd: return banzai::KArm::kSetAdd;
    case atoms::ArmMode::kSetSub: return banzai::KArm::kSetSub;
    case atoms::ArmMode::kAddSub: return banzai::KArm::kAddSub;
    case atoms::ArmMode::kLutAdd: return banzai::KArm::kLutAdd;
  }
  return banzai::KArm::kKeep;
}

// Resolves an atom-template operand selector against the codelet's input
// field list, so stateful operands address the packet directly.
banzai::KRef lower_ref(const atoms::OperandSel& sel,
                       const std::vector<FieldId>& input_ids) {
  switch (sel.kind) {
    case atoms::OperandSel::Kind::kState:
      return banzai::KRef::state_ref(sel.state_idx);
    case atoms::OperandSel::Kind::kField:
      return banzai::KRef::field_ref(static_cast<std::uint32_t>(
          input_ids[static_cast<std::size_t>(sel.field_pos)]));
    case atoms::OperandSel::Kind::kConst:
      return banzai::KRef::constant(sel.cst);
  }
  return banzai::KRef::constant(0);
}

void lower_stateless(const TacStmt& stmt, FieldTable& ft,
                     banzai::CompiledPipeline& kernel) {
  const auto dst = static_cast<std::uint32_t>(ft.intern(stmt.dst));
  const banzai::KSrc a = lower_src(stmt.a, ft), b = lower_src(stmt.b, ft),
                     c = lower_src(stmt.c, ft);
  switch (stmt.kind) {
    case TacStmt::Kind::kCopy:
      kernel.add_alu(banzai::KOp::kMov, dst, a);
      break;
    case TacStmt::Kind::kUnary:
      kernel.add_alu(lower_unop(stmt.un_op), dst, a);
      break;
    case TacStmt::Kind::kBinary:
      kernel.add_alu(lower_binop(stmt.op), dst, a, b);
      break;
    case TacStmt::Kind::kTernary:
      kernel.add_alu(banzai::KOp::kSelect, dst, a, b, c);
      break;
    case TacStmt::Kind::kIntrinsic: {
      banzai::IntrinsicOp io;
      io.fn = intrinsic_raw_fn(stmt.intrinsic);
      if (io.fn == nullptr ||
          stmt.args.size() > banzai::IntrinsicOp::kMaxArgs)
        throw CompileError(
            CompilePhase::kMapping,
            "cannot lower intrinsic '" + stmt.intrinsic + "' to a micro-op");
      // Tag the hash family so the native emitter can inline the mixer
      // instead of calling through the ABI pointer table.
      if (stmt.intrinsic == "hash2")
        io.kind = banzai::IntrinsicKind::kHash2;
      else if (stmt.intrinsic == "hash3")
        io.kind = banzai::IntrinsicKind::kHash3;
      else if (stmt.intrinsic == "hash4")
        io.kind = banzai::IntrinsicKind::kHash4;
      io.num_args = static_cast<std::uint8_t>(stmt.args.size());
      for (std::size_t i = 0; i < stmt.args.size(); ++i)
        io.args[i] = lower_src(stmt.args[i], ft);
      io.mod = stmt.intrinsic_mod;
      kernel.add_intrinsic(dst, io);
      break;
    }
    default:
      throw CompileError(CompilePhase::kMapping,
                         "state statement reached stateless lowering");
  }
}

// Lowers one synthesized stateful atom into a fused StatefulOp.  Fields are
// interned array indices first (one per owned state, in state order), then
// the synthesized input fields, then the live-out fields.
void lower_stateful(const Codelet& codelet,
                    const synthesis::CodeletSpec& spec,
                    const synthesis::SynthResult& synth, FieldTable& ft,
                    banzai::CompiledPipeline& kernel) {
  const atoms::StatefulConfig& config = synth.config;
  const auto& t = atoms::template_info(config.kind);
  // StatefulOp carries fixed-size pools sized for the paper's templates; a
  // future template outgrowing them must fail loudly, like intrinsic arity.
  bool oversized = spec.state_vars().size() > 2 || config.preds.size() > 3 ||
                   config.leaves.size() > 4;
  for (const auto& leaf : config.leaves)
    oversized = oversized || leaf.size() > 2;
  if (oversized)
    throw CompileError(CompilePhase::kMapping,
                       "stateful template '" + t.name +
                           "' exceeds the micro-op pools (2 states, 3 "
                           "predicates, 4 leaves, 2 arms per leaf)");
  banzai::StatefulOp so;
  so.num_states = static_cast<std::uint8_t>(spec.state_vars().size());
  so.pred_levels = static_cast<std::uint8_t>(t.pred_levels);
  for (std::size_t k = 0; k < spec.state_vars().size(); ++k) {
    const std::string& var = spec.state_vars()[k];
    so.slots[k].var = kernel.intern_state(var);
    for (const auto& s : codelet.stmts) {
      if (s.touches_state() && s.state_var == var) {
        so.slots[k].is_array = s.state_is_array;
        if (s.state_is_array)
          so.slots[k].index_field =
              static_cast<std::uint32_t>(ft.intern(s.index.field));
        break;
      }
    }
  }
  std::vector<FieldId> input_ids;
  for (const auto& f : synth.input_fields) input_ids.push_back(ft.intern(f));
  for (std::size_t i = 0; i < config.preds.size(); ++i) {
    so.preds[i].rel = lower_rel(config.preds[i].rel);
    so.preds[i].a = lower_ref(config.preds[i].a, input_ids);
    so.preds[i].b = lower_ref(config.preds[i].b, input_ids);
  }
  for (std::size_t leaf = 0; leaf < config.leaves.size(); ++leaf)
    for (std::size_t k = 0; k < config.leaves[leaf].size(); ++k) {
      const atoms::ArmConfig& arm = config.leaves[leaf][k];
      so.arms[leaf][k].mode = lower_arm_mode(arm.mode);
      so.arms[leaf][k].src1 = lower_ref(arm.src1, input_ids);
      so.arms[leaf][k].src2 = lower_ref(arm.src2, input_ids);
    }
  so.lut = &atoms::lut_eval;
  std::vector<banzai::KLiveOut> los;
  los.reserve(synth.liveouts.size());
  for (const auto& b : synth.liveouts)
    los.push_back({static_cast<std::uint32_t>(ft.intern(b.field)),
                   static_cast<std::uint8_t>(b.state_idx), b.use_new});
  kernel.add_stateful(so, los);
}

class CodeGenerator {
 public:
  CodeGenerator(const CodeletPipeline& pvsm, const Program& prog,
                const atoms::BanzaiTarget& target,
                const std::map<std::string, std::string>& final_names,
                const synthesis::SynthOptions& synth_opts)
      : pvsm_(pvsm),
        prog_(prog),
        target_(target),
        final_names_(final_names),
        synth_opts_(synth_opts) {}

  CodegenResult run() {
    CodegenResult result;
    result.fitted = fit_resources();

    FieldTable fields;
    pre_intern_fields(fields);
    compute_liveouts();

    banzai::CompiledPipeline kernel;
    for (std::size_t si = 0; si < result.fitted.stages.size(); ++si) {
      kernel.begin_stage();
      for (const auto& codelet : result.fitted.stages[si]) {
        CodeletReport report;
        report.stage = static_cast<int>(si) + 1;
        report.description = codelet.str();
        lower_codelet(codelet, fields, kernel, report, result.synth_seconds);
        result.reports.push_back(std::move(report));
      }
    }
    // Seal verifies the in-place preconditions (disjoint writes, no
    // intra-stage RAW, exclusive state ownership).  The pipeliner always
    // satisfies them, so a std::logic_error here is a compiler bug and
    // propagates as one.
    kernel.seal(fields.size());

    banzai::Machine machine(target_.machine_spec(), std::move(fields));
    machine.set_kernel(
        std::make_shared<const banzai::CompiledPipeline>(std::move(kernel)));
    for (const auto& d : prog_.state_vars)
      machine.state().declare(d.name, static_cast<std::size_t>(d.size),
                              !d.is_array, d.init);
    result.machine = std::move(machine);
    return result;
  }

 private:
  // Width fitting (§4.3 "Resource limits"): if a stage exceeds the pipeline
  // width, spread its codelets over as many new stages as required.  Codelets
  // within one PVSM stage are mutually independent, so any split preserves
  // dependencies.  Rejects the program if the pipeline depth is exceeded.
  CodeletPipeline fit_resources() {
    CodeletPipeline fitted;
    for (const auto& stage : pvsm_.stages) {
      std::size_t stateless = 0, stateful = 0;
      PvsmStage current;
      auto flush = [&]() {
        if (!current.empty()) {
          fitted.stages.push_back(std::move(current));
          current.clear();
          stateless = stateful = 0;
        }
      };
      for (const auto& c : stage) {
        const bool is_stateful = c.is_stateful();
        if ((is_stateful && stateful + 1 > target_.stateful_per_stage) ||
            (!is_stateful && stateless + 1 > target_.stateless_per_stage))
          flush();
        (is_stateful ? stateful : stateless) += 1;
        current.push_back(c);
      }
      flush();
    }
    if (fitted.stages.size() > target_.pipeline_depth)
      throw CompileError(
          CompilePhase::kResource,
          "program needs " + std::to_string(fitted.stages.size()) +
              " pipeline stages but target '" + target_.name +
              "' provides only " + std::to_string(target_.pipeline_depth));
    return fitted;
  }

  void pre_intern_fields(FieldTable& fields) {
    // User-declared fields first so examples can address them by name.
    for (const auto& f : prog_.packet_fields) fields.intern(f.name);
  }

  void compute_liveouts() {
    // Fields read by each codelet, and the set of observable outputs.
    std::set<std::string> outputs;
    for (const auto& [user, ssa] : final_names_) outputs.insert(ssa);

    std::vector<const Codelet*> all;
    for (const auto& st : pvsm_.stages)
      for (const auto& c : st) all.push_back(&c);

    for (std::size_t i = 0; i < all.size(); ++i) {
      std::set<std::string> read_elsewhere;
      for (std::size_t j = 0; j < all.size(); ++j) {
        if (i == j) continue;
        for (const auto& s : all[j]->stmts)
          for (const auto& f : s.fields_read()) read_elsewhere.insert(f);
      }
      std::vector<std::string> lo;
      for (const auto& w : all[i]->fields_written())
        if (read_elsewhere.count(w) || outputs.count(w)) lo.push_back(w);
      liveouts_[all[i]->str()] = std::move(lo);
    }
  }

  void lower_codelet(const Codelet& codelet, FieldTable& fields,
                     banzai::CompiledPipeline& kernel, CodeletReport& report,
                     double& synth_seconds) {
    if (!codelet.is_stateful()) {
      if (codelet.stmts.size() != 1)
        throw CompileError(CompilePhase::kMapping,
                           "stateless codelet with multiple statements: " +
                               codelet.str());
      check_stateless(codelet.stmts[0], report);
      lower_stateless(codelet.stmts[0], fields, kernel);
      return;
    }
    report.stateful = true;
    const auto& lo = liveouts_.at(codelet.str());
    synthesis::CodeletSpec spec(codelet, lo);
    synthesis::SynthResult synth =
        synthesis::synthesize(spec, target_.stateful_atom, synth_opts_);
    synth_seconds += synth.stats.seconds;
    report.synth_stats = synth.stats;
    if (!synth.success)
      throw CompileError(
          CompilePhase::kMapping,
          "codelet { " + codelet.str() + " } cannot be mapped to the " +
              std::string(atoms::stateful_kind_name(target_.stateful_atom)) +
              " atom: " + synth.failure_reason);
    report.atom = atoms::stateful_kind_name(target_.stateful_atom);
    report.config = synth.config.str(synth.input_fields);
    lower_stateful(codelet, spec, synth, fields, kernel);
  }

  // The target's computational limits for a stateless statement: an
  // intrinsic needs a unit the target provides, anything else must fit the
  // stateless ALU.
  void check_stateless(const TacStmt& stmt, CodeletReport& report) const {
    if (stmt.kind == TacStmt::Kind::kIntrinsic) {
      const auto info = intrinsic_info(stmt.intrinsic);
      if (!info.has_value())
        throw CompileError(CompilePhase::kMapping,
                           "unknown intrinsic '" + stmt.intrinsic + "'");
      if (!target_.provides_unit(info->unit))
        throw CompileError(
            CompilePhase::kMapping,
            "intrinsic '" + stmt.intrinsic + "' needs a unit that target '" +
                target_.name + "' does not provide");
      report.intrinsic = true;
      report.atom = info->unit == IntrinsicUnit::kHash ? "hash-unit"
                                                       : "math-unit";
    } else {
      if (auto why = atoms::stateless_alu_reject_reason(stmt))
        throw CompileError(CompilePhase::kMapping,
                           *why + " (in: " + stmt.str() + ")");
      report.atom = "Stateless";
    }
  }

  const CodeletPipeline& pvsm_;
  const Program& prog_;
  const atoms::BanzaiTarget& target_;
  const std::map<std::string, std::string>& final_names_;
  synthesis::SynthOptions synth_opts_;
  std::map<std::string, std::vector<std::string>> liveouts_;
};

}  // namespace

CodegenResult generate_code(const CodeletPipeline& pvsm, const Program& prog,
                            const atoms::BanzaiTarget& target,
                            const std::map<std::string, std::string>& final_names,
                            const synthesis::SynthOptions& synth_opts) {
  return CodeGenerator(pvsm, prog, target, final_names, synth_opts).run();
}

}  // namespace domino
