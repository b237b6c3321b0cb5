// Fused stage kernels: a compiled Banzai pipeline as one flat micro-op
// program — the single artifact a Machine executes.
//
// The lowering pass in core/codegen.cc flattens every stage's atoms —
// stateless ALU statements, the synthesized stateful templates of §5.2
// (predicates plus update arms, including the §5.3 LUT extension), and
// intrinsics — into one contiguous MicroOp array in which packet fields are
// dense FieldIds, owned state variables are dense slots into a per-program
// state table, intrinsics and LUTs are raw function pointers, and stateful
// operand selectors address the packet directly (no input-field gather).  A
// branch-light switch dispatches opcodes; the batch form takes state
// bindings resolved ahead of time (one binding array per row's owner) and
// iterates packets innermost, so a stage's whole configuration stays in
// registers across the batch.  This mirrors how the paper's Banzai emits
// straight-line C++ per atom, and how fixed-function P4 targets assume
// index-addressed, fixed-layout metadata.
//
// Semantic contract: sequential execution of the packet transaction
// (core/interp, §3.1) is the ground truth.  For every program the lowering
// accepts, CompiledPipeline::run / run_batch_bound — and the native AOT form
// of the same program (banzai/native.h) — agree with it on every output field
// and every state cell, for any input, including wrap-around arithmetic,
// division by zero, and hostile array indices.
// tests/kernel_test.cc holds this contract over the whole algorithm corpus
// across all four runtimes (per-packet, batched, sharded, fabric).
//
// Why in-place execution is legal: a Banzai stage gives every atom the
// packet as it *entered* the stage.  Codelets scheduled into one stage are
// mutually independent (no codelet reads another's output — that dependency
// would have forced a later stage) and write disjoint fields, so executing a
// stage's ops in order on a single buffer observes the same values; seal()
// verifies both properties and rejects the program otherwise.  Across
// stages, program order is exactly dataflow order.  Op-major batching (all
// packets through op k, then op k+1) additionally relies on every state
// variable being local to exactly one atom (§2.3), so per-atom state
// sequences see packets in arrival order — the same argument that makes
// BatchSim's stage-major order legal.  The same argument lets one batch mix
// rows of several replicas of the program (ShardCore's slots): each row
// reaches state through its own replica's bindings, replicas share no
// state, and every replica's rows keep their arrival order within the
// batch, so the batch commits what per-replica batches would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "banzai/packet.h"
#include "banzai/state.h"
#include "banzai/value.h"

namespace banzai {

class StageCounters;  // banzai/stats.h — per-stage observability accumulators

// Which execution path a Machine uses for process()/BatchSim and everything
// layered on them (ShardCore, Fleet, FleetService, NetFabric nodes).  Both
// run the machine's one sealed CompiledPipeline.
//   kKernel — run the lowered micro-op program on the VM below.
//   kNative — run the AOT-emitted C++ of the same micro-op program, compiled
//             by the host toolchain and loaded via dlopen (core/emit.* +
//             banzai/native.*): no dispatch loop at all.  Falls back to
//             kKernel on machines that carry no native pipeline — no
//             toolchain on the host, emission failure — with the reason
//             recorded on the Machine.
// The explicit values are wire bytes: the dist tier (dist/framing.h) sends
// them in its HELLO ack, SwapEngine and SwapAck messages.
enum class ExecEngine { kKernel = 1, kNative = 2 };


// An intrinsic body: args are already evaluated, in call order.  The lowering
// supplies pointers to the canned implementations in ir/intrinsics.cc so the
// kernel layer stays independent of the compiler layer.
using IntrinsicFn = Value (*)(const Value* args, std::size_t n);
// A look-up-table ROM (§5.3): one total function of one value.
using LutFn = Value (*)(Value);

// Micro-op opcodes.  One opcode per ALU operation keeps the dispatch a single
// dense switch with no secondary decode.
enum class KOp : std::uint8_t {
  kMov,     // dst = a
  kNeg,     // dst = -a (wrapping)
  kLNot,    // dst = !a
  kBitNot,  // dst = ~a
  kAdd, kSub, kMul,       // wrapping
  kDiv, kMod,             // total: x/0 == 0, INT_MIN/-1 wraps
  kShl, kShr,             // shift amount masked to 5 bits
  kBitAnd, kBitOr, kBitXor,
  kLAnd, kLOr,            // logical, producing 0/1
  kLt, kLe, kGt, kGe, kEq, kNe,  // relational, producing 0/1
  kSelect,     // dst = a ? b : c
  kIntrinsic,  // dst = fn(args...) [% mod]; payload in the intrinsic pool
  kStateful,   // fused stateful-template update; payload in the stateful pool
};

// A resolved stateless operand: immediate constant or packet field.
struct KSrc {
  Value cst = 0;
  std::uint32_t field = 0;
  bool is_const = true;

  static KSrc constant(Value v) { return {v, 0, true}; }
  static KSrc field_ref(std::uint32_t id) { return {0, id, false}; }

  Value get(const Packet& p) const { return is_const ? cst : p[field]; }
};

// A resolved stateful-template operand: constant, packet field, or one of the
// atom's owned state values (pre-update).  This is atoms::OperandSel with the
// codelet-relative field *position* replaced by the packet FieldId itself.
struct KRef {
  enum class Kind : std::uint8_t { kConst, kField, kState };
  Kind kind = Kind::kConst;
  std::uint8_t state_idx = 0;
  std::uint32_t field = 0;
  Value cst = 0;

  static KRef constant(Value v) {
    KRef r;
    r.cst = v;
    return r;
  }
  static KRef field_ref(std::uint32_t id) {
    KRef r;
    r.kind = Kind::kField;
    r.field = id;
    return r;
  }
  static KRef state_ref(int idx) {
    KRef r;
    r.kind = Kind::kState;
    r.state_idx = static_cast<std::uint8_t>(idx);
    return r;
  }

  Value get(const Packet& p, const Value* states_in) const {
    switch (kind) {
      case Kind::kConst: return cst;
      case Kind::kField: return p[field];
      case Kind::kState: return states_in[state_idx];
    }
    return 0;
  }
};

// Relational operator of a template predicate (atoms::RelKind, mirrored so
// the kernel layer carries no compiler-layer includes).
enum class KRel : std::uint8_t { kAlways, kLt, kLe, kGt, kGe, kEq, kNe };

// Update-arm modes (atoms::ArmMode, mirrored).
enum class KArm : std::uint8_t {
  kKeep, kSet, kAdd, kSubt, kSetAdd, kSetSub, kAddSub, kLutAdd,
};

struct KPred {
  KRel rel = KRel::kAlways;
  KRef a, b;
};

struct KArmOp {
  KArm mode = KArm::kKeep;
  KRef src1, src2;
};

// One live-out packet field of a stateful op: the pre-update ("old") or
// post-update ("new") value of one owned state slot.
struct KLiveOut {
  std::uint32_t dst = 0;
  std::uint8_t state_idx = 0;
  bool use_new = false;
};

// A whole synthesized stateful atom fused into one op: load owned state
// (array cells addressed by a packet field), pick a decision-tree leaf with
// up to three predicates, run one update arm per state, store, and publish
// the live-out fields.  Everything is pre-resolved; execution touches no
// strings and allocates nothing.
struct StatefulOp {
  struct Slot {
    std::uint32_t var = 0;  // index into the pipeline's state table
    std::uint32_t index_field = 0;  // packet field holding the array index
    bool is_array = false;
  };
  std::uint8_t num_states = 1;   // 1, or 2 for Pairs-class templates
  std::uint8_t pred_levels = 0;  // 0 (Write/RAW), 1 (PRAW..Sub), 2 (Nested+)
  Slot slots[2];
  KPred preds[3];   // [p1, p2, p3]; p2/p3 only with two levels
  KArmOp arms[4][2];  // [leaf][state]; leaf order matches atoms::StatefulConfig
  LutFn lut = nullptr;  // ROM for kLutAdd arms
  std::uint32_t liveout_begin = 0, liveout_end = 0;  // into the live-out pool
};

// Which well-known body `fn` points at.  Recorded at lowering time so the
// native emitter can print the body inline instead of calling through the
// ABI function-pointer table.  kOpaque intrinsics (isqrt, ROM lookups,
// anything loopy) are only reachable through the pointer.
enum class IntrinsicKind : std::uint8_t { kOpaque, kHash2, kHash3, kHash4 };

struct IntrinsicOp {
  static constexpr std::size_t kMaxArgs = 4;
  IntrinsicFn fn = nullptr;
  IntrinsicKind kind = IntrinsicKind::kOpaque;
  std::uint8_t num_args = 0;
  KSrc args[kMaxArgs];
  Value mod = 0;  // 0 means "no modulus"; else result = total_mod(result, mod)
};

struct MicroOp {
  KOp code = KOp::kMov;
  std::uint32_t dst = 0;   // output FieldId (unused by kStateful)
  std::uint32_t aux = 0;   // kIntrinsic/kStateful: index into the payload pool
  KSrc a, b, c;
};

// The lowered program.  Immutable after seal(); safe to share (and to execute
// concurrently) across machine clones — execution reads the program, touches
// only the caller's packets and StateStore, and uses no internal scratch.
class CompiledPipeline {
 public:
  // --- Builder interface, used by the lowering pass in core/codegen.cc ----
  void begin_stage();
  void add_alu(KOp code, std::uint32_t dst, KSrc a, KSrc b = KSrc{},
               KSrc c = KSrc{});
  void add_intrinsic(std::uint32_t dst, const IntrinsicOp& payload);
  void add_stateful(const StatefulOp& op,
                    const std::vector<KLiveOut>& liveouts);
  // Dense index of `name` in the state table, interning it if new.
  std::uint32_t intern_state(const std::string& name);
  // Freezes the program: records the packet width and verifies the in-place
  // execution preconditions (disjoint writes per stage, no intra-stage
  // read-after-write, one owner per state variable).  Throws
  // std::logic_error on violation: the lowering never emits such a program,
  // so a throw here is a compiler bug.
  void seal(std::size_t num_fields);

  // --- Execution ----------------------------------------------------------
  // Runs one packet through the whole pipeline, in place, resolving the
  // state table by name.
  void run(Packet& pkt, StateStore& state) const;
  // Runs `n` packets through the whole pipeline, in place, op-major: packets
  // iterate innermost, so each op's configuration is loaded once per batch
  // rather than per packet.  State is bound per row: `row_vars[i][k]` must
  // be the StateVar for state_names()[k] in the store that owns packet i.
  // Rows of one store may share one binding array; this is the zero-lookup
  // path behind Machine's generation-keyed binding cache.
  void run_batch_bound(Packet* pkts, std::size_t n,
                       StateVar* const* const* row_vars) const;
  // Runs exactly one stage's ops over one packet, in place — the per-stage
  // entry point the cycle-accurate PipelineSim uses to execute the same
  // micro-op program the whole-pipeline paths run (there is one StageRange
  // per pipeline stage, empty stages included).  Bound form as above.
  void run_stage(std::size_t stage, Packet& pkt, StateStore& state) const;
  void run_stage_bound(std::size_t stage, Packet& pkt,
                       StateVar* const* vars) const;
  // Counted form of the bound batch entry: identical execution split at
  // stage boundaries (legal for the same reason op-major batching is — state
  // is local to one atom, so any stage-boundary fissioning preserves the
  // per-atom packet order), with per-stage packets/ops/wall-ns recorded into
  // `counters` (prepared for num_stages() by the caller; see stats.h for the
  // concurrency contract).  Machine routes through these only when built
  // with -DDOMINO_STAGE_COUNTERS — the default hot path never pays for them.
  void run_batch_counted(Packet* pkts, std::size_t n,
                         StateVar* const* const* row_vars,
                         StageCounters& counters) const;
  // Resolves this program's state table against `state`, in slot order.
  // `vars` must have room for num_state_vars() pointers.
  void resolve_state(StateStore& state, StateVar** vars) const {
    for (std::size_t k = 0; k < state_names_.size(); ++k)
      vars[k] = &state.var(state_names_[k]);
  }

  // --- Introspection ------------------------------------------------------
  struct StageRange {
    std::uint32_t begin = 0, end = 0;
  };

  bool sealed() const { return sealed_; }
  std::size_t num_ops() const { return ops_.size(); }
  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_state_vars() const { return state_names_.size(); }
  std::size_t num_fields() const { return num_fields_; }
  const std::vector<std::string>& state_names() const { return state_names_; }
  // The raw program, for the disassembler (str()), the C++ emitter
  // (core/emit.*) and the native loader's fn-pointer tables
  // (banzai/native.*).  Stable only after seal().
  const std::vector<MicroOp>& ops() const { return ops_; }
  const std::vector<StageRange>& stage_ranges() const { return stages_; }
  const std::vector<StatefulOp>& stateful_pool() const { return stateful_; }
  const std::vector<IntrinsicOp>& intrinsic_pool() const {
    return intrinsics_;
  }
  const std::vector<KLiveOut>& liveout_pool() const { return liveouts_; }
  // Human-readable disassembly: one line per op (opcode, dst, operands),
  // grouped by stage range, with the state table appended — the final
  // lowering artifact, inspectable like every normalization pass
  // (`dominoc --artifacts`).
  std::string str() const;

 private:
  void require_open_stage() const;
  void verify_in_place_safe() const;
  // The op-major execution core: ops [first, last) over `n` packets, row i
  // bound to row_vars[i].
  void run_ops_bound(std::uint32_t first, std::uint32_t last, Packet* pkts,
                     std::size_t n, StateVar* const* const* row_vars) const;

  std::vector<MicroOp> ops_;
  std::vector<StageRange> stages_;
  std::vector<StatefulOp> stateful_;
  std::vector<IntrinsicOp> intrinsics_;
  std::vector<KLiveOut> liveouts_;
  std::vector<std::string> state_names_;
  std::unordered_map<std::string, std::uint32_t> state_index_;
  std::size_t num_fields_ = 0;
  bool sealed_ = false;
};

}  // namespace banzai
