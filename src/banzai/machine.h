// The Banzai machine: a pipeline of stages, each a vector of atoms executing
// in parallel on every clock cycle (Figure 1, bottom half).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "banzai/kernel.h"
#include "banzai/native.h"
#include "banzai/packet.h"
#include "banzai/state.h"
#include "banzai/stats.h"

namespace banzai {

// The batch currency of Machine::run_batch: a borrowed view of row-major
// packets, processed in place.
class BatchView {
 public:
  static BatchView rows(Packet* pkts, std::size_t n) {
    BatchView v;
    v.pkts_ = pkts;
    v.n_ = n;
    return v;
  }

  std::size_t size() const { return n_; }
  Packet* row_data() const { return pkts_; }

 private:
  BatchView() = default;
  Packet* pkts_ = nullptr;
  std::size_t n_ = 0;
};

// Resource limits of a Banzai machine (§2.4 "Resource limits" and §5.2).
struct MachineSpec {
  std::string name;                      // e.g. "praw" target
  std::string stateful_template;         // name of the stateful atom template
  std::size_t pipeline_depth = 32;       // number of stages
  std::size_t stateless_per_stage = 300; // stateless atom slots per stage
  std::size_t stateful_per_stage = 10;   // stateful atom slots per stage
};

// A fully configured machine: the output of Domino code generation.
//
// A compiled machine executes exactly one program: the sealed
// CompiledPipeline the lowering pass emits (banzai/kernel.h), one StageRange
// per Banzai stage, shared read-only across clones.  Two engines run it:
//   * the kernel VM — CompiledPipeline's own op-major interpreter, and
//   * the native path — the same program AOT-emitted as C++ (core/emit.*),
//     compiled by the host toolchain and dlopen'd (banzai/native.h); absent
//     when no toolchain exists, with the reason recorded.
// The ExecEngine toggle (CompileOptions::engine, or set_engine) selects
// which one process() and the engines layered on it use.  Both are
// bit-exact with each other and with the sequential interpreter
// (core/interp) on every output field and state cell for every input — the
// contract tests/kernel_test.cc enforces corpus-wide — so flipping the
// toggle mid-stream is legal: both read and write the same FieldTable ids
// and the same StateStore.
//
// State binding cache: both engines address state through pre-resolved
// StateVar pointers.  Resolving them costs one by-name hash lookup per state
// variable; the cache below keys the resolved bindings on the StateStore's
// generation counter (state.h), so the steady-state per-packet path
// (Machine::process in NetFabric nodes, single-packet service drains) does
// zero name lookups.  restore_state() and clone() bump or re-key the
// generation, so stale pointers into a replaced map can never be
// dereferenced.
class Machine {
 public:
  Machine() = default;
  Machine(MachineSpec spec, FieldTable fields)
      : spec_(std::move(spec)), fields_(std::move(fields)) {}

  MachineSpec& spec() { return spec_; }
  const MachineSpec& spec() const { return spec_; }

  FieldTable& fields() { return fields_; }
  const FieldTable& fields() const { return fields_; }

  StateStore& state() { return state_; }
  const StateStore& state() const { return state_; }

  // Shape of the attached pipeline: one op per atom, one StageRange per
  // stage.  A machine with no pipeline attached has no stages.
  std::size_t num_stages() const {
    return kernel_ != nullptr ? kernel_->num_stages() : 0;
  }
  std::size_t num_atoms() const {
    return kernel_ != nullptr ? kernel_->num_ops() : 0;
  }
  std::size_t max_atoms_per_stage() const {
    std::size_t m = 0;
    if (kernel_ != nullptr)
      for (const auto& r : kernel_->stage_ranges())
        m = std::max<std::size_t>(m, r.end - r.begin);
    return m;
  }

  // Engine selection.  Each value is a request; the dispatch is the truth:
  // kNative without a loaded native pipeline runs the kernel VM — the
  // graceful-degradation ladder native > kernel.  active_engine() makes the
  // resolved rung observable.
  ExecEngine engine() const { return engine_; }
  void set_engine(ExecEngine engine) { engine_ = engine; }
  // The rung run_batch()/process() will actually execute on: tests assert
  // dispatch against this, never by probing a return value.
  ExecEngine active_engine() const {
    return active_native() != nullptr ? ExecEngine::kNative
                                      : ExecEngine::kKernel;
  }
  void set_kernel(std::shared_ptr<const CompiledPipeline> kernel) {
    kernel_ = std::move(kernel);
  }
  const CompiledPipeline* kernel() const { return kernel_.get(); }
  // The attached pipeline, for callers that cannot run without one.  Throws
  // std::logic_error on a machine that carries none (default-constructed,
  // or assembled by hand without set_kernel): it has nothing to execute, and
  // passing packets through untouched would hide the mistake.
  const CompiledPipeline& require_kernel() const {
    if (kernel_ == nullptr)
      throw std::logic_error("Machine: no compiled pipeline attached");
    return *kernel_;
  }
  // The kernel execution actually dispatches to: non-null only when a
  // pipeline is attached AND the engine toggle resolves to the VM —
  // including a kNative request degrading to it.
  const CompiledPipeline* active_kernel() const {
    return active_engine() == ExecEngine::kKernel ? kernel_.get() : nullptr;
  }

  // The native (AOT-compiled, dlopen'd) pipeline.  Attached by the compiler
  // driver when CompileOptions::engine == kNative and the host toolchain
  // accepts the emitted source; shared across clones like the kernel.  The
  // native path binds state through the kernel's state table, so a native
  // pipeline is only dispatched to when the kernel is attached too.
  void set_native(std::shared_ptr<const NativePipeline> native) {
    native_ = std::move(native);
    if (native_ != nullptr) native_fallback_.clear();
  }
  const NativePipeline* native() const { return native_.get(); }
  const NativePipeline* active_native() const {
    return engine_ == ExecEngine::kNative && kernel_ != nullptr
               ? native_.get()
               : nullptr;
  }
  // Why a kNative request is running on the kernel VM instead: empty when a
  // native pipeline is attached (or was never requested).
  void set_native_fallback(std::string reason) {
    native_fallback_ = std::move(reason);
  }
  const std::string& native_fallback_reason() const {
    return native_fallback_;
  }

  // Runs one packet through all stages back-to-back (functionally equivalent
  // to the pipelined execution; see PipelineSim for the cycle-accurate form
  // and BatchSim for the batched throughput engine) on whichever engine
  // active_engine() resolves to.
  Packet process(Packet pkt) {
    run_batch(BatchView::rows(&pkt, 1));
    return pkt;
  }

  // The single typed batch entry point: runs the view's packets through the
  // whole pipeline, in place, on whichever engine active_engine() resolves
  // to.  Throws std::logic_error (require_kernel) on a machine with no
  // pipeline attached.
  void run_batch(BatchView batch);

  // Checkpoint and restore of the mutable half of the machine.  The pipeline
  // configuration is immutable after codegen, so persistent state is the only
  // thing a drained machine needs to hand to its successor.
  StateStore snapshot_state() const { return state_.snapshot(); }
  void restore_state(const StateStore& snap) { state_.restore(snap); }

  // --- Per-stage observability (banzai/stats.h) ---------------------------
  // Every machine carries a StageCounters table; whether the execution
  // engines *increment* it is a build-time decision (-DDOMINO_STAGE_COUNTERS)
  // so the default hot path pays nothing — stage_counters_enabled() reports
  // which build this is.  The counters are per-replica (cloning copies, then
  // ShardCore resets each slot's copy), so hot-path increments never share a
  // cache line across workers; aggregation sums rows() at stats() time.
  static constexpr bool stage_counters_enabled() {
#if defined(DOMINO_STAGE_COUNTERS)
    return true;
#else
    return false;
#endif
  }
  StageCounters& stage_counters() { return stage_counters_; }
  const StageCounters& stage_counters() const { return stage_counters_; }
  // Pre-sizes the table to this machine's stage count.  Must be called (once,
  // single-threaded) before concurrent readers may touch the counters — the
  // table is not resize-safe against them.  Idempotent.
  void prepare_stage_counters() { stage_counters_.prepare(num_stages()); }
  void reset_stage_counters() { stage_counters_.reset(); }

  // An independent replica of this machine: same pipeline configuration, its
  // own StateStore snapshot.  The sealed kernel and the native pipeline are
  // immutable after sealing/loading and reach state only through the
  // bindings each replica resolves against its own store, so they are shared
  // between replicas rather than copied, and replicas never share mutable
  // state — this is what the Fleet relies on to scale one compiled program
  // across shards.  The copied StateStore takes a fresh generation, so the
  // replica's binding cache can never dereference pointers into the source's
  // store.
  Machine clone() const { return *this; }

 private:
  // Resolved state bindings for both engines, keyed on the StateStore
  // generation.  Copying a Machine copies the store (fresh generation) but
  // the cache too — the generation mismatch forces a rebind before first
  // use, so the copied pointers are never dereferenced.  Moves keep both
  // valid: unordered_map moves preserve node addresses.
  struct BindingCache {
    std::uint64_t gen = 0;
    const CompiledPipeline* prog = nullptr;
    std::vector<StateVar*> vars;        // slot order of kernel state table
    std::vector<NativeStateView> views; // same order, for the native ABI
    std::vector<Value*> pkt_ptrs;       // scratch for native batch calls
  };

  void rebind_state_if_stale() {
    if (bind_.prog == kernel_.get() && bind_.gen == state_.generation())
      return;
    const std::size_t n = kernel_->num_state_vars();
    bind_.vars.clear();
    bind_.views.clear();
    bind_.vars.reserve(n);
    bind_.views.reserve(n);
    for (const std::string& name : kernel_->state_names()) {
      StateVar& v = state_.var(name);
      bind_.vars.push_back(&v);
      bind_.views.push_back(
          NativeStateView{v.data(), static_cast<std::uint64_t>(v.size())});
    }
    bind_.prog = kernel_.get();
    bind_.gen = state_.generation();
  }

  MachineSpec spec_;
  FieldTable fields_;
  StateStore state_;
  ExecEngine engine_ = ExecEngine::kKernel;
  std::shared_ptr<const CompiledPipeline> kernel_;
  std::shared_ptr<const NativePipeline> native_;
  std::string native_fallback_;
  BindingCache bind_;
  StageCounters stage_counters_;    // per-stage packets/ops/ns (stats.h)
  // Scratch rows the native ABI fills per batch before folding into
  // stage_counters_ (the .so writes plain uint64s, not atomics).
  std::vector<NativeStageCounterRow> native_ctr_;
};

}  // namespace banzai
