#include "banzai/machine.h"

#include <stdexcept>

namespace banzai {

#if defined(DOMINO_STAGE_COUNTERS)
namespace {
// The counted builds route every engine through per-stage instrumentation;
// this helper folds the plain rows a native .so fills into the machine's
// atomic accumulators.
void fold_native_rows(const NativeStageCounterRow* rows, std::size_t stages,
                      StageCounters& into) {
  for (std::size_t s = 0; s < stages; ++s)
    if (rows[s].packets | rows[s].ops | rows[s].ns)
      into.add(s, rows[s].packets, rows[s].ops, rows[s].ns);
}
}  // namespace
#endif

void Machine::run_batch(BatchView batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  require_kernel();
  rebind_state_if_stale();
  Packet* pkts = batch.row_data();
  // Row i's bindings are its owner's, checked for every row before any row
  // runs.
  Machine* const* owners = batch.owners();
  auto bind_of = [&](std::size_t i) -> const BindingCache& {
    return owners != nullptr ? binding_of(*owners[i]) : bind_;
  };

  switch (active_engine()) {
    case ExecEngine::kNative: {
      const NativePipeline* nat = native_.get();
#if defined(DOMINO_STAGE_COUNTERS)
      // The emitted code increments plain uint64 rows (no atomics in the
      // .so); fold them into the shared-readable accumulators afterwards.
      // A .so emitted without counter support leaves the rows zero.
      prepare_stage_counters();
      native_ctr_.assign(kernel_->num_stages(), NativeStageCounterRow{});
      NativeStageCounterRow* const ctr = native_ctr_.data();
#else
      NativeStageCounterRow* const ctr = nullptr;
#endif
      row_tables_.pkt_ptrs.resize(n);
      row_tables_.views.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (pkts[i].num_fields() < nat->num_fields())
          throw std::invalid_argument(
              "native pipeline: packet narrower than the compiled program's "
              "field table");
        row_tables_.pkt_ptrs[i] = pkts[i].data();
        row_tables_.views[i] = bind_of(i).views.data();
      }
      nat->run(row_tables_.pkt_ptrs.data(), n, row_tables_.views.data(),
               ctr);
#if defined(DOMINO_STAGE_COUNTERS)
      fold_native_rows(ctr, kernel_->num_stages(), stage_counters_);
#endif
      return;
    }
    case ExecEngine::kKernel:
      row_tables_.vars.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        row_tables_.vars[i] = bind_of(i).vars.data();
#if defined(DOMINO_STAGE_COUNTERS)
      kernel_->run_batch_counted(pkts, n, row_tables_.vars.data(),
                                 stage_counters_);
#else
      kernel_->run_batch_bound(pkts, n, row_tables_.vars.data());
#endif
      return;
  }
}

}  // namespace banzai
