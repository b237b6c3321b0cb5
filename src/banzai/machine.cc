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

  switch (active_engine()) {
    case ExecEngine::kNative: {
      const NativePipeline* nat = native_.get();
      rebind_state_if_stale();
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
      if (batch.columnar()) {
        ColumnBatch& cb = batch.cols();
        if (cb.num_fields() < nat->num_fields())
          throw std::invalid_argument(
              "native pipeline: column batch narrower than the compiled "
              "program's field table");
        if (nat->has_columnar()) {
          nat->run_columns(cb.col_ptrs(), n, bind_.views.data(), ctr);
        } else {
          // A .so from before the columnar emission mode: keep the columnar
          // shape on the kernel VM rather than transposing back.
#if defined(DOMINO_STAGE_COUNTERS)
          kernel_->run_columns_counted(cb, bind_.vars.data(), stage_counters_);
          return;
#else
          kernel_->run_columns_bound(cb, bind_.vars.data());
#endif
        }
#if defined(DOMINO_STAGE_COUNTERS)
        fold_native_rows(ctr, kernel_->num_stages(), stage_counters_);
#endif
        return;
      }
      Packet* pkts = batch.row_data();
      for (std::size_t i = 0; i < n; ++i)
        if (pkts[i].num_fields() < nat->num_fields())
          throw std::invalid_argument(
              "native pipeline: packet narrower than the compiled program's "
              "field table");
      bind_.pkt_ptrs.resize(n);
      for (std::size_t i = 0; i < n; ++i) bind_.pkt_ptrs[i] = pkts[i].data();
      nat->run(bind_.pkt_ptrs.data(), n, bind_.views.data(), ctr);
#if defined(DOMINO_STAGE_COUNTERS)
      fold_native_rows(ctr, kernel_->num_stages(), stage_counters_);
#endif
      return;
    }
    case ExecEngine::kKernel: {
      rebind_state_if_stale();
#if defined(DOMINO_STAGE_COUNTERS)
      if (batch.columnar())
        kernel_->run_columns_counted(batch.cols(), bind_.vars.data(),
                                     stage_counters_);
      else
        kernel_->run_batch_counted(batch.row_data(), n, bind_.vars.data(),
                                   stage_counters_);
#else
      if (batch.columnar())
        kernel_->run_columns_bound(batch.cols(), bind_.vars.data());
      else
        kernel_->run_batch_bound(batch.row_data(), n, bind_.vars.data());
#endif
      return;
    }
  }
}

}  // namespace banzai
