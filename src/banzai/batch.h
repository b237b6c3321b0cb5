// Batched Banzai execution: the throughput engine.
//
// PipelineSim is the cycle-accurate reference — one packet per stage slot,
// one clock per tick.  BatchSim hands a whole batch of packets to the
// machine at once, and the compiled pipeline advances it through each stage
// before moving to the next ("stage-major" order, op-major within a stage):
// each op's configuration and the state it touches stay hot in cache across
// the batch, per-op dispatch is paid once per batch, and the whole batch
// runs in place.  run_rows() runs rows the caller owns, allocating nothing;
// the enqueue()/run()/take_egress() queue form moves packets through.
//
// Stage-major order is observationally identical to packet-major order
// because every state variable is local to exactly one atom in one stage
// (§2.3's locality discipline): state mutated in stage s is never read by any
// other stage, so running all packets through stage s before stage s+1
// commits the same per-packet state transitions in the same arrival order.
// The differential tests in tests/batch_test.cc prove this against both
// PipelineSim and sequential Machine::process on the whole algorithm corpus.
//
// Batch currency: every batch goes through the machine's single typed entry
// point, Machine::run_batch(BatchView).  The dispatch knob picks the shape:
//   kRows     — the ingress slice is handed over row-major, in place.
//   kColumnar — the slice is transposed into the sim's ColumnBatch
//               (struct-of-arrays, banzai/column.h) first, run column-major
//               — the kernel VM's column loops, or the emitted columnar
//               entry point under kNative — and transposed back.
//   kAuto     — rows.  The default.  BatchSim's ingress arrives row-major,
//               and on corpus-scale pipelines (3–14 ops) the two transposes
//               cost more than the fused column loops recoup (EXPERIMENTS.md,
//               "Batch shape") — columnar wins when the batch already LIVES
//               columnar (Machine::run_batch(BatchView::columns(...))
//               directly), so kColumnar is an explicit opt-in here, kept for
//               workloads and hosts where the trade measures the other way.
// Either shape is bit-exact with sequential Machine::process — the columnar
// differential in tests/batch_test.cc and tests/kernel_test.cc holds this
// corpus-wide.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "banzai/column.h"
#include "banzai/machine.h"
#include "banzai/packet.h"

namespace banzai {

// How BatchSim shapes each batch before handing it to Machine::run_batch.
enum class BatchDispatch { kAuto, kRows, kColumnar };

struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t columnar_batches = 0;  // of those, run as ColumnBatch
  std::uint64_t packets = 0;
};

class BatchSim {
 public:
  explicit BatchSim(Machine& machine, std::size_t batch_size = 256,
                    BatchDispatch dispatch = BatchDispatch::kAuto)
      : machine_(machine),
        batch_size_(batch_size ? batch_size : 1),
        dispatch_(dispatch) {}

  // The one ingress path: move-append.  The overload for a whole trace
  // steals the vector when the queue is empty and reserves + moves
  // otherwise — never an element-by-element copy.
  void enqueue(Packet pkt) { ingress_.push_back(std::move(pkt)); }
  void enqueue(std::vector<Packet> pkts) {
    if (ingress_.empty()) {
      ingress_ = std::move(pkts);
      return;
    }
    ingress_.reserve(ingress_.size() + pkts.size());
    for (Packet& p : pkts) ingress_.push_back(std::move(p));
  }

  // Drains the entire ingress through the pipeline, batch by batch, in
  // arrival order.  Egress packets appear in the same order.
  void run() {
    egress_.reserve(egress_.size() + ingress_.size());
    run_rows(ingress_.data(), ingress_.size());
    for (Packet& p : ingress_) egress_.push_back(std::move(p));
    ingress_.clear();
  }

  // Runs rows[0, n) through the pipeline in place, batch by batch, in
  // order, bypassing the ingress and egress queues: the caller keeps the
  // rows (ShardCore runs FleetService's ring rows where they lie).
  void run_rows(Packet* rows, std::size_t n) {
    for (std::size_t start = 0; start < n; start += batch_size_) {
      const std::size_t k = std::min(batch_size_, n - start);
      run_batch(rows + start, k);
      ++stats_.batches;
      stats_.packets += k;
    }
  }

  // Moves the accumulated egress out, leaving the queue empty (capacity
  // included — a drained sim holds no packet storage).  The const accessor
  // remains for inspection; there is no mutable reference into the queue.
  std::vector<Packet> take_egress() {
    return std::exchange(egress_, std::vector<Packet>());
  }
  const std::vector<Packet>& egress() const { return egress_; }
  const BatchStats& stats() const { return stats_; }
  std::size_t batch_size() const { return batch_size_; }
  BatchDispatch dispatch() const { return dispatch_; }

 private:
  bool use_columns() const {
    switch (dispatch_) {
      case BatchDispatch::kRows: return false;
      case BatchDispatch::kColumnar: return true;
      case BatchDispatch::kAuto: return false;  // see the header comment
    }
    return false;
  }

  void run_batch(Packet* slice, std::size_t n) {
    if (use_columns()) {
      // Liveness-guided transpose: populate only the columns the program
      // reads before writing, copy back only the columns it stores to.
      // Every other field passes through untouched in the row packets.
      const CompiledPipeline& k = machine_.require_kernel();
      const auto& in = k.live_in_fields();
      const auto& out = k.written_fields();
      cols_.gather_fields(slice, n, k.num_fields(), in.data(), in.size());
      machine_.run_batch(BatchView::columns(cols_));
      cols_.scatter_fields(slice, out.data(), out.size());
      ++stats_.columnar_batches;
    } else {
      machine_.run_batch(BatchView::rows(slice, n));
    }
  }

  Machine& machine_;
  std::size_t batch_size_;
  BatchDispatch dispatch_;
  std::vector<Packet> ingress_;
  std::vector<Packet> egress_;
  ColumnBatch cols_;  // reused transpose buffer for columnar batches
  BatchStats stats_;
};

}  // namespace banzai
