// Batched Banzai execution: the throughput engine.
//
// PipelineSim is the cycle-accurate reference — one packet per stage slot,
// one clock per tick.  BatchSim hands a whole batch of packets to the
// machine at once (Machine::run_batch, a row-major slice), and the compiled
// pipeline advances it through each stage before moving to the next
// ("stage-major" order, op-major within a stage): each op's configuration
// and the state it touches stay hot in cache across the batch, per-op
// dispatch is paid once per batch, and the whole batch runs in place.
// run_rows() runs rows the caller owns, allocating nothing; the
// enqueue()/run()/take_egress() queue form moves packets through.
//
// Stage-major order is observationally identical to packet-major order
// because every state variable is local to exactly one atom in one stage
// (§2.3's locality discipline): state mutated in stage s is never read by any
// other stage, so running all packets through stage s before stage s+1
// commits the same per-packet state transitions in the same arrival order.
// The differential tests in tests/batch_test.cc prove this against both
// PipelineSim and sequential Machine::process on the whole algorithm corpus.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "banzai/machine.h"
#include "banzai/packet.h"

namespace banzai {

struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t packets = 0;
};

class BatchSim {
 public:
  explicit BatchSim(Machine& machine, std::size_t batch_size = 256)
      : machine_(machine), batch_size_(batch_size ? batch_size : 1) {}

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
      machine_.run_batch(BatchView::rows(rows + start, k));
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

 private:
  Machine& machine_;
  std::size_t batch_size_;
  std::vector<Packet> ingress_;
  std::vector<Packet> egress_;
  BatchStats stats_;
};

}  // namespace banzai
