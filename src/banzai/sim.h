// Cycle-accurate Banzai pipeline simulation with multiple packets in flight.
//
// This is what makes the transactional guarantee *testable*: packets enter one
// per clock cycle and overlap in the pipeline (packet i is in stage s while
// packet i+1 is in stage s-1), exactly as in the hardware the paper models.
// Differential tests compare the result of this execution against the
// sequential one-packet-at-a-time interpreter.
//
// Engine dispatch: each stage executes its StageRange of the machine's
// CompiledPipeline in place (kernel.h) — the same program the
// whole-pipeline kernel and native paths run.  Per-stage in-place execution
// is legal because seal() verifies each stage's writes are disjoint with no
// intra-stage read-after-write.  A kNative machine also runs the micro-op
// program here: the dlopen'd pipeline exports a whole-pipeline entry point
// only, and the engines are bit-exact, so the VM is the per-stage truth.  A
// machine with no pipeline attached is refused at construction
// (Machine::require_kernel throws std::logic_error).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "banzai/machine.h"
#include "banzai/packet.h"

namespace banzai {

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
};

class PipelineSim {
 public:
  explicit PipelineSim(Machine& machine)
      : machine_(machine),
        in_flight_(machine.require_kernel().num_stages()) {}

  // Offers one packet to the pipeline for the upcoming cycle.  Line-rate
  // switches accept one packet per clock; calling enqueue more than once per
  // tick queues packets at the parser, preserving arrival order.
  void enqueue(Packet pkt) {
    ingress_.push_back(std::move(pkt));
    ++stats_.packets_in;
  }

  // Advances the machine by one clock cycle: every stage processes the packet
  // it holds and hands it to the next stage; a new packet (if any) enters
  // stage 0.
  void tick() {
    ++stats_.cycles;
    const CompiledPipeline& k = machine_.require_kernel();
    const std::size_t n = in_flight_.size();
    // Move from the last stage outwards so each packet advances exactly one
    // stage per cycle.
    if (n == 0) {
      if (!ingress_.empty()) {
        egress_.push_back(std::move(ingress_.front()));
        ingress_.pop_front();
        ++stats_.packets_out;
      }
      return;
    }
    if (in_flight_[n - 1].has_value()) {
      egress_.push_back(std::move(*in_flight_[n - 1]));
      in_flight_[n - 1].reset();
      ++stats_.packets_out;
    }
    for (std::size_t s = n - 1; s > 0; --s) {
      if (in_flight_[s - 1].has_value()) {
        Packet p = std::move(*in_flight_[s - 1]);
        k.run_stage_bound(s, p, bound_vars(k));
        in_flight_[s] = std::move(p);
        in_flight_[s - 1].reset();
      }
    }
    if (!ingress_.empty()) {
      Packet p = std::move(ingress_.front());
      k.run_stage_bound(0, p, bound_vars(k));
      in_flight_[0] = std::move(p);
      ingress_.pop_front();
    }
  }

  // Ticks until the pipeline is fully drained.
  void drain() {
    while (!ingress_.empty() || busy()) tick();
  }

  bool busy() const {
    for (const auto& slot : in_flight_)
      if (slot.has_value()) return true;
    return false;
  }

  std::vector<Packet>& egress() { return egress_; }
  const SimStats& stats() const { return stats_; }

 private:
  // Resolved state bindings, keyed on the StateStore generation exactly like
  // Machine's cache: restore_state()/declare() bump the generation, forcing
  // a rebind before the next stale pointer could be dereferenced.
  StateVar* const* bound_vars(const CompiledPipeline& k) {
    if (bind_prog_ != &k || bind_gen_ != machine_.state().generation()) {
      vars_.resize(k.num_state_vars());
      k.resolve_state(machine_.state(), vars_.data());
      bind_prog_ = &k;
      bind_gen_ = machine_.state().generation();
    }
    return vars_.data();
  }

  Machine& machine_;
  std::deque<Packet> ingress_;
  std::vector<std::optional<Packet>> in_flight_;  // one slot per stage
  std::vector<Packet> egress_;
  SimStats stats_;
  const CompiledPipeline* bind_prog_ = nullptr;
  std::uint64_t bind_gen_ = 0;
  std::vector<StateVar*> vars_;
};

}  // namespace banzai
