// Observability primitives for the Banzai runtime: per-stage counters keyed
// on the kernel's StageRange boundaries, a log2-bucketed latency histogram,
// and a space-saving heavy-hitter table for the service ingest path.
//
// Design contract (docs/OBSERVABILITY.md):
//  - StageCounters is written on the hot path with relaxed atomics and read
//    concurrently by stats()/metrics threads.  It is NOT resize-safe against
//    concurrent readers: callers must prepare() every instance up front
//    (ShardCore does this for each slot replica at construction) and never
//    grow one while workers run.
//  - Counter increments are exact, not sampled: a packet that traverses stage
//    s adds exactly 1 to packets[s].  The exactness tests in
//    tests/metrics_test.cc pin threaded FleetService totals to a sequential
//    Machine::process reference, per stage, per engine.
//  - All of this compiles and is unit-tested regardless of the
//    DOMINO_STAGE_COUNTERS build flag; the flag only decides whether the
//    execution engines *increment* the counters (see machine.cc, emit.cc).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace banzai {

// One stage's totals, as plain data (the snapshot/aggregation currency).
struct StageCounterRow {
  std::uint64_t packets = 0;  // packets that executed this stage
  std::uint64_t ops = 0;      // micro-ops retired
  std::uint64_t ns = 0;       // wall time attributed to this stage
};

// A copyable relaxed atomic counter.  Copy/assign load the source with
// memory_order_relaxed, which keeps StageCounters (and Machine) copyable —
// a clone starts from whatever the source had accumulated; callers that want
// a fresh replica reset() after cloning (ShardCore does).
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  explicit RelaxedCounter(std::uint64_t v) : v_(v) {}
  RelaxedCounter(const RelaxedCounter& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.v_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
  void add(std::uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Dense per-stage accumulators.  One instance per Machine; each worker owns
// its machine replica so hot-path increments never contend — aggregation
// happens at stats() time by summing rows() across replicas.
class StageCounters {
 public:
  // Sizes the table for `stages` stages.  Growing is only safe while no other
  // thread touches this instance; shrinking never happens (prepare with the
  // max).  Idempotent when already at least `stages` wide.
  void prepare(std::size_t stages) {
    if (cells_.size() < stages) cells_.resize(stages);
  }

  std::size_t stages() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }

  void add(std::size_t stage, std::uint64_t packets, std::uint64_t ops,
           std::uint64_t ns) {
    Cell& c = cells_[stage];
    c.packets.add(packets);
    c.ops.add(ops);
    c.ns.add(ns);
  }

  StageCounterRow row(std::size_t stage) const {
    const Cell& c = cells_[stage];
    return {c.packets.get(), c.ops.get(), c.ns.get()};
  }

  std::vector<StageCounterRow> rows() const {
    std::vector<StageCounterRow> out(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = row(i);
    return out;
  }

  // Adds this instance's totals into `into`, growing it as needed.  Safe to
  // call while writers are still incrementing (totals are then a snapshot
  // that may trail the hot path by a few packets — fine for metrics; the
  // exactness tests quiesce first).
  void merge_into(std::vector<StageCounterRow>& into) const {
    if (into.size() < cells_.size()) into.resize(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const StageCounterRow r = row(i);
      into[i].packets += r.packets;
      into[i].ops += r.ops;
      into[i].ns += r.ns;
    }
  }

  void reset() {
    for (Cell& c : cells_) {
      c.packets.reset();
      c.ops.reset();
      c.ns.reset();
    }
  }

 private:
  struct Cell {
    RelaxedCounter packets, ops, ns;
  };
  std::vector<Cell> cells_;
};

// ---------------------------------------------------------------------------
// Latency histogram: log2 buckets over non-negative tick counts.
// ---------------------------------------------------------------------------

// Bucket i counts samples whose value has bit-width i (value 0 → bucket 0,
// 1 → bucket 1, 2..3 → bucket 2, 4..7 → bucket 3, ...).  Quantiles report the
// bucket's inclusive upper edge (2^i - 1), i.e. a conservative estimate with
// relative error < 2x — plenty for a control loop comparing against a
// threshold an order of magnitude away from steady state.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit widths of uint64_t + 0

  void record(std::uint64_t ticks) {
    ++counts_[bucket_of(ticks)];
    ++total_;
  }

  std::uint64_t total() const { return total_; }

  void merge_into(std::uint64_t (&counts)[kBuckets],
                  std::uint64_t& total) const {
    for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += counts_[i];
    total += total_;
  }

  void reset() {
    for (auto& c : counts_) c = 0;
    total_ = 0;
  }

  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t w = 0;
    while (v != 0) {
      ++w;
      v >>= 1;
    }
    return w;
  }

  // Inclusive upper edge of bucket i.
  static std::uint64_t bucket_edge(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

// The q-quantile (q in [0,1]) of a merged bucket array: the upper edge of the
// bucket containing the ceil(q * total)-th sample.  Returns 0 on an empty
// histogram.
std::uint64_t histogram_quantile(
    const std::uint64_t (&counts)[LatencyHistogram::kBuckets],
    std::uint64_t total, double q);

// ---------------------------------------------------------------------------
// Heavy hitters: the space-saving algorithm (Metwally et al., 2005) — the
// fixed-size top-k summary HashPipe approximates in a pipeline.
// ---------------------------------------------------------------------------

struct HeavyHitter {
  std::uint64_t key = 0;    // flow key (FleetService uses flow_hash)
  std::uint64_t count = 0;  // estimated count; count - error <= true <= count
  std::uint64_t error = 0;  // overestimation bound inherited at replacement
};

// Classic space-saving: a fixed table of `capacity` entries.  A hit
// increments; a miss with room inserts {key, 1, 0}; a miss at capacity
// replaces the minimum-count entry with {key, min+1, min}.  Guarantees: every
// flow with true count > N/capacity is present, and each entry's estimate
// over-counts by at most its `error`.  Not thread-safe — FleetService guards
// its instance with a mutex off the worker hot path (ingest thread only).
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
    index_.reserve(capacity * 2);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t offered() const { return offered_; }

  void offer(std::uint64_t key);

  // The top-k entries by estimated count, descending (ties by key for
  // determinism).  k > size() returns everything.
  std::vector<HeavyHitter> top(std::size_t k) const;

  void reset() {
    entries_.clear();
    index_.clear();
    offered_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<HeavyHitter> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key → entries_ idx
  std::uint64_t offered_ = 0;
};

}  // namespace banzai
