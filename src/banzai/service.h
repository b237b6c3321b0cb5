// FleetService: the always-on streaming form of the sharded engine.
//
// The paper's Banzai machine models a switch that never stops — packets
// arrive continuously and per-flow state persists indefinitely.  Fleet::run
// (the offline path) partitions a finished trace; FleetService instead keeps
// the same ShardCore hot behind a live ingest path:
//
//   ingest thread ──hash──► per-shard SpscRing ──► shard worker ──► ShardCore
//        │                                              │
//        │ (Block: wait for space; DropTail: shed)      ▼
//        └──────────────── drop tombstones ───► OrderedEgress ──► drain()
//
// Every offered packet gets a global sequence number on the ingest thread;
// workers deliver processed packets to the OrderedEgress sink, which releases
// them strictly in arrival order (DropTail losses leave tombstones so the
// order watermark never stalls on a shed packet).
//
// Wake rule: a worker runs whatever its ring holds, one engine call per
// batch_size rows (ShardCore::drain), and naps when the ring is empty.  How
// soon ingest wakes a napping worker depends on the shard's arrival rate,
// which the worker measures over a ready batch's worth of rows —
// min(batch_size, ring capacity / 2), the half-ring cap keeping a DropTail
// ring from filling while its worker sleeps unwoken — or one nap (200 us),
// whichever ends first.  A quiet shard, whose rows arrive slower than a
// ready batch per nap, has its worker woken by the first row, so a sparse
// stream nobody flushes waits for no batch.  A busy shard has it woken once
// the ring holds a ready batch, not on every frame; there a partial batch
// waits at most one nap, unless flush(), stop() or a kBlock ingest waiting
// on a full ring wakes the worker, which they always do at once.
//
// Rows: like the header vector of a Banzai pipeline, a packet travels as a
// fixed-width row — exactly as wide as the prototype's FieldTable — that is
// allocated once and reused.  ingest_frame zeroes a spare row, parses the
// frame into it and moves it into a slot of its shard's ring; the worker
// runs the rows where they lie (ShardCore::drain) and moves them into the
// egress window's cells; drain_egress_frames() deparses settled rows and
// keeps them for the ingest side to take back as spares.  Each hand-off
// moves a row's storage, never its values, so in steady state the byte
// path allocates only the byte vector each egress frame is returned in,
// and it holds no more rows than were ever in flight or settled and
// undrained at once.  ingest() enforces the width on the caller's thread.
//
// Lifecycle: start() spawns one worker per shard; stop() drains every ring
// and joins (all accepted packets are delivered before stop returns);
// flush() sleeps on the egress watermark until everything offered so far is
// delivered or dropped.
// A stopped service can snapshot() its per-slot state, hand it to a service
// with a *different shard count* via restore(), and resume — state migrates
// with its slot (slot = flow_hash % num_slots is shard-count-independent),
// so the resharded service is bit-identical to a fresh one fed the same
// packets.  tests/service_test.cc and tests/service_fuzz_test.cc pin all of
// these contracts differentially against sequential Machine::process.
//
// Threading contract: at most one ingest thread at a time; drain_egress(),
// flush() and stats() may be called from any thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "banzai/fleet.h"
#include "banzai/spsc_ring.h"
#include "banzai/stats.h"
#include "wire/codec.h"

namespace banzai {

enum class Backpressure {
  kBlock,     // ingest waits for ring space: lossless, applies backpressure
  kDropTail,  // ingest sheds the packet when its shard's ring is full
};

struct ServiceConfig {
  std::size_t num_shards = 1;
  // State granularity: per-flow state lives in one of num_slots replicas, and
  // slots (not shards) are the unit of migration when resharding.  Must be
  // >= num_shards and must be kept identical across snapshot/restore.
  std::size_t num_slots = 64;
  std::size_t batch_size = 256;
  std::size_t ring_capacity = 1024;  // per shard, rounded up to a power of two
  Backpressure backpressure = Backpressure::kBlock;
  // Packet fields hashed together to pick a slot (and thus a shard).  Must be
  // non-empty unless num_slots == 1.
  std::vector<FieldId> flow_key;
  // Entries in the ingest-path heavy-hitter table (stats.h SpaceSaving,
  // keyed by flow_hash).  0 (the default) disables the detector entirely —
  // the ingest path then never touches it.
  std::size_t heavy_hitter_capacity = 0;
};

// Accounting for the byte-stream front end (ingest_frame / egress frames).
// The hardening invariant the wire fuzz suite pins: every offered frame is
// exactly one of parsed or rejected, and the per-status reject counters sum
// to frames_rejected — no frame is silently swallowed.
struct WireStats {
  std::uint64_t frames_parsed = 0;    // parsed clean and offered to ingest
  std::uint64_t frames_rejected = 0;  // sum of the three reject counters
  std::uint64_t reject_truncated = 0;
  std::uint64_t reject_oversized = 0;
  std::uint64_t reject_bad_value = 0;
  std::uint64_t bytes_in = 0;   // bytes of frames parsed clean
  std::uint64_t bytes_out = 0;  // bytes of egress frames deparsed
};

struct ServiceStats {
  std::uint64_t ingested = 0;   // offered = delivered + dropped + in flight
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;    // DropTail sheds
  WireStats wire;               // zero unless the byte path is in use
  double packets_per_sec = 0;   // delivered over wall-clock running time
  // Mean enqueue-to-egress latency where one tick == one subsequently
  // offered packet: a queueing-depth measure that is immune to clock jitter.
  double avg_latency_ticks = 0;
  // Latency quantiles in the same tick unit, from per-shard log2 histograms
  // merged at stats() time (stats.h): the reported value is the containing
  // bucket's upper edge, a conservative estimate within 2x.
  std::uint64_t latency_p50_ticks = 0;
  std::uint64_t latency_p99_ticks = 0;
  std::vector<std::size_t> queue_depth;  // current per-shard ring occupancy
  // Per-stage packets/ops/ns summed over every slot replica.  Exact (not
  // sampled) in -DDOMINO_STAGE_COUNTERS builds — tests/metrics_test.cc pins
  // the totals to a sequential reference per stage; all-zero otherwise.
  std::vector<StageCounterRow> stage_counters;
};

// Per-slot state checkpoint; the unit FleetService migrates on reshard.
struct ServiceSnapshot {
  std::size_t num_slots = 0;
  std::vector<StateStore> slot_state;
};

// Collects processed rows from all shard workers and releases them in global
// arrival (sequence) order.  The window is a power-of-two ring of cells, one
// per sequence number from the oldest not yet drained: a cell holds its
// processed row (delivered), a tombstone (a DropTail shed, so the in-order
// watermark can pass over it) or nothing yet (pending).  It grows (by
// doubling) only when the span from the oldest undrained sequence number
// to the newest delivery outgrows it.  Drained rows the caller did not move
// out wait in a free list until the ingest side recycle()s them.
class OrderedEgress {
 public:
  // Moves the processed rows for seqs[0, n) into their cells under one
  // lock, leaving rows[] empty.
  void deliver_batch(const std::uint64_t* seqs, Packet* rows, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < n; ++i) {
      Cell& c = cell(seqs[i]);
      c.state = Cell::kDelivered;
      c.row = std::move(rows[i]);
    }
    advance();
  }

  void drop(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    cell(seq).state = Cell::kDropped;
    advance();
  }

  // Appends take(row) to `out` for every delivered row whose order is
  // settled (every earlier sequence number is delivered or dropped) and not
  // yet drained, in arrival order, and frees their cells.  `take` runs
  // under the sink's lock and may move the row out; a row it leaves in
  // place goes to the free list.
  template <typename Out, typename Take>
  void drain(std::vector<Out>& out, Take take) {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(out.size() + static_cast<std::size_t>(next_ - drained_));
    for (; drained_ < next_; ++drained_) {
      Cell& c = cells_[drained_ & (cells_.size() - 1)];
      if (c.state == Cell::kDelivered) {
        out.push_back(take(c.row));
        if (c.row.num_fields() > 0) free_.push_back(std::move(c.row));
      }
      c.state = Cell::kPending;
    }
  }

  // Hands every row in the free list to `spares`, which must be empty (its
  // capacity is swapped in as the free list's).
  void recycle(std::vector<Packet>& spares) {
    std::lock_guard<std::mutex> lock(mu_);
    spares.swap(free_);
  }

  // First sequence number not yet accounted for: when this reaches the
  // ingest counter, every offered packet is delivered or dropped.
  std::uint64_t watermark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

  // Blocks until the watermark reaches `target` and returns true, or returns
  // false once `live` reads false with the target still ahead.  The delivery
  // or tombstone that carries the watermark past the lowest waiting target
  // wakes the waiters; so does wake_waiters().
  bool wait_for(std::uint64_t target, const std::atomic<bool>& live) {
    std::unique_lock<std::mutex> lock(mu_);
    while (next_ < target) {
      if (!live.load(std::memory_order_acquire)) return false;
      wake_at_ = std::min(wake_at_, target);
      settled_.wait(lock);
    }
    return true;
  }

  // Wakes every wait_for() to re-check its `live` flag.
  void wake_waiters() {
    std::lock_guard<std::mutex> lock(mu_);
    settled_.notify_all();
  }

 private:
  struct Cell {
    enum State : std::uint8_t { kPending, kDelivered, kDropped };
    State state = kPending;
    Packet row;
  };
  static constexpr std::uint64_t kNoWaiter = ~std::uint64_t{0};

  // The cell of `seq` (>= drained_), growing the window to reach it.
  Cell& cell(std::uint64_t seq) {
    if (seq - drained_ >= cells_.size()) {
      std::size_t cap = cells_.empty() ? 64 : cells_.size();
      while (cap <= seq - drained_) cap <<= 1;
      std::vector<Cell> grown(cap);
      for (std::uint64_t s = drained_; s < drained_ + cells_.size(); ++s)
        grown[s & (cap - 1)] = std::move(cells_[s & (cells_.size() - 1)]);
      cells_ = std::move(grown);
    }
    return cells_[seq & (cells_.size() - 1)];
  }

  void advance() {
    while (next_ - drained_ < cells_.size() &&
           cells_[next_ & (cells_.size() - 1)].state != Cell::kPending)
      ++next_;
    if (next_ >= wake_at_) {
      wake_at_ = kNoWaiter;
      settled_.notify_all();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable settled_;  // wait_for() sleeps here
  std::vector<Cell> cells_;  // cells_[seq & (size - 1)], seq >= drained_
  std::vector<Packet> free_;  // drained rows, for recycle()
  std::uint64_t drained_ = 0;  // first sequence number not yet drained
  std::uint64_t next_ = 0;     // the watermark
  std::uint64_t wake_at_ = kNoWaiter;  // lowest target a waiter sleeps on
};

class FleetService {
 public:
  FleetService(const Machine& prototype, ServiceConfig config);
  ~FleetService();
  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // Spawns one worker thread per shard.  Idempotent while running.
  void start();

  // Drains every ring (all accepted packets are processed), joins the
  // workers and accumulates uptime.  Idempotent; start() may follow.
  void stop();

  // Blocks until every packet offered before the call is delivered or
  // dropped: sleeps on the egress watermark and wakes when the delivery or
  // DropTail tombstone that settles the last of them lands.  Requires a
  // running service when packets are outstanding (std::logic_error).
  //
  // Quiescence: called from the ingest thread, flush() returns with no row
  // in flight, and no shard worker touches slot state again until that
  // thread's next ingest publishes a row (a release/acquire ring handoff).
  // Until then the ingest thread may read or replace slot state through
  // slot_machine() with the workers running: a checkpoint needs no
  // stop()/start().
  void flush();

  // Offers one packet.  Returns true if accepted; false if shed (DropTail
  // with a full shard ring).  Under kBlock this waits for ring space and
  // always returns true.  The packet must be exactly as wide as the
  // prototype's FieldTable — the width of every ring row — or this throws
  // std::invalid_argument on the caller's thread before the packet is
  // counted or given a sequence number; std::logic_error when the service is
  // not running.  Must not be called concurrently with itself.
  bool ingest(Packet pkt);

  // Offers a whole trace in order; returns how many packets were accepted.
  std::size_t ingest_all(const std::vector<Packet>& pkts);

  // ---- byte-stream front end (parse -> shard-hash -> pipeline -> deparse) --
  //
  // Attach an ingress codec (parses frames into machine packets) and an
  // egress codec (deparses processed packets back to frames; pass the
  // compiler's output_map() as its rename so final field values land on the
  // wire).  tx == nullptr reuses rx for both directions.  Must be called
  // while the service is stopped; both codecs must be bound against the
  // prototype machine's FieldTable.
  void set_wire(std::shared_ptr<const wire::WireCodec> rx,
                std::shared_ptr<const wire::WireCodec> tx = nullptr);

  struct FrameIngest {
    wire::ParseResult parse;
    bool accepted = false;  // false: rejected by parse, or shed by DropTail
  };

  // Offers one frame.  Exact framing (frames are headers: trailing payload
  // is kOversized).  A frame is either parsed and offered like ingest() — so
  // every ingest contract (ordering, backpressure, stats) applies — or
  // rejected with a typed status and counted, leaving no other trace: a
  // malformed frame can never reach a ring, a shard, or the egress window.
  // The frame is parsed into a zeroed, recycled row (a fresh Packet to the
  // pipeline) that then moves into its shard's ring, so nothing is
  // allocated.  On a stopped service this throws std::logic_error before
  // parsing, so a refused frame is counted nowhere.  Same threading
  // contract as ingest(): one caller at a time.
  FrameIngest ingest_frame(const std::uint8_t* data, std::size_t len);

  // Order-settled egress deparsed back to frames (one byte vector each), in
  // arrival order; the rows are kept for ingest_frame to reuse.  Requires
  // set_wire.
  std::vector<std::vector<std::uint8_t>> drain_egress_frames();

  // Order-settled egress so far, in arrival order (see OrderedEgress).  The
  // rows move out to the caller.
  std::vector<Packet> drain_egress() {
    std::vector<Packet> out;
    egress_.drain(out, [](Packet& row) { return std::move(row); });
    return out;
  }

  ServiceStats stats() const;

  // The top-k flows by offered-packet count, keyed by flow_hash, from the
  // ingest-path space-saving table (see stats.h for the estimate/error
  // guarantees).  Empty unless ServiceConfig::heavy_hitter_capacity > 0.
  // Counts offered load, so DropTail sheds are included — the detector's job
  // is to explain pressure, not delivery.  Any thread.
  std::vector<HeavyHitter> heavy_hitters(std::size_t k) const;

  // Checkpoint / elastic-resharding cycle.  Both require a stopped service;
  // restore additionally requires a matching slot count (resharding changes
  // num_shards, never num_slots).
  ServiceSnapshot snapshot() const;
  void restore(const ServiceSnapshot& snap);

  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServiceConfig& config() const { return config_; }
  std::size_t num_shards() const { return core_.num_shards(); }
  std::size_t num_slots() const { return core_.num_slots(); }
  std::size_t slot_of(const Packet& pkt) const { return core_.slot_of(pkt); }
  std::size_t shard_of(const Packet& pkt) const { return core_.shard_of(pkt); }
  // The slot replica, for differential verification against a reference.
  Machine& slot_machine(std::size_t slot) { return core_.slot_machine(slot); }

 private:
  // One ingest call in flight (see ingest_inflight_).  Throws
  // std::logic_error when the service is not running.
  class IngestScope {
   public:
    explicit IngestScope(FleetService& svc);
    ~IngestScope() { inflight_.fetch_sub(1); }
    IngestScope(const IngestScope&) = delete;
    IngestScope& operator=(const IngestScope&) = delete;

   private:
    std::atomic<std::uint64_t>& inflight_;
  };

  struct Shard {
    explicit Shard(std::size_t ring_capacity)
        : ring(ring_capacity), seq(ring.capacity()), slot(ring.capacity()) {}
    // Each ring slot carries a row and, beside it, the row's sequence number
    // and state slot: the producer fills all three before publish(), and
    // the worker runs the row where it lies, then moves it to the egress.
    SpscRing<Packet> ring;
    std::vector<std::uint64_t> seq;
    std::vector<std::size_t> slot;
    std::mutex mu;
    std::condition_variable cv;        // worker idle-sleep / wake-up
    // Armed by the napping worker before every wait; wake() clears it as it
    // notifies, so one nap takes one notify.
    std::atomic<bool> sleeping{false};
    // Ring occupancy at which ingest wakes the napping worker: 1 while the
    // shard is quiet, wake_rows_ while it is busy (the wake rule).  Written
    // by the worker only.
    std::atomic<std::size_t> wake_at{1};
    std::thread worker;
    // Per-shard latency histogram: the worker records one sample per
    // delivered packet (batched, under lat_mu — uncontended except when
    // stats() merges).  Per-worker accumulation keeps the hot path free of
    // cross-shard sharing; stats() merges across shards.
    std::mutex lat_mu;
    LatencyHistogram lat_hist;
  };

  // Assigns `row` a sequence number and moves it into a slot of its shard's
  // ring (waiting for one under kBlock, shedding under kDropTail); a shed
  // row is left untouched.
  bool offer(Packet& row);
  void worker_loop(std::size_t shard_index);
  void wake(Shard& shard);

  ServiceConfig config_;
  ShardCore core_;
  std::size_t width_;  // the prototype's FieldTable size: every row's width
  // A ready batch: the ring occupancy at which ingest wakes a busy shard's
  // napping worker (the wake rule).
  std::size_t wake_rows_ = 1;
  OrderedEgress egress_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Rows ingest_frame parses into, the back one first; refilled from the
  // egress free list.  Owned by the (single) ingest thread.
  std::vector<Packet> spares_;

  // Byte-stream front end.  Codecs are immutable after set_wire (which
  // requires a stopped service); counters are atomics because stats() and
  // deparse (drain_egress_frames) may run on other threads than
  // ingest_frame.  Only the ingest thread writes frames_parsed_,
  // wire_bytes_in_ and the reject counters, so it bumps them with a load and
  // a store (successive ingest threads are ordered by IngestScope).
  std::shared_ptr<const wire::WireCodec> wire_rx_, wire_tx_;
  std::atomic<std::uint64_t> frames_parsed_{0};
  std::atomic<std::uint64_t> reject_truncated_{0};
  std::atomic<std::uint64_t> reject_oversized_{0};
  std::atomic<std::uint64_t> reject_bad_value_{0};
  std::atomic<std::uint64_t> wire_bytes_in_{0};
  std::atomic<std::uint64_t> wire_bytes_out_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Ingest calls in flight.  Workers refuse to exit while this is non-zero,
  // closing the race where an ingest that passed the running_ check pushes
  // into a ring whose worker has already shut down (all seq_cst: the
  // increment is ordered before the stopping_ check on the producer, so a
  // worker that reads 0 after stopping_ was set cannot miss a push).
  std::atomic<std::uint64_t> ingest_inflight_{0};
  // Ingest clock: offered packets.  Written only by the ingest thread, with
  // a release store; flush() and the workers read it with acquire.
  std::atomic<std::uint64_t> seq_counter_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> latency_ticks_sum_{0};

  // Heavy-hitter table, fed by the (single) ingest thread and read by
  // heavy_hitters()/metrics threads; null when disabled.  The mutex is off
  // the worker hot path entirely — only ingest and readers touch it.
  std::unique_ptr<SpaceSaving> hh_;
  mutable std::mutex hh_mu_;

  mutable std::mutex lifecycle_mu_;  // start/stop/snapshot/restore/uptime
  std::chrono::steady_clock::time_point started_at_{};
  double uptime_seconds_ = 0;
};

}  // namespace banzai
