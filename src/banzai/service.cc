#include "banzai/service.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace banzai {

namespace {
// The worker's idle nap, and the wake rule's yardstick (service.h): a shard
// is busy while its rows arrive at a ready batch per nap or faster.  A busy
// shard's worker naps until a batch is ready, so this slice is also the
// longest a partial batch that nobody flushes waits before the worker runs
// it.
constexpr std::chrono::microseconds kIdleNap{200};
constexpr std::chrono::microseconds kBlockNap{50};   // blocked-ingest wait
constexpr int kSpinsBeforeNap = 64;

// The ingest thread is the only writer of its counters: a plain store
// replaces a locked read-modify-write.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}
}  // namespace

FleetService::IngestScope::IngestScope(FleetService& svc)
    : inflight_(svc.ingest_inflight_) {
  // Raise the in-flight count BEFORE the liveness check (both seq_cst): a
  // racing stop() either sees the count and its workers keep draining until
  // this push lands, or this thread sees stopping_/!running_ and bails
  // before touching a ring.  Without the handshake an accepted packet could
  // be stranded in a ring whose worker already exited.
  inflight_.fetch_add(1);
  if (!svc.running_.load() || svc.stopping_.load()) {
    inflight_.fetch_sub(1);
    throw std::logic_error("FleetService::ingest: service is not started");
  }
}

FleetService::FleetService(const Machine& prototype, ServiceConfig config)
    : config_(std::move(config)),
      core_(prototype, config_.num_slots, config_.num_shards,
            config_.batch_size, config_.flow_key),
      width_(prototype.fields().size()) {
  config_.num_shards = core_.num_shards();
  config_.num_slots = core_.num_slots();
  shards_.reserve(core_.num_shards());
  for (std::size_t s = 0; s < core_.num_shards(); ++s)
    shards_.push_back(std::make_unique<Shard>(config_.ring_capacity));
  config_.ring_capacity = shards_[0]->ring.capacity();
  wake_rows_ = std::max<std::size_t>(
      1, std::min(config_.batch_size, config_.ring_capacity / 2));
  if (config_.heavy_hitter_capacity > 0)
    hh_ = std::make_unique<SpaceSaving>(config_.heavy_hitter_capacity);
}

FleetService::~FleetService() { stop(); }

void FleetService::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  started_at_ = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s]->worker = std::thread(&FleetService::worker_loop, this, s);
}

void FleetService::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true);  // seq_cst: pairs with the in-flight ingest guard
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  running_.store(false, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  egress_.wake_waiters();  // a flush() with packets stranded must not sleep
  uptime_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started_at_)
                         .count();
}

void FleetService::flush() {
  const std::uint64_t target = seq_counter_.load(std::memory_order_acquire);
  if (egress_.watermark() >= target) return;
  // A worker that raced into its idle nap must not make the flush wait out
  // the nap's timeout.
  for (auto& shard : shards_) wake(*shard);
  // A concurrent stop() drains every ring before clearing running_, so only
  // a genuinely stranded packet makes the wait give up.
  if (!egress_.wait_for(target, running_))
    throw std::logic_error(
        "FleetService::flush: packets outstanding but service is stopped");
}

void FleetService::wake(Shard& shard) {
  // Clearing the flag makes this one notify per wait: ingest, which checks
  // the flag on every publish, stops notifying until the worker waits
  // again.
  if (shard.sleeping.load(std::memory_order_relaxed) &&
      shard.sleeping.exchange(false, std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cv.notify_one();
  }
}

bool FleetService::ingest(Packet pkt) {
  if (pkt.num_fields() != width_)
    throw std::invalid_argument(
        "FleetService::ingest: packet width " +
        std::to_string(pkt.num_fields()) + " is not the FieldTable's " +
        std::to_string(width_));
  const IngestScope scope(*this);
  return offer(pkt);
}

bool FleetService::offer(Packet& row) {
  // Offered load feeds the heavy-hitter table (before any backpressure
  // verdict: the detector explains pressure, shed packets included).  The
  // ingest thread is the only writer; readers serialize on hh_mu_.
  if (hh_ != nullptr) {
    std::lock_guard<std::mutex> hh_lock(hh_mu_);
    hh_->offer(core_.flow_hash(row));
  }
  const std::size_t slot = core_.slot_of(row);
  Shard& shard = *shards_[slot % core_.num_shards()];
  const std::uint64_t seq = seq_counter_.load(std::memory_order_relaxed);
  // Release: flush() and the workers read the ingest clock with acquire.
  seq_counter_.store(seq + 1, std::memory_order_release);
  std::size_t index = 0;
  if (!shard.ring.claim(index)) {
    if (config_.backpressure == Backpressure::kDropTail) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      egress_.drop(seq);
      return false;
    }
    // kBlock: the worker will make space; nap until it does.
    int spins = 0;
    do {
      wake(shard);
      if (++spins < kSpinsBeforeNap)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(kBlockNap);
    } while (!shard.ring.claim(index));
  }
  shard.ring[index] = std::move(row);
  shard.seq[index] = seq;
  shard.slot[index] = slot;
  shard.ring.publish();
  // The wake rule: the first row wakes a quiet shard's worker, a ready batch
  // a busy one's.
  if (shard.sleeping.load(std::memory_order_relaxed) &&
      shard.ring.size() >= shard.wake_at.load(std::memory_order_relaxed))
    wake(shard);
  return true;
}

std::size_t FleetService::ingest_all(const std::vector<Packet>& pkts) {
  std::size_t accepted = 0;
  for (const Packet& p : pkts)
    if (ingest(p)) ++accepted;
  return accepted;
}

void FleetService::set_wire(std::shared_ptr<const wire::WireCodec> rx,
                            std::shared_ptr<const wire::WireCodec> tx) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire))
    throw std::logic_error(
        "FleetService::set_wire: stop() the service before changing codecs");
  if (rx == nullptr)
    throw std::invalid_argument("FleetService::set_wire: rx codec is null");
  wire_rx_ = std::move(rx);
  wire_tx_ = tx != nullptr ? std::move(tx) : wire_rx_;
}

FleetService::FrameIngest FleetService::ingest_frame(const std::uint8_t* data,
                                                     std::size_t len) {
  if (wire_rx_ == nullptr)
    throw std::logic_error(
        "FleetService::ingest_frame: no wire codec (call set_wire first)");
  const IngestScope scope(*this);
  if (spares_.empty()) {
    egress_.recycle(spares_);
    if (spares_.empty()) spares_.emplace_back();
  }
  Packet& row = spares_.back();
  row.reset(width_);
  FrameIngest out;
  out.parse = wire_rx_->parse_exact(data, len, row);
  if (!out.parse.ok()) {
    switch (out.parse.status) {
      case wire::ParseStatus::kTruncated:
        bump(reject_truncated_, 1);
        break;
      case wire::ParseStatus::kOversized:
        bump(reject_oversized_, 1);
        break;
      default:
        bump(reject_bad_value_, 1);
        break;
    }
    return out;
  }
  bump(frames_parsed_, 1);
  bump(wire_bytes_in_, len);
  out.accepted = offer(row);
  if (out.accepted) spares_.pop_back();  // its storage is in the ring now
  return out;
}

template <typename Reserve, typename Emit>
std::size_t FleetService::drain_frames(Reserve reserve, Emit emit) {
  if (wire_tx_ == nullptr)
    throw std::logic_error(
        "FleetService::drain_egress_frames: no wire codec (call set_wire "
        "first)");
  const wire::WireCodec& tx = *wire_tx_;
  std::size_t frames = 0;
  egress_.drain(reserve, [&](const Packet& row) {
    emit(tx, row);
    ++frames;
  });
  wire_bytes_out_.fetch_add(frames * tx.header_bytes(),
                            std::memory_order_relaxed);
  return frames;
}

std::vector<std::vector<std::uint8_t>> FleetService::drain_egress_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  drain_frames([&frames](std::size_t n) { frames.reserve(n); },
               [&frames](const wire::WireCodec& tx, const Packet& row) {
                 frames.push_back(tx.deparse(row));
               });
  return frames;
}

std::size_t FleetService::drain_egress_frames(std::vector<std::uint8_t>& out) {
  return drain_frames(
      [](std::size_t) {},  // resize's geometric growth serves a reused buffer
      [&out](const wire::WireCodec& tx, const Packet& row) {
        const std::size_t at = out.size();
        out.resize(at + tx.header_bytes());
        tx.deparse_into(row, out.data() + at);
      });
}

void FleetService::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const std::size_t batch = config_.batch_size ? config_.batch_size : 1;
  // The wake rule (service.h) is decided here and published in wake_at.
  // `window_rows` counts the rows run since `window`, which opens at the
  // last nap before the first of them.
  auto window = std::chrono::steady_clock::now();
  std::size_t window_rows = 0;
  shard.wake_at.store(1, std::memory_order_relaxed);

  for (;;) {
    std::size_t first = 0;
    const std::size_t n = shard.ring.peek(batch, first);
    if (n > 0) {
      Packet* rows = &shard.ring[first];
      const std::uint64_t* seqs = &shard.seq[first];
      core_.drain(shard_index, &shard.slot[first], rows, n);
      // Account before delivering, so a flush() that the delivery releases
      // sees these packets in stats().  Latency in ingest ticks: how many
      // packets were offered service-wide between this packet's arrival and
      // its delivery.
      const std::uint64_t now_tick =
          seq_counter_.load(std::memory_order_acquire);
      std::uint64_t lat = 0;
      for (std::size_t i = 0; i < n; ++i) lat += now_tick - seqs[i];
      latency_ticks_sum_.fetch_add(lat, std::memory_order_relaxed);
      {
        // Quantile samples, batched under the shard-local lock (contended
        // only by a concurrent stats() merge, never by other workers).
        std::lock_guard<std::mutex> lat_lock(shard.lat_mu);
        for (std::size_t i = 0; i < n; ++i)
          shard.lat_hist.record(now_tick - seqs[i]);
      }
      delivered_.fetch_add(n, std::memory_order_acq_rel);
      egress_.deliver_batch(seqs, rows, n);
      shard.ring.release(n);
      window_rows += n;
      continue;
    }

    // Exit only when stop was requested, no ingest call is mid-push, and the
    // ring is drained — in that order: a producer that read stopping_ ==
    // false before our in-flight read would still be counted, and one that
    // finished its push before the in-flight read leaves the ring non-empty
    // for the check that follows.
    if (stopping_.load() && ingest_inflight_.load() == 0 && shard.ring.empty())
      break;

    // The shard is busy while its rows arrive at a batch per nap or faster,
    // judged over a batch of rows or a nap's time, whichever ends first.
    const auto now = std::chrono::steady_clock::now();
    if (window_rows == 0) {
      window = now;
    } else if (window_rows >= wake_rows_ || now - window > kIdleNap) {
      const bool busy = kIdleNap * static_cast<std::int64_t>(window_rows) >=
                        (now - window) * static_cast<std::int64_t>(wake_rows_);
      shard.wake_at.store(busy ? wake_rows_ : 1, std::memory_order_relaxed);
      window = now;
      window_rows = 0;
    }

    // Idle: nap until ingest wakes us by the wake rule, flush() or stop()
    // wakes us, or the nap runs out.  The timed wait bounds both the wait
    // of a partial batch nobody flushes and the one benign race (a push
    // landing between the last empty poll and the wait).  The predicate
    // re-arms `sleeping` before every wait, so a wake that finds nothing to
    // run (a flush() of other shards' rows) leaves the next one armed.
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.cv.wait_for(lock, kIdleNap, [&] {
      if (!shard.ring.empty() || stopping_.load(std::memory_order_acquire))
        return true;
      shard.sleeping.store(true, std::memory_order_relaxed);
      return false;
    });
    shard.sleeping.store(false, std::memory_order_relaxed);
  }
}

ServiceStats FleetService::stats() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  ServiceStats st;
  st.ingested = seq_counter_.load(std::memory_order_acquire);
  st.delivered = delivered_.load(std::memory_order_acquire);
  st.dropped = dropped_.load(std::memory_order_acquire);
  st.wire.frames_parsed = frames_parsed_.load(std::memory_order_relaxed);
  st.wire.reject_truncated =
      reject_truncated_.load(std::memory_order_relaxed);
  st.wire.reject_oversized =
      reject_oversized_.load(std::memory_order_relaxed);
  st.wire.reject_bad_value =
      reject_bad_value_.load(std::memory_order_relaxed);
  st.wire.frames_rejected = st.wire.reject_truncated +
                            st.wire.reject_oversized +
                            st.wire.reject_bad_value;
  st.wire.bytes_in = wire_bytes_in_.load(std::memory_order_relaxed);
  st.wire.bytes_out = wire_bytes_out_.load(std::memory_order_relaxed);
  double up = uptime_seconds_;
  if (running_.load(std::memory_order_acquire))
    up += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at_)
              .count();
  st.packets_per_sec = up > 0 ? static_cast<double>(st.delivered) / up : 0;
  st.avg_latency_ticks =
      st.delivered > 0
          ? static_cast<double>(
                latency_ticks_sum_.load(std::memory_order_relaxed)) /
                static_cast<double>(st.delivered)
          : 0;
  st.queue_depth.reserve(shards_.size());
  for (const auto& shard : shards_) st.queue_depth.push_back(shard->ring.size());
  // Latency quantiles: merge the per-shard histograms, then read the bucket
  // edges.  Cheap (kBuckets integers per shard) and off the worker hot path.
  {
    std::uint64_t counts[LatencyHistogram::kBuckets] = {};
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lat_lock(shard->lat_mu);
      shard->lat_hist.merge_into(counts, total);
    }
    st.latency_p50_ticks = histogram_quantile(counts, total, 0.50);
    st.latency_p99_ticks = histogram_quantile(counts, total, 0.99);
  }
  st.stage_counters = core_.stage_counter_rows();
  return st;
}

std::vector<HeavyHitter> FleetService::heavy_hitters(std::size_t k) const {
  std::lock_guard<std::mutex> hh_lock(hh_mu_);
  if (hh_ == nullptr) return {};
  return hh_->top(k);
}

ServiceSnapshot FleetService::snapshot() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire))
    throw std::logic_error(
        "FleetService::snapshot: stop() the service before snapshotting");
  ServiceSnapshot snap;
  snap.num_slots = core_.num_slots();
  snap.slot_state = core_.snapshot_state();
  return snap;
}

void FleetService::restore(const ServiceSnapshot& snap) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire))
    throw std::logic_error(
        "FleetService::restore: stop() the service before restoring");
  if (snap.num_slots != core_.num_slots() ||
      snap.slot_state.size() != core_.num_slots())
    throw std::invalid_argument(
        "FleetService::restore: slot count mismatch (resharding changes "
        "num_shards, never num_slots)");
  core_.restore_state(snap.slot_state);
}

}  // namespace banzai
