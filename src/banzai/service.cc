#include "banzai/service.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace banzai {

namespace {
constexpr std::chrono::microseconds kIdleNap{200};   // worker idle wait slice
constexpr std::chrono::microseconds kBlockNap{50};   // blocked-ingest wait
constexpr int kSpinsBeforeNap = 64;
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
  if (shard.sleeping.load(std::memory_order_relaxed)) {
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
  const std::uint64_t seq =
      seq_counter_.fetch_add(1, std::memory_order_acq_rel);
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
        reject_truncated_.fetch_add(1, std::memory_order_relaxed);
        break;
      case wire::ParseStatus::kOversized:
        reject_oversized_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        reject_bad_value_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return out;
  }
  frames_parsed_.fetch_add(1, std::memory_order_relaxed);
  wire_bytes_in_.fetch_add(len, std::memory_order_relaxed);
  out.accepted = offer(row);
  if (out.accepted) spares_.pop_back();  // its storage is in the ring now
  return out;
}

std::vector<std::vector<std::uint8_t>> FleetService::drain_egress_frames() {
  if (wire_tx_ == nullptr)
    throw std::logic_error(
        "FleetService::drain_egress_frames: no wire codec (call set_wire "
        "first)");
  std::vector<std::vector<std::uint8_t>> frames;
  const wire::WireCodec& tx = *wire_tx_;
  egress_.drain(frames, [&tx](const Packet& row) { return tx.deparse(row); });
  wire_bytes_out_.fetch_add(frames.size() * tx.header_bytes(),
                            std::memory_order_relaxed);
  return frames;
}

void FleetService::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const std::size_t batch = config_.batch_size ? config_.batch_size : 1;

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
      continue;
    }

    // Exit only when stop was requested, no ingest call is mid-push, and the
    // ring is drained — in that order: a producer that read stopping_ ==
    // false before our in-flight read would still be counted, and one that
    // finished its push before the in-flight read leaves the ring non-empty
    // for the check that follows.
    if (stopping_.load() && ingest_inflight_.load() == 0 && shard.ring.empty())
      break;

    // Idle: nap until the ingest thread pushes or stop() is requested.  The
    // timed wait bounds the one benign race (a push landing between the last
    // empty poll and the wait).
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.sleeping.store(true, std::memory_order_relaxed);
    shard.cv.wait_for(lock, kIdleNap, [&] {
      return !shard.ring.empty() ||
             stopping_.load(std::memory_order_acquire);
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
