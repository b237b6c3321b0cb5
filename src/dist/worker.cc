#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/partition.h"
#include "wire/codec.h"

namespace dist {

namespace {

FrameStatus reject_status(wire::ParseStatus s) {
  switch (s) {
    case wire::ParseStatus::kTruncated: return FrameStatus::kRejectTruncated;
    case wire::ParseStatus::kOversized: return FrameStatus::kRejectOversized;
    default: return FrameStatus::kRejectBadValue;
  }
}

}  // namespace

WorkerServer::WorkerServer(const banzai::Machine& prototype,
                           std::shared_ptr<const wire::WireCodec> rx,
                           std::shared_ptr<const wire::WireCodec> tx,
                           WorkerConfig cfg)
    : proto_(prototype.clone()),
      rx_(std::move(rx)),
      tx_(std::move(tx)),
      cfg_(std::move(cfg)),
      initial_state_(proto_.snapshot_state()),
      scratch_(rx_->num_table_fields()) {
  svc_cfg_.num_shards = cfg_.num_shards;
  svc_cfg_.num_slots = cfg_.num_slots;
  svc_cfg_.batch_size = cfg_.batch_size;
  svc_cfg_.ring_capacity = cfg_.ring_capacity;
  // Lossless ingest: the replay protocol relies on "accepted implies
  // applied", so the worker never sheds — backpressure propagates to the
  // front tier through RPC latency instead.
  svc_cfg_.backpressure = banzai::Backpressure::kBlock;
  for (const auto& name : cfg_.flow_key)
    svc_cfg_.flow_key.push_back(proto_.fields().id_of(name));
  rebuild_service();
}

WorkerServer::~WorkerServer() { stop(); }

void WorkerServer::rebuild_service() {
  svc_ = std::make_unique<banzai::FleetService>(proto_, svc_cfg_);
  svc_->set_wire(rx_, tx_);
  applied_seq_.assign(svc_cfg_.num_slots, 0);
  pending_seq_.clear();
  out_egress_.clear();
  unconfirmed_.clear();
  // Distinct across processes (pid, clock) and across rebuilds in one
  // process (the counter); never 0, which a front reads as "not seen yet".
  static std::atomic<std::uint64_t> rebuilds{0};
  const auto now = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  incarnation_ = netsim::mix64(now ^ (static_cast<std::uint64_t>(::getpid())
                                      << 40) ^
                               rebuilds.fetch_add(1)) |
                 1;
}

void WorkerServer::start() {
  if (running()) return;
  listener_.listen(port_ != 0 ? port_ : cfg_.port);
  port_ = listener_.port();
  {
    std::lock_guard<std::mutex> lock(mu_);
    svc_->start();
  }
  stopping_.store(false, std::memory_order_release);
  killed_.store(false, std::memory_order_release);
  waker_.clear();
  running_.store(true, std::memory_order_release);
  server_ = std::thread([this] { serve_loop(); });
}

void WorkerServer::stop() {
  stopping_.store(true, std::memory_order_release);
  waker_.wake();
  listener_.shutdown();
  if (server_.joinable()) server_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (svc_) svc_->stop();
  }
  running_.store(false, std::memory_order_release);
}

void WorkerServer::kill() {
  stopping_.store(true, std::memory_order_release);
  waker_.wake();
  listener_.shutdown();
  if (server_.joinable()) server_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    svc_->stop();
    // A killed process loses its memory: fresh slots, zeroed dedup table,
    // no buffered egress.  Whatever it had applied since the last checkpoint
    // exists nowhere but in the front tier's resend buffer.
    rebuild_service();
  }
  killed_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void WorkerServer::restart() {
  if (running()) return;
  start();
}

void WorkerServer::serve_forever() {
  if (!listener_.valid()) {
    listener_.listen(port_ != 0 ? port_ : cfg_.port);
    port_ = listener_.port();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!svc_->running()) svc_->start();
  }
  stopping_.store(false, std::memory_order_release);
  waker_.clear();
  running_.store(true, std::memory_order_release);
  serve_loop();
  running_.store(false, std::memory_order_release);
}

WorkerStats WorkerServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WorkerServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Conn conn;
    try {
      conn = listener_.accept(waker_);
    } catch (const RpcError&) {
      break;  // woken by stop()/kill(), or the listener was shut down
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++conns_seen_;
      if (conns_seen_ > 1) ++stats_.reconnects;
    }
    serve_connection(conn);
  }
}

void WorkerServer::serve_connection(Conn& conn) {
  {
    // A fresh connection means the previous one died, and its last reply may
    // have died with it: re-queue that reply's egress so the next ack
    // redelivers it (the front tier dedups if it did arrive).
    std::lock_guard<std::mutex> lock(mu_);
    stats_.egress_redelivered += unconfirmed_.size();
    out_egress_.insert(out_egress_.begin(),
                       std::make_move_iterator(unconfirmed_.begin()),
                       std::make_move_iterator(unconfirmed_.end()));
    unconfirmed_.clear();
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    Message req;
    try {
      // Block until the next request's first bytes arrive, or until stop()
      // or kill() raises the waker.  No timer: an idle worker costs nothing.
      if (!conn.wait_readable(waker_)) return;
      req = conn.recv_msg(Clock::now() + cfg_.io_timeout);
    } catch (const RpcError&) {
      // Disconnect (or a mid-message stall, which leaves the stream in an
      // undefined position — same remedy): drop the connection and go back
      // to accept().  The front tier reconnects and re-sends; seq dedup
      // absorbs anything we already applied.
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      // Lockstep: a new request on this connection proves the previous
      // reply was received — its egress is now safely the front's problem.
      unconfirmed_.clear();
    }
    try {
      if (!handle(conn, req)) return;
    } catch (const FramingError& e) {
      reply_error(conn, std::string("bad payload: ") + e.what());
    } catch (const RpcError&) {
      return;  // reply failed: connection is gone
    }
  }
}

bool WorkerServer::handle(Conn& conn, const Message& req) {
  switch (req.type) {
    case MsgType::kHello:
      handle_hello(conn, req);
      return true;
    case MsgType::kIngestBatch:
      handle_ingest(conn, req);
      return true;
    case MsgType::kHeartbeat:
      handle_heartbeat(conn, req);
      return true;
    case MsgType::kSnapshotReq:
      handle_snapshot(conn, req);
      return true;
    case MsgType::kRestoreReq:
      handle_restore(conn, req);
      return true;
    case MsgType::kSwapEngine:
      handle_swap(conn, req);
      return true;
    case MsgType::kFlushReq:
      handle_flush(conn);
      return true;
    case MsgType::kStop:
      stopping_.store(true, std::memory_order_release);
      return false;
    default:
      reply_error(conn, std::string("unexpected message type: ") +
                            to_string(req.type));
      return true;
  }
}

void WorkerServer::reply(Conn& conn, MsgType type,
                         const std::vector<std::uint8_t>& payload) {
  conn.send_msg(type, payload, Clock::now() + cfg_.io_timeout);
}

void WorkerServer::reply_error(Conn& conn, const std::string& what) {
  try {
    reply(conn, MsgType::kError, encode_error(ErrorMsg{what}));
  } catch (const RpcError&) {
    // Connection already gone; the serve loop notices on the next read.
  }
}

void WorkerServer::harvest_egress() {
  auto frames = svc_->drain_egress_frames();
  for (auto& f : frames) {
    // The service settles egress strictly in ingest order and the worker is
    // lossless (kBlock, no DropTail), so settled frames pair 1:1 FIFO with
    // the global seqs of accepted ingest.
    if (pending_seq_.empty())
      throw std::logic_error("egress without a pending sequence number");
    EgressRecord rec;
    rec.seq = pending_seq_.front();
    pending_seq_.pop_front();
    rec.bytes = std::move(f);
    out_egress_.push_back(std::move(rec));
  }
}

std::vector<EgressRecord> WorkerServer::take_egress() {
  std::vector<EgressRecord> out(std::make_move_iterator(out_egress_.begin()),
                                std::make_move_iterator(out_egress_.end()));
  out_egress_.clear();
  stats_.egress_returned += out.size();
  return out;
}

void WorkerServer::hold(std::vector<EgressRecord>&& egress) {
  // Every request clears unconfirmed_ before its one reply is built.
  unconfirmed_ = std::move(egress);
}

void WorkerServer::handle_hello(Conn& conn, const Message& req) {
  const Hello hello = decode_hello(req.payload.data(), req.payload.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (hello.version != kProtocolVersion) {
    reply_error(conn, "protocol version mismatch");
    return;
  }
  if (!cfg_.algorithm.empty() && hello.algorithm != cfg_.algorithm) {
    reply_error(conn, "algorithm mismatch: worker runs " + cfg_.algorithm);
    return;
  }
  if (hello.num_slots != cfg_.num_slots) {
    reply_error(conn, "slot count mismatch");
    return;
  }
  if (hello.header_bytes != rx_->header_bytes()) {
    reply_error(conn, "wire header size mismatch");
    return;
  }
  HelloAck ack;
  ack.num_slots = static_cast<std::uint32_t>(cfg_.num_slots);
  ack.engine = static_cast<std::uint8_t>(proto_.active_engine());
  ack.incarnation = incarnation_;
  reply(conn, MsgType::kHelloAck, encode_hello_ack(ack));
}

void WorkerServer::handle_ingest(Conn& conn, const Message& req) {
  const IngestBatchView batch =
      view_ingest_batch(req.payload.data(), req.payload.size());
  IngestAck ack;
  ack.seqs.reserve(batch.frames.size());
  ack.statuses.reserve(batch.frames.size());
  std::vector<std::uint8_t> payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const FrameView& f : batch.frames) {
      ack.seqs.push_back(f.seq);
      if (f.slot >= applied_seq_.size()) {
        ack.statuses.push_back(FrameStatus::kRejectBadValue);
        ++stats_.frames_rejected;
        continue;
      }
      if (f.seq <= applied_seq_[f.slot]) {
        // A retry or a network duplicate: the at-least-once channel meeting
        // the exactly-once state machine.  An APPLIED frame dedups to
        // kDuplicate — but a REJECTED frame never advanced applied_seq_,
        // and once a later frame in the slot did, a retried reject (after a
        // lost ack) lands here too.  Answering it kDuplicate would be fatal:
        // the front only tombstones reject statuses, so the seq would never
        // settle and the egress watermark would stall forever.  Parsing is
        // deterministic and stateless on identical bytes, so re-parsing
        // reconstructs the original verdict exactly.
        const wire::ParseResult pr = rx_->parse_exact(f.data, f.len, scratch_);
        if (!pr.ok()) {
          ack.statuses.push_back(reject_status(pr.status));
          ++stats_.frames_rejected;
        } else {
          ack.statuses.push_back(FrameStatus::kDuplicate);
          ++stats_.frames_duplicate;
        }
        continue;
      }
      const auto res = svc_->ingest_frame(f.data, f.len);
      if (res.accepted) {
        applied_seq_[f.slot] = f.seq;
        pending_seq_.push_back(f.seq);
        ack.statuses.push_back(FrameStatus::kAccepted);
        ++stats_.frames_accepted;
      } else {
        ack.statuses.push_back(reject_status(res.parse.status));
        ++stats_.frames_rejected;
      }
    }
    harvest_egress();
    ack.egress = take_egress();
    payload = encode_ingest_ack(ack);
    hold(std::move(ack.egress));
    ++ingest_count_;
  }
  if (cfg_.stall_every != 0 && ingest_count_ % cfg_.stall_every == 0) {
    // Chaos knob: the frames above are APPLIED but the ack is late — the
    // front tier times out, retries, and must see kDuplicate. Sleeping
    // outside mu_ keeps kill()/stats() responsive.
    std::this_thread::sleep_for(cfg_.stall_for);
  }
  reply(conn, MsgType::kIngestAck, payload);
}

void WorkerServer::handle_heartbeat(Conn& conn, const Message& req) {
  const Heartbeat hb = decode_heartbeat(req.payload.data(), req.payload.size());
  HeartbeatAck ack;
  ack.nonce = hb.nonce;
  std::lock_guard<std::mutex> lock(mu_);
  harvest_egress();
  ack.delivered = svc_->stats().delivered;
  ack.egress = take_egress();
  const std::vector<std::uint8_t> payload = encode_heartbeat_ack(ack);
  hold(std::move(ack.egress));
  reply(conn, MsgType::kHeartbeatAck, payload);
}

void WorkerServer::handle_flush(Conn& conn) {
  FlushAck ack;
  std::lock_guard<std::mutex> lock(mu_);
  svc_->flush();
  harvest_egress();
  ack.egress = take_egress();
  const std::vector<std::uint8_t> payload = encode_flush_ack(ack);
  hold(std::move(ack.egress));
  reply(conn, MsgType::kFlushAck, payload);
}

void WorkerServer::handle_snapshot(Conn& conn, const Message& req) {
  const SnapshotReq snap_req =
      decode_snapshot_req(req.payload.data(), req.payload.size());
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint32_t> ids = snap_req.slots;
  if (ids.empty())
    for (std::uint32_t s = 0; s < svc_cfg_.num_slots; ++s) ids.push_back(s);
  for (std::uint32_t s : ids) {
    if (s >= svc_cfg_.num_slots) {
      reply_error(conn, "snapshot: slot out of range");
      return;
    }
  }
  // Checkpoint barrier: settle everything accepted so far, so the snapshot
  // plus the returned egress together account for every applied frame —
  // applied_seq_[slot] is exact for the state in the blob.  Each slot's blob
  // is serialized straight from its live store into the reply payload: no
  // ServiceSnapshot, no per-slot blob copies.  The shard workers keep
  // running: after flush() none touches slot state until this thread, the
  // only ingest thread, offers its next frame (FleetService::flush).
  svc_->flush();
  harvest_egress();
  std::vector<SlotStateRef> slots;
  slots.reserve(ids.size());
  for (std::uint32_t s : ids)
    slots.push_back({s, applied_seq_[s], &svc_->slot_machine(s).state()});
  std::vector<EgressRecord> egress = take_egress();
  const std::vector<std::uint8_t> payload = encode_snapshot_resp(slots, egress);
  hold(std::move(egress));
  reply(conn, MsgType::kSnapshotResp, payload);
}

void WorkerServer::handle_restore(Conn& conn, const Message& req) {
  const RestoreReq restore =
      decode_restore_req(req.payload.data(), req.payload.size());
  std::lock_guard<std::mutex> lock(mu_);
  // Validate the WHOLE payload before the service is flushed or ANY slot is
  // touched: decode every blob and shape-check it against the prototype's
  // initial state, which every slot shares because each is a clone of the
  // prototype.  A corrupt migration payload must reject cleanly with the
  // worker's state untouched — this is the guard tests/dist_test.cc pins.
  std::vector<banzai::StateStore> stores;
  stores.reserve(restore.slots.size());
  std::string reject;
  for (const SlotState& s : restore.slots) {
    if (s.slot >= svc_cfg_.num_slots) {
      reject = "restore: slot out of range";
      break;
    }
    if (s.state.empty()) {
      // The explicit "start from scratch" restore: the front has no
      // checkpoint for the slot and orders a reset to the prototype's
      // initial state, so the target starts from a known point even if it
      // silently kept stale state for the slot.
      stores.push_back(initial_state_);
      continue;
    }
    try {
      stores.push_back(
          deserialize_state_store(s.state.data(), s.state.size()));
    } catch (const FramingError& e) {
      reject = std::string("restore: corrupt state blob: ") + e.what();
      break;
    }
    if (!stores.back().same_shape(initial_state_)) {
      reject = "restore: state shape mismatch";
      break;
    }
  }
  if (!reject.empty()) {
    ++stats_.restore_rejects;
    reply_error(conn, reject);
    return;
  }
  // The same quiescence as a snapshot: once flushed, no shard worker
  // touches slot state until the next ingest publishes a row.
  svc_->flush();
  for (std::size_t i = 0; i < restore.slots.size(); ++i) {
    const SlotState& s = restore.slots[i];
    svc_->slot_machine(s.slot).restore_state(stores[i]);
    applied_seq_[s.slot] = s.applied_seq;
    ++stats_.restores;
  }
  reply(conn, MsgType::kRestoreAck, {});
}

void WorkerServer::handle_swap(Conn& conn, const Message& req) {
  const SwapEngine swap =
      decode_swap_engine(req.payload.data(), req.payload.size());
  if (swap.engine != static_cast<std::uint8_t>(banzai::ExecEngine::kKernel) &&
      swap.engine != static_cast<std::uint8_t>(banzai::ExecEngine::kNative)) {
    reply_error(conn, "swap: unknown engine");
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Drain-and-cutover: settle all in-flight packets, checkpoint, rebuild the
  // whole service on the new engine, restore the checkpoint, resume.  The
  // same barrier a recompiled pipeline would use to hot-swap mid-stream.
  svc_->flush();
  harvest_egress();
  svc_->stop();
  const banzai::ServiceSnapshot snap = svc_->snapshot();
  proto_.set_engine(static_cast<banzai::ExecEngine>(swap.engine));
  auto next = std::make_unique<banzai::FleetService>(proto_, svc_cfg_);
  next->set_wire(rx_, tx_);
  next->restore(snap);
  next->start();
  svc_ = std::move(next);
  ++stats_.engine_swaps;
  SwapAck ack;
  ack.active_engine = static_cast<std::uint8_t>(proto_.active_engine());
  reply(conn, MsgType::kSwapAck, encode_swap_ack(ack));
}

}  // namespace dist
