#include "dist/front.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/partition.h"

namespace dist {

namespace {

// Encoded record bytes at which a batch is cut short of max_batch.  It keeps
// every IngestBatch far under kMaxMessageBytes whatever max_batch is, and
// bounds what one round trip holds in memory on either side.  A lone frame
// larger than this travels in a batch of its own.
constexpr std::size_t kBatchBytes = 1u << 20;

}  // namespace

// ---- EgressWindow ----------------------------------------------------------

bool EgressWindow::put(std::uint64_t seq, Cell::State state,
                       std::vector<std::uint8_t>&& bytes) {
  if (seq < next_) {
    ++duplicates_;
    return false;
  }
  const std::size_t idx = static_cast<std::size_t>(seq - next_);
  if (idx >= window_.size()) window_.resize(idx + 1);
  if (window_[idx].state != Cell::kPending) {
    ++duplicates_;
    return false;
  }
  window_[idx].state = state;
  window_[idx].bytes = std::move(bytes);
  advance();
  return true;
}

void EgressWindow::advance() {
  while (!window_.empty() && window_.front().state != Cell::kPending) {
    if (window_.front().state == Cell::kFilled)
      ready_.push_back(std::move(window_.front().bytes));
    window_.pop_front();
    ++next_;
  }
}

bool EgressWindow::deliver(std::uint64_t seq, std::vector<std::uint8_t> bytes) {
  return put(seq, Cell::kFilled, std::move(bytes));
}

bool EgressWindow::tombstone(std::uint64_t seq) {
  std::vector<std::uint8_t> none;
  return put(seq, Cell::kTombstone, std::move(none));
}

std::vector<std::vector<std::uint8_t>> EgressWindow::drain() {
  std::vector<std::vector<std::uint8_t>> out = std::move(ready_);
  ready_.clear();
  return out;
}

// ---- FrameLog --------------------------------------------------------------

std::uint64_t FrameLog::append(std::uint64_t seq, const std::uint8_t* data,
                               std::size_t len) {
  entries_.push_back({seq, bytes_.size(), len});
  bytes_.insert(bytes_.end(), data, data + len);
  return end() - 1;
}

std::size_t FrameLog::trim(std::uint64_t applied) {
  const std::size_t from = head_;
  while (head_ < entries_.size() && entries_[head_].seq <= applied) ++head_;
  const std::size_t dropped = head_ - from;
  trimmed_ += dropped;
  const std::size_t dead =
      head_ < entries_.size() ? entries_[head_].offset : bytes_.size();
  // Compacting moves only the live tail, so at most once per half buffer
  // it costs about what the appends that filled the buffer did.
  if (2 * dead > bytes_.size() || 2 * head_ > entries_.size()) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(dead));
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    for (Entry& e : entries_) e.offset -= dead;
    head_ = 0;
  }
  return dropped;
}

bool FrameLog::get(std::uint64_t ordinal, FrameView& out) const {
  if (ordinal < trimmed_ || ordinal >= end()) return false;
  const Entry& e =
      entries_[head_ + static_cast<std::size_t>(ordinal - trimmed_)];
  out.seq = e.seq;
  out.slot = 0;
  out.data = bytes_.data() + e.offset;
  out.len = e.len;
  return true;
}

// ---- FrontTier -------------------------------------------------------------

FrontTier::FrontTier(std::shared_ptr<const wire::WireCodec> rx,
                     FrontConfig cfg)
    : rx_(std::move(rx)),
      cfg_(std::move(cfg)),
      backoff_(cfg_.backoff_base, cfg_.backoff_max, cfg_.seed),
      scratch_(rx_->num_table_fields()) {
  if (cfg_.num_slots == 0) cfg_.num_slots = 1;
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  logs_.resize(cfg_.num_slots);
}

std::size_t FrontTier::add_worker(std::uint16_t port) {
  WorkerLink w;
  w.port = port;
  w.detector = FailureDetector(HealthConfig{cfg_.dead_after});
  workers_.push_back(std::move(w));
  return workers_.size() - 1;
}

void FrontTier::connect() {
  if (workers_.empty()) throw RpcError("connect: no workers registered");
  owner_.resize(cfg_.num_slots);
  for (std::size_t s = 0; s < cfg_.num_slots; ++s)
    owner_[s] = s % workers_.size();
  for (auto& w : workers_) {
    if (!ensure_connected(w))
      throw RpcError("connect: worker on port " + std::to_string(w.port) +
                     " unreachable");
  }
}

std::size_t FrontTier::slot_of_frame(const std::uint8_t* data,
                                     std::size_t len) {
  // Malformed frames hash to slot 0: any worker will reject them with a
  // typed status, which tombstones their seq — they just need *a* route.
  const wire::ParseResult res = rx_->parse_exact(data, len, scratch_);
  if (!res.ok() || cfg_.num_slots <= 1) return 0;
  std::uint64_t h = 0;
  for (banzai::FieldId f : cfg_.flow_key)
    h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(scratch_.get(f))));
  return static_cast<std::size_t>(h % cfg_.num_slots);
}

void FrontTier::route(const FrameRef& ref) {
  WorkerLink& w = workers_[owner_[ref.slot]];
  w.outbox_bytes += ingest_record_bytes(ref.len);
  w.outbox.push_back(ref);
}

void FrontTier::offer(const std::uint8_t* data, std::size_t len) {
  const std::uint64_t seq = next_seq_++;
  ++stats_.frames_offered;
  if (kIngestHeadBytes + ingest_record_bytes(len) > kMaxMessageBytes) {
    // No message can carry it.  The worker would reject it kOversized
    // (parse_exact checks the length first), so settle that verdict here.
    deliver_tombstone(seq);
    return;
  }
  const auto slot = static_cast<std::uint32_t>(slot_of_frame(data, len));
  const std::uint64_t ordinal = logs_[slot].append(seq, data, len);
  ++resend_total_;
  const std::size_t wi = owner_[slot];
  route({ordinal, slot, static_cast<std::uint32_t>(len)});
  if (resend_total_ >= cfg_.resend_limit) checkpoint();
  if (batch_waiting(workers_[wi])) flush_worker(wi, /*ahead=*/true);
}

bool FrontTier::ensure_connected(WorkerLink& w) {
  if (w.conn.valid()) return true;
  if (w.attempt > 0)
    std::this_thread::sleep_for(backoff_.delay(w.attempt - 1));
  std::uint64_t incarnation = 0;
  try {
    w.conn = connect_local(w.port, cfg_.connect_timeout);
    incarnation = hello(w);
  } catch (const RpcTimeout&) {
    w.conn.close();
    ++w.attempt;
    w.detector.on_timeout(Clock::now());
    return false;
  } catch (const RpcError&) {
    w.conn.close();
    ++w.attempt;
    w.detector.on_error(Clock::now());
    return false;
  } catch (const FramingError&) {
    w.conn.close();
    ++w.attempt;
    w.detector.on_error(Clock::now());
    return false;
  }
  w.attempt = 0;
  const auto wi = static_cast<std::size_t>(&w - workers_.data());
  if (w.incarnation != 0 && incarnation != w.incarnation &&
      !owned_slots(wi).empty()) {
    // The worker died and came back empty since we last spoke: the state of
    // every slot it owns is gone, and only a migration (last checkpoint +
    // replay) can rebuild it.  The old incarnation stays on record until
    // then, so no later reconnect can mistake this worker for the one that
    // held those slots.
    w.conn.close();
    if (w.detector.alive()) w.detector.mark_dead(Clock::now());
    return false;
  }
  w.incarnation = incarnation;
  // A dead worker only re-enters the fleet through this handshake: the
  // detector moves to recovering, and the first successful RPC completes the
  // arc to healthy.
  if (w.detector.state() == HealthState::kDead)
    w.detector.on_reconnect(Clock::now());
  ++stats_.reconnects;
  return true;
}

std::uint64_t FrontTier::hello(WorkerLink& w) {
  Hello h;
  h.version = kProtocolVersion;
  h.algorithm = cfg_.algorithm;
  h.num_slots = static_cast<std::uint32_t>(cfg_.num_slots);
  h.header_bytes = static_cast<std::uint32_t>(rx_->header_bytes());
  const Message& resp = call(w, MsgType::kHello, encode_hello(h));
  if (resp.type != MsgType::kHelloAck)
    throw RpcError("hello: worker refused the handshake");
  const HelloAck ack =
      decode_hello_ack(resp.payload.data(), resp.payload.size());
  if (ack.num_slots != cfg_.num_slots)
    throw RpcError("hello: slot count mismatch");
  return ack.incarnation;
}

const Message& FrontTier::call(WorkerLink& w, MsgType type,
                               const std::vector<std::uint8_t>& payload) {
  const TimePoint deadline = Clock::now() + cfg_.rpc_timeout;
  w.conn.send_msg(type, payload, deadline);
  w.conn.recv_msg(w.reply, deadline);
  return w.reply;
}

void FrontTier::recv_ingest_ack(WorkerLink& w) {
  // The wait is bounded from when the front starts to read: the worker has
  // had the batch since the send, however long the caller took since.
  w.conn.recv_msg(w.reply, Clock::now() + cfg_.rpc_timeout);
  if (w.reply.type != MsgType::kIngestAck)
    throw FramingError("unexpected reply to ingest");
  decode_ingest_ack(w.reply.payload.data(), w.reply.payload.size(), ack_);
}

bool FrontTier::await_ack(WorkerLink& w) {
  if (w.sent.refs == 0) return true;
  const InFlight sent = w.sent;
  try {
    recv_ingest_ack(w);
  } catch (const RpcTimeout&) {
    ++stats_.retries;
    on_rpc_failure(w, true);
    return false;
  } catch (const RpcError&) {
    ++stats_.retries;
    on_rpc_failure(w, false);
    return false;
  } catch (const FramingError&) {
    ++stats_.retries;
    on_rpc_failure(w, false);
    return false;
  }
  w.sent = {};
  w.detector.on_success(Clock::now());
  stats_.frames_sent += sent.frames;
  ++stats_.ingest_batches;
  process_ack();
  pop_refs(w, sent.refs);
  ++batches_sent_;
  if (cfg_.dup_every != 0 && batches_sent_ % cfg_.dup_every == 0) {
    // Chaos knob: replay the batch just acknowledged (w.request still holds
    // it).  The worker's seq dedup must answer kDuplicate for every frame,
    // and the egress window must not emit anything twice.
    try {
      w.conn.send_msg(MsgType::kIngestBatch, w.request,
                      Clock::now() + cfg_.rpc_timeout);
      recv_ingest_ack(w);
      stats_.frames_sent += sent.frames;
      ++stats_.ingest_batches;
      process_ack();
      w.detector.on_success(Clock::now());
    } catch (const RpcTimeout&) {
      on_rpc_failure(w, true);
    } catch (const RpcError&) {
      on_rpc_failure(w, false);
    } catch (const FramingError&) {
      on_rpc_failure(w, false);
    }
  }
  return true;
}

bool FrontTier::ready(WorkerLink& w) {
  return await_ack(w) && ensure_connected(w);
}

void FrontTier::on_rpc_failure(WorkerLink& w, bool timeout) {
  // The stream may be mid-message: only a fresh connection is safe, and a
  // batch in flight on the old one is re-sent from the outbox.
  w.conn.close();
  w.sent = {};
  if (timeout)
    w.detector.on_timeout(Clock::now());
  else
    w.detector.on_error(Clock::now());
}

bool FrontTier::valid_egress_seq(std::uint64_t seq) {
  // The front assigned every real seq from [1, next_seq_): anything else in
  // a decoded reply is corruption that framing alone can't catch, and
  // feeding it to the window would drive a resize of (seq - watermark)
  // cells — a ~2^63 seq means a multi-exabyte allocation.
  if (seq != 0 && seq < next_seq_) return true;
  ++stats_.egress_corrupt;
  return false;
}

void FrontTier::deliver_tombstone(std::uint64_t seq) {
  if (!valid_egress_seq(seq)) return;
  if (window_.tombstone(seq)) ++stats_.rejects;
}

void FrontTier::process_ack() {
  const std::vector<std::uint64_t>& seqs = ack_.seqs;
  const std::vector<FrameStatus>& statuses = ack_.statuses;
  const std::size_t n = std::min(seqs.size(), statuses.size());
  for (std::size_t i = 0; i < n; ++i) {
    switch (statuses[i]) {
      case FrameStatus::kAccepted:
        ++stats_.frames_acked;
        break;
      case FrameStatus::kDuplicate:
        ++stats_.dup_acks;
        break;
      default:
        // A typed parse reject: the frame produced no output and never
        // will, so its seq becomes a tombstone and the window moves on.
        deliver_tombstone(seqs[i]);
        break;
    }
  }
  process_egress(ack_.egress);
}

void FrontTier::process_egress(std::vector<EgressRecord>& egress) {
  for (EgressRecord& rec : egress) {
    if (!valid_egress_seq(rec.seq)) continue;
    window_.deliver(rec.seq, std::move(rec.bytes));
  }
}

std::size_t FrontTier::next_batch(const WorkerLink& w) {
  batch_.clear();
  std::size_t n = 0;
  std::size_t bytes = 0;
  for (; n < w.outbox.size() && batch_.size() < cfg_.max_batch; ++n) {
    const FrameRef& ref = w.outbox[n];
    FrameView v;
    if (!logs_[ref.slot].get(ref.ordinal, v)) continue;
    const std::size_t b = ingest_record_bytes(v.len);
    if (!batch_.empty() && bytes + b > kBatchBytes) break;
    bytes += b;
    v.slot = ref.slot;
    batch_.push_back(v);
  }
  return n;
}

void FrontTier::pop_refs(WorkerLink& w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    w.outbox_bytes -= ingest_record_bytes(w.outbox[i].len);
  w.outbox.erase(w.outbox.begin(),
                 w.outbox.begin() + static_cast<std::ptrdiff_t>(n));
}

bool FrontTier::batch_waiting(const WorkerLink& w) const {
  return w.outbox.size() - w.sent.refs >= cfg_.max_batch ||
         w.outbox_bytes - w.sent.bytes >= kBatchBytes;
}

bool FrontTier::flush_worker(std::size_t wi, bool ahead) {
  WorkerLink& w = workers_[wi];
  std::uint32_t attempts = 0;
  while (!w.outbox.empty()) {
    if (ahead && !batch_waiting(w)) return true;
    if (!w.detector.alive()) {
      migrate(wi);
      return false;
    }
    if (attempts++ >= cfg_.max_attempts) {
      w.detector.mark_dead(Clock::now());
      migrate(wi);
      return false;
    }
    if (w.sent.refs != 0) {  // one request in flight: its ack comes first
      if (await_ack(w)) attempts = 0;
      continue;
    }
    if (!ensure_connected(w)) continue;
    const std::size_t n = next_batch(w);
    if (batch_.empty()) {  // every ref taken was trimmed: nothing to send
      pop_refs(w, n);
      attempts = 0;
      continue;
    }
    encode_ingest_batch(batch_, w.request);
    try {
      w.conn.send_msg(MsgType::kIngestBatch, w.request,
                      Clock::now() + cfg_.rpc_timeout);
    } catch (const RpcTimeout&) {
      ++stats_.retries;
      on_rpc_failure(w, true);
      continue;
    } catch (const RpcError&) {
      ++stats_.retries;
      on_rpc_failure(w, false);
      continue;
    }
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i)
      bytes += ingest_record_bytes(w.outbox[i].len);
    w.sent = {n, bytes, batch_.size()};
  }
  return true;
}

void FrontTier::flush_all_outboxes() {
  for (std::uint32_t guard = 0;; ++guard) {
    if (guard > 10000)
      throw RpcError("flush: outboxes did not converge");
    bool any = false;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      if (workers_[wi].outbox.empty()) continue;
      any = true;
      flush_worker(wi);  // false = migrated; frames moved to other outboxes
    }
    if (!any) return;
  }
}

void FrontTier::flush() {
  flush_all_outboxes();
  for (std::uint32_t rounds = 0; !settled(); ++rounds) {
    if (rounds > 1000) throw RpcError("flush: egress did not settle");
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      WorkerLink& w = workers_[wi];
      if (!w.detector.alive()) continue;
      if (!owned_slots(wi).empty() || w.conn.valid()) {
        if (!ready(w)) continue;
        try {
          const Message& resp = call(w, MsgType::kFlushReq, {});
          if (resp.type != MsgType::kFlushAck)
            throw FramingError("unexpected reply to flush");
          FlushAck ack =
              decode_flush_ack(resp.payload.data(), resp.payload.size());
          w.detector.on_success(Clock::now());
          process_egress(ack.egress);
        } catch (const RpcTimeout&) {
          on_rpc_failure(w, true);
        } catch (const RpcError&) {
          on_rpc_failure(w, false);
        } catch (const FramingError&) {
          on_rpc_failure(w, false);
        }
      }
    }
    // A worker that ran out of failure budget during the flush round gets
    // its slots migrated here; the replayed frames then drain below.
    for (std::size_t wi = 0; wi < workers_.size(); ++wi)
      if (!workers_[wi].detector.alive() && !owned_slots(wi).empty())
        migrate(wi);
    flush_all_outboxes();
  }
}

void FrontTier::checkpoint() {
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    WorkerLink& w = workers_[wi];
    if (!w.detector.alive()) continue;
    const std::vector<std::size_t> slots = owned_slots(wi);
    if (slots.empty()) continue;
    SnapshotReq sreq;
    for (std::size_t s : slots)
      sreq.slots.push_back(static_cast<std::uint32_t>(s));
    if (!ready(w)) continue;
    try {
      const Message& resp =
          call(w, MsgType::kSnapshotReq, encode_snapshot_req(sreq));
      if (resp.type != MsgType::kSnapshotResp)
        throw FramingError("unexpected reply to snapshot");
      SnapshotRespView sr =
          view_snapshot_resp(resp.payload.data(), resp.payload.size());
      w.detector.on_success(Clock::now());
      process_egress(sr.egress);
      for (const SlotStateView& ss : sr.slots)
        if (ss.slot < logs_.size()) store_checkpoint(ss);
    } catch (const RpcTimeout&) {
      on_rpc_failure(w, true);
    } catch (const RpcError&) {
      on_rpc_failure(w, false);
    } catch (const FramingError&) {
      on_rpc_failure(w, false);
    }
  }
  ++stats_.checkpoints;
}

void FrontTier::heartbeat() {
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    WorkerLink& w = workers_[wi];
    if (!w.detector.alive()) continue;
    if (!ready(w)) continue;
    Heartbeat hb;
    hb.nonce = ++w.hb_nonce;
    try {
      const Message& resp =
          call(w, MsgType::kHeartbeat, encode_heartbeat(hb));
      if (resp.type != MsgType::kHeartbeatAck)
        throw FramingError("unexpected reply to heartbeat");
      HeartbeatAck ack =
          decode_heartbeat_ack(resp.payload.data(), resp.payload.size());
      if (ack.nonce != hb.nonce) throw FramingError("heartbeat nonce mismatch");
      w.detector.on_success(Clock::now());
      process_egress(ack.egress);
      ++stats_.heartbeats;
    } catch (const RpcTimeout&) {
      on_rpc_failure(w, true);
    } catch (const RpcError&) {
      on_rpc_failure(w, false);
    } catch (const FramingError&) {
      on_rpc_failure(w, false);
    }
  }
}

std::vector<std::size_t> FrontTier::owned_slots(std::size_t wi) const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < owner_.size(); ++s)
    if (owner_[s] == wi) out.push_back(s);
  return out;
}

std::size_t FrontTier::pick_survivor(std::size_t excluding,
                                     std::size_t salt) const {
  std::vector<std::size_t> alive;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi)
    if (wi != excluding && workers_[wi].detector.alive()) alive.push_back(wi);
  if (alive.empty()) throw RpcError("migration: no surviving workers");
  return alive[salt % alive.size()];
}

void FrontTier::trim_log(std::size_t slot, std::uint64_t applied_seq) {
  // Everything up to applied_seq is baked into the checkpoint's blob: the
  // log only needs the unapplied tail from here on.
  resend_total_ -= logs_[slot].trim(applied_seq);
}

void FrontTier::store_checkpoint(const SlotStateView& ss) {
  trim_log(ss.slot, ss.applied_seq);
  SlotState& cp = checkpoint_[ss.slot];
  cp.slot = ss.slot;
  cp.applied_seq = ss.applied_seq;
  cp.state.assign(ss.state, ss.state + ss.len);  // into the old blob's buffer
}

void FrontTier::replay_slot(std::size_t slot) {
  const FrameLog& log = logs_[slot];
  FrameView v;
  for (std::uint64_t o = log.first(); o < log.end(); ++o) {
    log.get(o, v);
    route({o, static_cast<std::uint32_t>(slot),
           static_cast<std::uint32_t>(v.len)});
    ++stats_.replays;
  }
}

void FrontTier::migrate(std::size_t dead) {
  WorkerLink& w = workers_[dead];
  w.conn.close();
  if (w.detector.alive()) w.detector.mark_dead(Clock::now());
  std::deque<std::size_t> pending;
  for (std::size_t s : owned_slots(dead)) pending.push_back(s);
  // Unacked frames in the dead worker's outbox, a batch in flight included,
  // are all in the frame logs, so the replay below routes them again.
  w.outbox.clear();
  w.outbox_bytes = 0;
  w.sent = {};
  if (pending.empty()) return;
  ++stats_.migrations;
  std::size_t salt = 0;
  std::uint32_t guard = 0;
  while (!pending.empty()) {
    if (++guard > 10000) throw RpcError("migration did not converge");
    const std::size_t slot = pending.front();
    pending.pop_front();
    const std::size_t target = pick_survivor(dead, salt++);
    // ALWAYS restore — the last checkpoint, or the explicit reset-to-initial
    // order when there is none.  Skipping the restore would trust the
    // target's own copy of the slot, which can be stale (a worker the
    // detector declared dead over a partition keeps its memory).
    if (!restore_to(target, restore_payload(slot))) {
      pending.push_back(slot);  // target just died; pick another survivor
      continue;
    }
    owner_[slot] = target;
    ++stats_.slot_moves;
    replay_slot(slot);
  }
}

RestoreReq FrontTier::restore_payload(std::size_t slot) const {
  RestoreReq req;
  const auto it = checkpoint_.find(slot);
  if (it != checkpoint_.end()) {
    req.slots.push_back(it->second);
  } else {
    // No checkpoint means nothing was ever applied durably; replay rebuilds
    // everything from seq 1 — but only on top of PRISTINE state, so order an
    // explicit reset (empty blob, applied_seq 0) instead of assuming it.
    SlotState reset;
    reset.slot = static_cast<std::uint32_t>(slot);
    req.slots.push_back(std::move(reset));
  }
  return req;
}

bool FrontTier::restore_to(std::size_t target, const RestoreReq& req) {
  WorkerLink& w = workers_[target];
  for (std::uint32_t attempts = 0; attempts < cfg_.max_attempts; ++attempts) {
    if (!w.detector.alive()) return false;
    if (!ready(w)) continue;
    try {
      const Message& resp =
          call(w, MsgType::kRestoreReq, encode_restore_req(req));
      if (resp.type == MsgType::kError) {
        // A protocol-level refusal (corrupt blob, shape mismatch) is not a
        // connection problem and will not improve with retries.
        const ErrorMsg err =
            decode_error(resp.payload.data(), resp.payload.size());
        throw RestoreRejected("restore rejected: " + err.message);
      }
      if (resp.type != MsgType::kRestoreAck)
        throw FramingError("unexpected reply to restore");
      w.detector.on_success(Clock::now());
      return true;
    } catch (const RpcTimeout&) {
      on_rpc_failure(w, true);
    } catch (const RestoreRejected&) {
      throw;  // deliberate refusal, not a transport failure
    } catch (const FramingError&) {
      on_rpc_failure(w, false);
    } catch (const RpcError&) {
      // Connection-level failure (reset, peer closed mid-restore): same
      // remedy as a timeout — reconnect and retry against the detector's
      // failure budget, or report false so the caller picks another
      // survivor.  Must NOT escape: migrate()/move_slot() rely on the
      // false return to re-route, per the "later failures are handled,
      // not thrown" contract.
      on_rpc_failure(w, false);
    }
  }
  w.detector.mark_dead(Clock::now());
  return false;
}

void FrontTier::move_slot(std::size_t slot, std::size_t to_worker) {
  if (slot >= owner_.size() || to_worker >= workers_.size())
    throw RpcError("move_slot: index out of range");
  std::size_t from = owner_[slot];
  if (from == to_worker) return;
  // Drain in-flight frames for the slot first; this may itself migrate the
  // owner if it turns out to be dead.
  flush_worker(from);
  from = owner_[slot];
  if (from == to_worker) return;
  WorkerLink& src = workers_[from];
  if (src.detector.alive()) {
    // Live rebalance: barrier-snapshot just this slot so the restore point
    // is current and the replay tail is empty (or nearly so).  The barrier
    // is retried through transport failures; if the source stays alive but
    // will not snapshot, the move is ABORTED — shipping a stale checkpoint
    // while the source keeps newer applied state would leave two versions
    // of the slot in the fleet.  If the source dies during the barrier, fall
    // through: the move degrades to the migration path (last checkpoint, or
    // an explicit reset, plus replay of the whole resend tail).
    bool barrier_ok = false;
    for (std::uint32_t attempts = 0;
         attempts < cfg_.max_attempts && !barrier_ok && src.detector.alive();
         ++attempts) {
      if (!ready(src)) continue;
      SnapshotReq sreq;
      sreq.slots.push_back(static_cast<std::uint32_t>(slot));
      try {
        const Message& resp =
            call(src, MsgType::kSnapshotReq, encode_snapshot_req(sreq));
        if (resp.type != MsgType::kSnapshotResp)
          throw FramingError("unexpected reply to snapshot");
        SnapshotRespView sr =
            view_snapshot_resp(resp.payload.data(), resp.payload.size());
        src.detector.on_success(Clock::now());
        process_egress(sr.egress);
        for (const SlotStateView& ss : sr.slots) {
          if (ss.slot != slot) continue;
          store_checkpoint(ss);
          barrier_ok = true;
        }
      } catch (const RpcTimeout&) {
        on_rpc_failure(src, true);
      } catch (const RpcError&) {
        on_rpc_failure(src, false);
      } catch (const FramingError&) {
        on_rpc_failure(src, false);
      }
    }
    if (!barrier_ok && src.detector.alive())
      throw RpcError("move_slot: barrier snapshot failed on the source");
  }
  if (!restore_to(to_worker, restore_payload(slot)))
    throw RpcError("move_slot: target would not accept the slot");
  owner_[slot] = to_worker;
  ++stats_.slot_moves;
  replay_slot(slot);
  flush_worker(to_worker);
}

void FrontTier::swap_engine(banzai::ExecEngine engine) {
  if (engine != banzai::ExecEngine::kKernel &&
      engine != banzai::ExecEngine::kNative)
    throw std::invalid_argument("swap_engine: unknown engine " +
                                std::to_string(static_cast<int>(engine)));
  flush_all_outboxes();
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    WorkerLink& w = workers_[wi];
    if (!w.detector.alive()) continue;
    SwapEngine msg;
    msg.engine = static_cast<std::uint8_t>(engine);
    // A worker found dead mid-swap is not retried: it keeps its slots only
    // until the next flush migrates them onto survivors that did swap.
    for (std::uint32_t attempts = 0;
         attempts < cfg_.max_attempts && w.detector.alive(); ++attempts) {
      if (!ready(w)) continue;
      try {
        const Message& resp =
            call(w, MsgType::kSwapEngine, encode_swap_engine(msg));
        if (resp.type != MsgType::kSwapAck)
          throw FramingError("unexpected reply to engine swap");
        w.detector.on_success(Clock::now());
        break;
      } catch (const RpcTimeout&) {
        on_rpc_failure(w, true);
      } catch (const RpcError&) {
        on_rpc_failure(w, false);
      } catch (const FramingError&) {
        on_rpc_failure(w, false);
      }
    }
  }
}

void FrontTier::evict(std::size_t worker) {
  if (worker >= workers_.size()) return;
  workers_[worker].detector.mark_dead(Clock::now());
  migrate(worker);
  flush_all_outboxes();
}

bool FrontTier::readmit(std::size_t worker) {
  if (worker >= workers_.size()) return false;
  WorkerLink& w = workers_[worker];
  // Always a fresh connection: the open one may lead to a process that has
  // died and come back since.  A batch in flight on it is re-sent.
  w.conn.close();
  w.sent = {};
  w.attempt = 0;
  if (ensure_connected(w)) return true;
  if (w.detector.alive()) return false;
  migrate(worker);
  flush_all_outboxes();
  w.attempt = 0;
  return ensure_connected(w);
}

std::vector<std::vector<std::uint8_t>> FrontTier::drain_egress() {
  auto out = window_.drain();
  stats_.egress_frames += out.size();
  return out;
}

FrontStats FrontTier::stats() const {
  FrontStats s = stats_;
  s.egress_duplicates = window_.duplicates();
  s.resend_frames = resend_total_;
  for (const FrameLog& log : logs_) s.resend_bytes += log.bytes();
  return s;
}

WorkerView FrontTier::worker_view(std::size_t w) const {
  WorkerView v;
  if (w >= workers_.size()) return v;
  const WorkerLink& link = workers_[w];
  v.port = link.port;
  v.health = link.detector.state();
  v.timeouts = link.detector.timeouts();
  v.errors = link.detector.errors();
  v.deaths = link.detector.deaths();
  v.recoveries = link.detector.recoveries();
  v.slots_owned = owned_slots(w).size();
  v.connected = link.conn.valid();
  return v;
}

}  // namespace dist
