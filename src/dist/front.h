// FrontTier: the client half of the distributed fleet.  It hashes every
// ingress frame to a slot (the same chained-SplitMix64 flow hash the workers
// use internally), routes the slot to its owning worker over the dist RPC
// protocol, and reassembles a single, globally ordered, exactly-once egress
// stream out of whatever the workers return — through retries, duplicated
// frames, worker deaths and live slot migrations.
//
// The machinery, end to end:
//
//   offer(bytes) ──hash──► slot ──► per-slot FrameLog (the one copy; the
//                                     │ resend buffer for at-least-once)
//                     owner table ──► per-worker outbox of {slot, ordinal}
//                                     │ refs into the logs (batched RPC,
//                                     │ one batch sent ahead per worker)
//                                     ▼
//   EgressWindow ◄── seq-tagged egress piggybacked on every ack
//   (dedup + global order + tombstones for rejects)
//
// Batches are cut at max_batch frames or kBatchBytes encoded bytes,
// whichever comes first; a frame too large for any message is settled as a
// reject on the spot, without an RPC.  There is no timer: offer() sends a
// worker's batch only once it is full, so frames a caller offers and never
// flushes wait, up to max_batch - 1 of them per worker, until more offers
// fill the batch or the caller flushes.
//
// Send-ahead: offer() sends a full batch and returns without reading its
// ack, so the worker applies it while the caller offers the next one.  The
// front reads that ack, and applies its statuses and egress, just before
// its next request of any type on that connection, so each connection has
// at most one request in flight and the worker's rule holds that the next
// request proves the last reply arrived.  A sent batch's refs stay in the
// outbox until its ack: a failed read closes the connection, counts one
// failure, and the batch is re-sent (or migrated and replayed) as a failed
// exchange of any other request would be.  frames_sent and ingest_batches
// count at the ack.  A caller that never flushes therefore drains egress up
// to one more batch behind its offers than the hold bound alone implies.
//
// Fault model and the invariant it preserves: any RPC may time out or the
// connection may die at any point.  The front then retries the same frames
// after bounded-exponential backoff (the worker's per-slot seq dedup makes
// the resend idempotent), and the per-worker FailureDetector escalates
// healthy -> suspect -> dead.  On death, the dead worker's slots are
// restored onto survivors from the last checkpoint (RestoreReq carrying the
// snapshot blobs + applied seqs) and every buffered frame newer than the
// checkpoint is replayed in per-slot seq order.  Because the engines are
// deterministic and the EgressWindow dedups by global seq, the drained
// egress is bit-exact against one sequential Machine::process reference —
// including across a mid-burst kill.  tests/dist_chaos_test.cc pins exactly
// that.
//
// Threading contract: the front tier is caller-driven (one thread pumps
// offer/flush/checkpoint/heartbeat).  That keeps every chaos schedule
// deterministic: no internal threads, no clocks in the control flow.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "banzai/kernel.h"
#include "banzai/packet.h"
#include "dist/framing.h"
#include "dist/health.h"
#include "dist/rpc.h"
#include "wire/codec.h"

namespace dist {

// A worker refused a RestoreReq at the protocol level (corrupt blob, shape
// mismatch, bad slot).  Retrying cannot help, so restore_to() lets this
// escape instead of treating it as a transport failure — distinct from the
// RpcError/RpcTimeout a dying connection throws, which restore_to absorbs
// and retries.  Still an RpcError subtype so callers that only distinguish
// "the RPC tier gave up" keep working.
class RestoreRejected : public RpcError {
 public:
  using RpcError::RpcError;
};

struct FrontConfig {
  std::string algorithm;          // sent in HELLO; workers cross-check
  std::size_t num_slots = 16;     // must match every worker
  std::vector<banzai::FieldId> flow_key;  // resolved against the codec table
  Millis rpc_timeout{1000};
  Millis connect_timeout{1000};
  Millis backoff_base{5};
  Millis backoff_max{200};
  std::uint64_t seed = 1;         // backoff jitter + chaos schedules
  std::uint32_t dead_after = 3;   // consecutive failures before migration
  // Frames per IngestBatch RPC.  Each RPC costs a round trip (two sendmsg
  // calls and the worker's wake-ups), so a fuller batch costs less per
  // frame when the caller offers at least this many frames to one worker
  // between flushes.  It is also how many frames, less one, an unflushed
  // worker's outbox may hold unsent, besides one batch sent ahead and not
  // yet acked (see above).
  std::size_t max_batch = 256;
  // Resend-buffer bound: when this many frames are logged fleet-wide, the
  // front forces a checkpoint (which trims every log to the unapplied
  // tail).  At-least-once replay needs the log; the bound keeps it from
  // growing without limit on a checkpoint-shy caller.
  std::size_t resend_limit = 8192;
  // Chaos knob: re-send every Nth ingest batch verbatim after its ack — the
  // workers must answer all-kDuplicate and the egress stream must not care.
  std::uint32_t dup_every = 0;
  // Max reconnect attempts per flush_worker pass before the detector's
  // verdict is accepted (prevents an unbounded retry loop when dead_after
  // is large and the worker is truly gone).
  std::uint32_t max_attempts = 10;
};

struct FrontStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_sent = 0;      // including retries and replays
  std::uint64_t frames_acked = 0;     // kAccepted acks
  std::uint64_t dup_acks = 0;         // kDuplicate acks (dedup at the worker)
  std::uint64_t rejects = 0;          // typed parse rejects -> tombstones
  std::uint64_t retries = 0;          // RPCs re-issued after timeout/error
  std::uint64_t reconnects = 0;       // successful reconnect handshakes
  std::uint64_t migrations = 0;       // dead-worker slot migrations
  std::uint64_t slot_moves = 0;       // slots moved (migration + rebalance)
  std::uint64_t checkpoints = 0;
  std::uint64_t ingest_batches = 0;   // acknowledged IngestBatch RPCs
  std::uint64_t replays = 0;          // frames replayed from the frame logs
  std::uint64_t egress_frames = 0;    // settled egress drained so far
  std::uint64_t egress_duplicates = 0;  // dropped by the window dedup
  // Ack/egress seqs outside the issued range [1, next_seq): a corrupted (but
  // well-framed) worker reply; dropped before they can touch the window.
  std::uint64_t egress_corrupt = 0;
  std::uint64_t heartbeats = 0;
  // Gauges of the resend buffer, read from the frame logs: the frames
  // logged and not yet trimmed by a checkpoint, and the bytes the logs hold
  // for them (a dead prefix not yet compacted included).
  std::uint64_t resend_frames = 0;
  std::uint64_t resend_bytes = 0;
};

// One slot's offered frames, each kept once: the resend buffer that replay
// reads after a slot move, and the bytes the outboxes' refs point at.  The
// frames lie back to back in one byte buffer, indexed by entries in seq
// order.  An entry is named by its ordinal, the number of frames appended
// to the log before it; trimming keeps the ordinals of the rest.
class FrameLog {
 public:
  // Appends a frame and returns its ordinal.
  std::uint64_t append(std::uint64_t seq, const std::uint8_t* data,
                       std::size_t len);
  // Drops every entry whose seq is at or below `applied`, and returns how
  // many.  Compacts once the dead prefix passes half the buffer.
  std::size_t trim(std::uint64_t applied);
  // Views entry `ordinal` (slot left 0), or returns false when a trim has
  // dropped it.  The view holds until the next append or trim.
  bool get(std::uint64_t ordinal, FrameView& out) const;

  std::uint64_t first() const { return trimmed_; }  // oldest live ordinal
  std::uint64_t end() const { return trimmed_ + size(); }
  std::size_t size() const { return entries_.size() - head_; }
  // Bytes held, a dead prefix not yet compacted included.
  std::size_t bytes() const { return bytes_.size(); }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    std::size_t offset = 0;  // into bytes_
    std::size_t len = 0;
  };
  std::vector<std::uint8_t> bytes_;
  std::vector<Entry> entries_;  // entries_[head_] has ordinal trimmed_
  std::size_t head_ = 0;
  std::uint64_t trimmed_ = 0;   // entries trimmed so far
};

struct WorkerView {
  std::uint16_t port = 0;
  HealthState health = HealthState::kHealthy;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t deaths = 0;
  std::uint64_t recoveries = 0;
  std::size_t slots_owned = 0;
  bool connected = false;
};

// Reorders worker egress into one global exactly-once stream.  Frames arrive
// tagged with the front tier's sequence numbers (possibly duplicated after a
// retry or replay); rejected seqs become tombstones so the watermark never
// stalls on a frame that produced no output.
class EgressWindow {
 public:
  // True when the record was fresh, false when deduped.
  bool deliver(std::uint64_t seq, std::vector<std::uint8_t> bytes);
  bool tombstone(std::uint64_t seq);

  std::vector<std::vector<std::uint8_t>> drain();

  // First seq not yet settled; when it reaches the offer counter + 1 every
  // offered frame is accounted for.
  std::uint64_t watermark() const { return next_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  struct Cell {
    enum State : std::uint8_t { kPending, kFilled, kTombstone };
    State state = kPending;
    std::vector<std::uint8_t> bytes;
  };
  bool put(std::uint64_t seq, Cell::State state,
           std::vector<std::uint8_t>&& bytes);
  void advance();

  std::deque<Cell> window_;  // window_[i] holds seq next_ + i
  std::vector<std::vector<std::uint8_t>> ready_;
  std::uint64_t next_ = 1;  // seqs start at 1 (0 = "nothing applied")
  std::uint64_t duplicates_ = 0;
};

class FrontTier {
 public:
  // `rx` parses frames only to compute the flow hash; the original bytes are
  // what travels to the workers.  It must be the same spec the workers parse
  // with, bound against the same field layout.
  FrontTier(std::shared_ptr<const wire::WireCodec> rx, FrontConfig cfg);

  // Registers a worker (must all be added before connect()).  Returns its
  // index.  Initial slot ownership is round-robin: slot s -> worker s % N.
  std::size_t add_worker(std::uint16_t port);

  // Connects + HELLO-handshakes every worker.  Throws RpcError if any worker
  // is unreachable at startup (later failures are handled, not thrown).
  void connect();

  // Offers one ingress frame: assigns the next global seq, logs it for
  // resend, routes it to its slot's owner, and once that owner's outbox
  // holds a full batch, reads the owner's outstanding ack (if any) and sends
  // the batch ahead, without waiting for its ack.  Malformed frames still
  // get a seq (the worker rejects them with a typed status and the window
  // tombstones the seq); one too large for any message is tombstoned here,
  // as the worker would reject it kOversized.
  void offer(const std::uint8_t* data, std::size_t len);
  void offer(const std::vector<std::uint8_t>& frame) {
    offer(frame.data(), frame.size());
  }

  // Sends every buffered frame and runs FlushReq rounds until every offered
  // seq is settled (delivered or tombstoned).  Survives worker deaths
  // mid-flush: migration + replay happen inline.
  void flush();

  // Checkpoint barrier: snapshots every owned slot on every alive worker,
  // stores the blobs as the migration fallback, trims the frame logs.
  void checkpoint();

  // Probes every alive worker (egress piggybacks on the acks); drives the
  // failure detectors for idle periods.
  void heartbeat();

  // Moves one slot to another worker under load: checkpoint the slot on its
  // current owner (drain barrier), restore on the target, replay the
  // unapplied tail.  Works whether the current owner is alive (live
  // rebalance) or dead (the migration path with the *last* checkpoint).  If
  // the owner is alive but the barrier snapshot keeps failing, the move is
  // ABORTED (throws RpcError, ownership unchanged) rather than shipping a
  // stale restore point while the owner holds newer state; if the owner
  // dies during the barrier, the move degrades to the migration path.
  void move_slot(std::size_t slot, std::size_t to_worker);

  // Hot-swaps every worker onto another execution engine mid-stream.
  // Throws std::invalid_argument, before any RPC, for a value that is not
  // kKernel or kNative: a worker would refuse it, and the front would read
  // each refusal as a failed connection until it declared the worker dead.
  void swap_engine(banzai::ExecEngine engine);

  // Marks a worker dead immediately and migrates its slots (the caller knows
  // something the detector doesn't, e.g. the chaos harness just killed it).
  void evict(std::size_t worker);

  // Re-admits a worker that was dead (e.g. a restarted process): a fresh
  // connection + HELLO; the worker starts owning nothing until move_slot
  // hands it work.  A restart the front had not noticed yet (the worker
  // still owned slots) is handled as the death it was first: those slots
  // migrate from the last checkpoint, then the worker is re-admitted.
  bool readmit(std::size_t worker);

  // Settled egress in global offer order, exactly once.
  std::vector<std::vector<std::uint8_t>> drain_egress();

  bool settled() const { return window_.watermark() == next_seq_; }
  std::size_t num_workers() const { return workers_.size(); }
  std::size_t owner_of(std::size_t slot) const { return owner_.at(slot); }
  FrontStats stats() const;
  WorkerView worker_view(std::size_t w) const;

 private:
  // A logged frame routed to a worker: entry `ordinal` of logs_[slot].
  struct FrameRef {
    std::uint64_t ordinal = 0;
    std::uint32_t slot = 0;
    std::uint32_t len = 0;  // the frame's, for the outbox's byte count
  };

  // The IngestBatch sent on a connection and not yet acked: it took the
  // first `refs` refs of the outbox (their record bytes `bytes`) and carries
  // `frames` frames.  refs == 0: nothing in flight.
  struct InFlight {
    std::size_t refs = 0;
    std::size_t bytes = 0;
    std::size_t frames = 0;
  };

  // One worker's connection and queues.  At most one request is in flight
  // on `conn` (`sent`, an IngestBatch sent ahead); every other exchange
  // reads its reply before returning.
  struct WorkerLink {
    std::uint16_t port = 0;
    Conn conn;
    FailureDetector detector;
    std::uint32_t attempt = 0;           // reconnect backoff exponent
    std::deque<FrameRef> outbox;         // routed here, not yet acked
    std::size_t outbox_bytes = 0;        // their encoded record bytes
    InFlight sent;                       // reset whenever conn closes
    std::vector<std::uint8_t> request;   // the last batch encoded, reused
    Message reply;                       // the last reply, buffer reused
    std::uint64_t incarnation = 0;       // the worker's, at the last HELLO
    std::uint64_t hb_nonce = 0;
  };

  std::size_t slot_of_frame(const std::uint8_t* data, std::size_t len);
  void route(const FrameRef& ref);
  // Reconnects + HELLOs when the connection is closed.  A worker found to
  // have restarted (new incarnation) while it still owns slots lost their
  // state unseen: it is marked dead and false returned, every time, until
  // migrate() has moved those slots away; only then is the new incarnation
  // adopted.
  bool ensure_connected(WorkerLink& w);
  // Returns the worker's incarnation.
  std::uint64_t hello(WorkerLink& w);
  // One request/response exchange into w.reply, which the returned
  // reference names; throws RpcTimeout/RpcError.  Nothing may be in flight.
  const Message& call(WorkerLink& w, MsgType type,
                      const std::vector<std::uint8_t>& payload);
  // Reads the ack of the batch in flight on w, if any, and applies its
  // statuses and egress (and the dup_every re-send).  On a failure the
  // connection closes, one failure is counted and the batch's refs stay
  // queued for a resend: false.
  bool await_ack(WorkerLink& w);
  // What every request but a batch goes through first: the in-flight ack,
  // then a live connection (ensure_connected).  False when either failed.
  bool ready(WorkerLink& w);
  // Receives an IngestAck into w.reply and decodes it into ack_; throws
  // RpcTimeout/RpcError, or FramingError on a bad reply.
  void recv_ingest_ack(WorkerLink& w);
  void on_rpc_failure(WorkerLink& w, bool timeout);
  // Applies ack_: per-frame statuses, then its egress.
  void process_ack();
  void process_egress(std::vector<EgressRecord>& egress);
  // Views the outbox's next batch into batch_ and returns how many refs it
  // takes.  A ref whose entry a checkpoint trimmed is taken but not viewed:
  // the checkpoint proved that frame applied.
  std::size_t next_batch(const WorkerLink& w);
  void pop_refs(WorkerLink& w, std::size_t n);
  // True when the refs past the one in flight make a full batch.
  bool batch_waiting(const WorkerLink& w) const;
  // Drops log entries the slot's owner reports applied, up to applied_seq.
  void trim_log(std::size_t slot, std::uint64_t applied_seq);
  // Makes a snapshot's slot (a valid index) its checkpoint, the blob copied
  // into the buffer of the slot's last one, and trims the slot's log.
  void store_checkpoint(const SlotStateView& ss);
  // Sends one worker's outbox in batches (with retry/backoff); migrates and
  // re-routes if the worker dies.  Returns false if the worker died.  By
  // default it returns with the outbox empty and every ack read; `ahead`
  // returns as soon as no full batch waits, leaving the last one sent in
  // flight (offer's send-ahead).
  bool flush_worker(std::size_t wi, bool ahead = false);
  void flush_all_outboxes();
  void migrate(std::size_t dead);
  // Installs slot blobs on `target`, retrying through connection failures
  // (RpcTimeout / RpcError / FramingError all burn an attempt).  Returns
  // false when the target itself ran out of failure budget; throws
  // RestoreRejected when the worker refuses the payload (corrupt blob —
  // retrying cannot help).
  bool restore_to(std::size_t target, const RestoreReq& req);
  void replay_slot(std::size_t slot);
  std::vector<std::size_t> owned_slots(std::size_t wi) const;
  std::size_t pick_survivor(std::size_t excluding, std::size_t salt) const;
  void deliver_tombstone(std::uint64_t seq);
  // True when a worker-reported seq is one the front actually issued;
  // otherwise counts it corrupt.  Gates every seq decoded from a reply
  // before it can reach the window (a huge seq would drive an unbounded
  // window resize).
  bool valid_egress_seq(std::uint64_t seq);
  // The restore payload for handing `slot` to a new owner: the last
  // checkpoint if there is one, else the explicit empty-blob "reset to
  // initial state" order — a target is never left trusting its own
  // (possibly stale) copy of the slot.
  RestoreReq restore_payload(std::size_t slot) const;

  std::shared_ptr<const wire::WireCodec> rx_;
  FrontConfig cfg_;
  Backoff backoff_;
  std::vector<WorkerLink> workers_;
  std::vector<std::size_t> owner_;               // slot -> worker index
  std::vector<FrameLog> logs_;                   // per slot
  std::map<std::size_t, SlotState> checkpoint_;  // slot -> last checkpoint
  std::size_t resend_total_ = 0;                 // live entries, all logs
  std::vector<FrameView> batch_;                 // next_batch's views
  IngestAck ack_;                                // the last ack, decoded
  EgressWindow window_;
  std::uint64_t next_seq_ = 1;
  std::uint32_t batches_sent_ = 0;  // for the dup_every chaos knob
  banzai::Packet scratch_;          // parse target for slot hashing
  FrontStats stats_;
};

}  // namespace dist
