// WorkerServer: one process (or in-process harness instance) of the
// distributed fleet.  It owns a FleetService built from a compiled machine,
// listens on a TCP port, and serves the front tier's RPC protocol
// (dist/framing.h): byte-frame ingest with per-slot sequence dedup, egress
// return tagged with the front tier's global sequence numbers, snapshot /
// restore of whole slots (the live-migration payload), engine hot-swap, and
// heartbeats.
//
// Robustness contracts this side enforces:
//   * At-least-once ingest, exactly-once apply: the front tier may re-send
//     any frame (retry after a timeout, replay after a migration).  The
//     worker tracks the highest applied sequence number per slot; a frame
//     with seq <= applied_seq[slot] never touches the service.  Per-slot
//     frames arrive in sequence order, so the monotonic check is an exact
//     dedup, not a heuristic.  An APPLIED frame at-or-below the watermark is
//     acknowledged kDuplicate; a REJECTED one (which never advanced the
//     watermark) is re-answered its original reject status — parsing is
//     deterministic on identical bytes, so re-parsing reconstructs the
//     verdict exactly and the front's tombstone stays redeliverable even
//     after a later frame in the slot moved the watermark past it.
//   * Corrupt migration payloads reject cleanly: a RestoreReq is fully
//     validated (framing decode, state-shape check against the
//     prototype's initial state, slot bounds) BEFORE the service is flushed
//     or any slot is touched; on any failure the worker answers kError and
//     keeps serving with its state untouched.  An EMPTY
//     state blob is the one exception to "blob must decode": it is the
//     front's explicit "start from scratch" order, resetting the slot to
//     the prototype's initial state (and applied_seq to the given value) so
//     a target that silently kept stale state for the slot — e.g. a
//     partitioned-but-alive worker being re-admitted — starts from the same
//     known point a pristine worker would.
//   * A lost connection is not a crash: the serve loop returns to accept(),
//     so a front tier that reconnects (with a fresh HELLO) resumes against
//     the same state and the same dedup table.
//   * A reply lost in flight cannot lose egress: the egress a reply carries
//     stays held until the next request on the same connection proves the
//     reply arrived, and a new connection re-queues it.
//
// The serve thread never sleeps to wait: between requests it blocks in
// poll() on the connection and an eventfd (Waker), and between connections
// in accept() on the same eventfd; stop() and kill() raise it.
//
// kill() simulates a process crash for in-process chaos tests: connections
// drop mid-request and ALL service state is discarded (a SIGKILL'd process
// loses its memory) — recovery must come from the front tier's checkpoint +
// replay, which is exactly what the chaos suite verifies.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "banzai/machine.h"
#include "banzai/packet.h"
#include "banzai/service.h"
#include "banzai/state.h"
#include "dist/framing.h"
#include "dist/rpc.h"

namespace dist {

struct WorkerConfig {
  std::uint16_t port = 0;        // 0 = ephemeral (read back from port())
  std::string algorithm;         // corpus algorithm name (HELLO validation)
  std::size_t num_slots = 16;    // global slot table size (fleet-wide)
  std::size_t num_shards = 2;    // worker-local threads
  std::size_t batch_size = 64;
  std::size_t ring_capacity = 1024;
  std::vector<std::string> flow_key;  // field names, resolved per machine
  // Deadline for any single send/recv on the serve connection.
  Millis io_timeout{2000};
  // Chaos knob: stall (sleep) before answering every Nth ingest request,
  // long enough to blow the front tier's RPC deadline — drives the
  // timeout -> retry -> duplicate-ack path deterministically.  0 = off.
  std::uint32_t stall_every = 0;
  Millis stall_for{0};
};

struct WorkerStats {
  std::uint64_t requests = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_duplicate = 0;  // deduped by the per-slot seq guard
  std::uint64_t frames_rejected = 0;   // parse rejections (typed, counted)
  std::uint64_t egress_returned = 0;
  // Egress re-queued by a new connection because no request had proved
  // that the reply carrying it arrived; the front drops the ones that did.
  std::uint64_t egress_redelivered = 0;
  std::uint64_t restores = 0;          // slots installed via RestoreReq
  std::uint64_t restore_rejects = 0;   // corrupt payloads refused
  std::uint64_t engine_swaps = 0;
  std::uint64_t reconnects = 0;        // accepted front-tier connections - 1
};

class WorkerServer {
 public:
  // The machine prototype must carry the algorithm's compiled pipeline; rx
  // parses ingress frames, tx deparses egress (built with the compiler's
  // output_map).  The service starts on the prototype's engine.
  WorkerServer(const banzai::Machine& prototype,
               std::shared_ptr<const wire::WireCodec> rx,
               std::shared_ptr<const wire::WireCodec> tx, WorkerConfig cfg);
  ~WorkerServer();
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  // Binds the port and spawns the serve thread.  Throws RpcError on bind
  // failure.
  void start();

  // Graceful shutdown: wakes the serve thread, which exits after the
  // request it is handling, if any; then stops the service and joins.
  // Idempotent.
  void stop();

  // Crash simulation: the serve thread exits as in stop(), the connection
  // drops with no further answer, and ALL service state is DISCARDED (fresh
  // slots, zeroed dedup table, unreturned egress), as a killed process would
  // lose it.  The listener stays closed until restart().
  void kill();

  // Brings a killed worker back on the same port with fresh state — the
  // "restarted process" half of a chaos schedule.
  void restart();

  // Serves requests on the calling thread until kStop or kill()/stop() —
  // the worker-main entry point for real processes (examples/dist_worker).
  void serve_forever();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  WorkerStats stats() const;

 private:
  void serve_loop();
  void serve_connection(Conn& conn);
  // Handles one request; returns false when the connection should close.
  bool handle(Conn& conn, const Message& req);
  void reply(Conn& conn, MsgType type,
             const std::vector<std::uint8_t>& payload);
  void reply_error(Conn& conn, const std::string& what);

  // Drains settled service egress and pairs it with the pending global seqs
  // (FIFO: the service preserves ingest order).  Appends to out_egress_.
  void harvest_egress();
  // Moves every harvested egress record into a response.
  std::vector<EgressRecord> take_egress();
  // Takes back the egress of the reply about to be sent (encoded already)
  // as unconfirmed_, until the next request proves that reply arrived.
  void hold(std::vector<EgressRecord>&& egress);

  void handle_ingest(Conn& conn, const Message& req);
  void handle_snapshot(Conn& conn, const Message& req);
  void handle_restore(Conn& conn, const Message& req);
  void handle_swap(Conn& conn, const Message& req);
  void handle_flush(Conn& conn);
  void handle_hello(Conn& conn, const Message& req);
  void handle_heartbeat(Conn& conn, const Message& req);

  // Rebuilds the FleetService from the prototype (fresh state, new
  // incarnation).
  void rebuild_service();

  banzai::Machine proto_;
  std::shared_ptr<const wire::WireCodec> rx_, tx_;
  WorkerConfig cfg_;
  banzai::ServiceConfig svc_cfg_;
  // The prototype's pristine state: the restore point an empty-blob
  // RestoreReq resets a slot to.  Captured once; engine swaps don't touch it.
  banzai::StateStore initial_state_;

  // Everything below mu_ is touched by the serve thread and by the control
  // surface (kill/restart/stats) — coarse lock, zero contention in steady
  // state because control calls are rare.
  mutable std::mutex mu_;
  std::unique_ptr<banzai::FleetService> svc_;
  std::vector<std::uint64_t> applied_seq_;  // per slot, 0 = nothing applied
  std::deque<std::uint64_t> pending_seq_;   // global seqs of accepted frames
  std::deque<EgressRecord> out_egress_;     // harvested, not yet returned
  // Egress included in the most recent reply — the one copy of each record,
  // moved here once the reply is encoded.  Request/response lockstep means
  // the next request on the same connection proves the reply arrived
  // (confirmed -> dropped); a NEW connection instead means the reply may
  // have died with the old one, so these re-queue onto out_egress_.  The
  // front tier's window dedups the case where the reply did arrive.
  std::vector<EgressRecord> unconfirmed_;
  WorkerStats stats_;
  std::uint64_t conns_seen_ = 0;
  std::uint32_t ingest_count_ = 0;          // for the stall_every knob
  banzai::Packet scratch_;                  // re-parse target for dedup acks
  std::uint64_t incarnation_ = 0;           // new with every rebuild_service

  Listener listener_;
  Waker waker_;  // raised by stop()/kill() to end the serve thread's waits
  std::uint16_t port_ = 0;
  std::thread server_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};
};

}  // namespace dist
