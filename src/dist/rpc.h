// Socket plumbing for the distributed fleet: deadline-bounded message I/O
// over TCP, a listener, and the reconnect backoff policy.
//
// Everything here is defensive by construction:
//   * every send/recv runs a poll()-guarded loop with an absolute deadline —
//     a stalled or dead peer costs at most the deadline, never a hang;
//   * the two waits with no deadline — a worker idling between requests
//     (Conn::wait_readable) or between connections (Listener::accept with a
//     Waker) — block in poll() with an eventfd in the same poll set, so the
//     thread that owns the wait ends it at once, with no timer and no
//     sleep-poll;
//   * EINTR and partial reads/writes are retried inside the loop (the same
//     write-loop discipline the MetricsEndpoint hardening applies);
//   * message length prefixes are bounded by framing.h's kMaxMessageBytes
//     before any allocation;
//   * all failures surface as RpcError with errno text, and timeouts as the
//     distinct RpcTimeout so callers can treat "slow" differently from
//     "broken" (the health state machine does: timeout -> suspect,
//     hard error -> the same path, but the counters differ).
//
// Backoff: bounded exponential with deterministic jitter.  The jitter source
// is a seeded SplitMix64 walk, so a reconnect storm in a chaos test replays
// identically for one seed while still decorrelating real fleets.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/framing.h"

namespace dist {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Millis = std::chrono::milliseconds;

class RpcError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A deadline expired before the operation completed.  The connection is left
// in an undefined mid-message position, so callers must reconnect (or, in
// the front tier, re-send the whole request after backoff — the worker-side
// seq dedup makes that safe).
class RpcTimeout : public RpcError {
 public:
  using RpcError::RpcError;
};

struct Message {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// Ends the untimed waits below from another thread: an eventfd that sits in
// the same poll set as the socket.  Level-triggered — once raised it ends
// every wait, including one that starts later, until clear() — so a wake
// that races the start of a wait is never lost.
class Waker {
 public:
  Waker();  // throws RpcError when no eventfd can be created
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  void wake();   // any thread
  void clear();  // re-arms; call only while no wait is running
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// One connected TCP stream carrying length-prefixed messages.  Owns the fd.
// Not thread-safe: one side of the conversation drives it at a time (the
// front tier's pump loop, or a worker's serve loop).
class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  Conn(Conn&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Conn& operator=(Conn&& o) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  // Writes the (u32 length, u8 type, payload) envelope — header and payload
  // in one gathered sendmsg, no framed copy — looping over partial writes
  // and EINTR until done or `deadline` passes (throws RpcTimeout).
  void send_msg(MsgType type, const std::vector<std::uint8_t>& payload,
                TimePoint deadline);

  // Reads exactly one message.  Throws RpcTimeout on deadline, RpcError on
  // EOF / reset / an over-long length prefix.
  Message recv_msg(TimePoint deadline);

  // Blocks, with no timer, until the peer has sent bytes (or closed, or
  // failed — the next recv_msg reports which): true.  Returns false as soon
  // as `waker` is raised.  A worker waits here between requests.
  bool wait_readable(const Waker& waker) const;

 private:
  void recv_all(std::uint8_t* data, std::size_t len, TimePoint deadline);

  int fd_ = -1;
};

// Connects to 127.0.0.1:port with a connect deadline.  Throws RpcTimeout /
// RpcError.  The resulting socket has TCP_NODELAY set: the RPC tier's
// request/response pattern dies by Nagle otherwise.
Conn connect_local(std::uint16_t port, Millis timeout);

// A listening socket on 127.0.0.1 (SO_REUSEADDR, so a restarted worker can
// re-bind its port immediately).  port == 0 picks an ephemeral port.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  void listen(std::uint16_t port);
  void close();

  // Blocks until a peer connects or `deadline` passes (RpcTimeout) or the
  // listener is shut down from another thread (RpcError).  EINTR retried.
  Conn accept(TimePoint deadline);

  // Blocks, with no timer, until a peer connects.  Throws RpcError once
  // `waker` is raised or the listener is shut down.
  Conn accept(const Waker& waker);

  // Unblocks a concurrent accept() from another thread.
  void shutdown();

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Bounded exponential backoff with deterministic jitter: delay(attempt) is
// min(base * 2^attempt, max), jittered to [delay/2, delay) by a seeded hash
// of (seed, attempt) — full determinism per seed, decorrelation across seeds.
class Backoff {
 public:
  Backoff(Millis base, Millis max, std::uint64_t seed)
      : base_(base), max_(max), seed_(seed) {}

  Millis delay(std::uint32_t attempt) const;

  Millis base() const { return base_; }
  Millis max() const { return max_; }

 private:
  Millis base_;
  Millis max_;
  std::uint64_t seed_;
};

}  // namespace dist
