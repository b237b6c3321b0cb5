#include "dist/rpc.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "sim/partition.h"

namespace dist {

namespace {

// No deadline: the untimed waits (a raised Waker is their only way out
// besides readiness).
constexpr TimePoint kNever = TimePoint::max();

// Remaining milliseconds until `deadline`, clamped to [0, INT_MAX] for
// poll().  Zero means "already expired"; kNever maps to poll's -1.
int millis_left(TimePoint deadline) {
  if (deadline == kNever) return -1;
  const auto left =
      std::chrono::duration_cast<Millis>(deadline - Clock::now()).count();
  if (left <= 0) return 0;
  if (left > 0x7FFFFFFF) return 0x7FFFFFFF;
  return static_cast<int>(left);
}

[[noreturn]] void throw_errno(const char* what) {
  throw RpcError(std::string(what) + ": " + std::strerror(errno));
}

// Waits until `fd` is ready for `events` (true), or `wake_fd` (when >= 0)
// is readable first (false), or the deadline passes (throws RpcTimeout).
// EINTR loops.
bool wait_ready(int fd, short events, TimePoint deadline, const char* what,
                int wake_fd = -1) {
  for (;;) {
    pollfd pfd[2] = {{fd, events, 0}, {wake_fd, POLLIN, 0}};
    const int left = millis_left(deadline);
    if (left == 0) throw RpcTimeout(std::string(what) + ": deadline exceeded");
    const int rc = ::poll(pfd, wake_fd >= 0 ? 2 : 1, left);
    if (rc > 0) {
      if (wake_fd >= 0 && pfd[1].revents != 0) return false;
      // POLLERR/POLLHUP readiness falls through to the actual syscall, which
      // reports the precise error (or EOF) — one error path, not two.
      return true;
    }
    if (rc == 0) throw RpcTimeout(std::string(what) + ": deadline exceeded");
    if (errno == EINTR) continue;
    throw_errno(what);
  }
}

// TCP_NODELAY (the request/response pattern dies by Nagle otherwise) and
// O_NONBLOCK: with a blocking socket a full peer buffer would let send()
// stall past any deadline; nonblocking + poll keeps every wait bounded.
void setup_stream(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Waker::Waker() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) throw_errno("eventfd");
}

Waker::~Waker() {
  if (fd_ >= 0) ::close(fd_);
}

void Waker::wake() {
  const std::uint64_t one = 1;
  // Only EINTR can interrupt the write; a full counter (EAGAIN) is already
  // raised, which is all a wake needs.
  while (::write(fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void Waker::clear() {
  std::uint64_t count = 0;
  while (::read(fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

Conn& Conn::operator=(Conn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::recv_all(std::uint8_t* data, std::size_t len, TimePoint deadline) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd_, data + off, len - off, MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw RpcError("recv: connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd_, POLLIN, deadline, "recv");
      continue;
    }
    throw_errno("recv");
  }
}

void Conn::send_msg(MsgType type, const std::vector<std::uint8_t>& payload,
                    TimePoint deadline) {
  if (!valid()) throw RpcError("send_msg: connection is closed");
  if (payload.size() > kMaxMessageBytes)
    throw RpcError("send_msg: payload exceeds kMaxMessageBytes");
  std::uint8_t hdr[5];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    hdr[i] = static_cast<std::uint8_t>(len >> (8 * i));
  hdr[4] = static_cast<std::uint8_t>(type);
  // Header and payload leave in one gathered write; a partial write advances
  // through the two pieces in place.
  iovec iov[2] = {{hdr, sizeof(hdr)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  iovec* cur = iov;
  std::size_t count = payload.empty() ? 1 : 2;
#ifdef MSG_NOSIGNAL
  const int flags = MSG_NOSIGNAL;
#else
  const int flags = 0;
#endif
  while (count > 0) {
    msghdr mh{};
    mh.msg_iov = cur;
    mh.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd_, &mh, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_ready(fd_, POLLOUT, deadline, "send");
        continue;
      }
      throw_errno("send");
    }
    std::size_t done = static_cast<std::size_t>(n);
    while (count > 0 && done >= cur->iov_len) {
      done -= cur->iov_len;
      ++cur;
      --count;
    }
    if (count > 0) {
      cur->iov_base = static_cast<std::uint8_t*>(cur->iov_base) + done;
      cur->iov_len -= done;
    }
  }
}

void Conn::recv_msg(Message& into, TimePoint deadline) {
  if (!valid()) throw RpcError("recv_msg: connection is closed");
  std::uint8_t hdr[5];
  recv_all(hdr, sizeof(hdr), deadline);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  if (len > kMaxMessageBytes)
    throw RpcError("recv_msg: length prefix exceeds kMaxMessageBytes");
  into.type = static_cast<MsgType>(hdr[4]);
  // Emptied first, so a buffer that must grow copies none of the previous
  // payload; the allocator leaves the new bytes for recv_all to write.  It
  // grows at least twofold, so payloads that creep up in size (checkpoint
  // replies carry varying egress) do not each leave a freed block behind.
  into.payload.clear();
  const std::size_t cap = into.payload.capacity();
  if (len > cap) into.payload.reserve(std::max<std::size_t>(len, 2 * cap));
  into.payload.resize(len);
  if (len > 0) recv_all(into.payload.data(), len, deadline);
}

Message Conn::recv_msg(TimePoint deadline) {
  Message m;
  recv_msg(m, deadline);
  return m;
}

bool Conn::wait_readable(const Waker& waker) const {
  if (!valid()) throw RpcError("wait_readable: connection is closed");
  return wait_ready(fd_, POLLIN, kNever, "recv", waker.fd());
}

Conn connect_local(std::uint16_t port, Millis timeout) {
  const TimePoint deadline = Clock::now() + timeout;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Conn conn(fd);  // owns the fd from here: every throw below closes it
  setup_stream(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      break;
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS || errno == EALREADY || errno == EAGAIN) {
      wait_ready(fd, POLLOUT, deadline, "connect");
      continue;
    }
    if (errno == EISCONN) break;
    throw_errno("connect");
  }
  return conn;
}

void Listener::listen(std::uint16_t port) {
  close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw RpcError(std::string("bind: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  if (::listen(fd, 8) < 0) {
    const int err = errno;
    ::close(fd);
    throw RpcError(std::string("listen: ") + std::strerror(err));
  }
  fd_ = fd;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

namespace {

// The accept loop both Listener::accept overloads share; wake_fd < 0 means
// no Waker.
Conn accept_on(int fd, TimePoint deadline, int wake_fd) {
  if (fd < 0) throw RpcError("accept: listener is closed");
  for (;;) {
    if (!wait_ready(fd, POLLIN, deadline, "accept", wake_fd))
      throw RpcError("accept: woken");
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      setup_stream(conn);
      return Conn(conn);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    throw_errno("accept");
  }
}

}  // namespace

Conn Listener::accept(TimePoint deadline) {
  return accept_on(fd_, deadline, -1);
}

Conn Listener::accept(const Waker& waker) {
  return accept_on(fd_, kNever, waker.fd());
}

void Listener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Millis Backoff::delay(std::uint32_t attempt) const {
  // Saturate the exponent well before 2^attempt overflows.
  std::uint64_t mult = attempt >= 20 ? (1u << 20) : (1u << attempt);
  std::uint64_t ms = static_cast<std::uint64_t>(base_.count()) * mult;
  const std::uint64_t cap = static_cast<std::uint64_t>(max_.count());
  if (ms > cap) ms = cap;
  if (ms == 0) return Millis(0);
  // Deterministic jitter in [ms/2, ms): hash (seed, attempt).
  const std::uint64_t h = netsim::mix64(seed_ ^ (0x9E3779B97F4A7C15ULL *
                                                 (attempt + 1)));
  const std::uint64_t half = ms / 2;
  const std::uint64_t jittered = half + (half > 0 ? h % half : 0);
  return Millis(static_cast<long long>(jittered > 0 ? jittered : ms));
}

}  // namespace dist
