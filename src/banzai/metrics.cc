#include "banzai/metrics.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/queue.h"

namespace banzai {

namespace {

void help_line(std::ostream& os, const char* name, const char* type,
               const char* help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

void render_service_metrics(std::ostream& os, const ServiceStats& st) {
  help_line(os, "domino_service_ingested_total", "counter",
            "Packets offered to the service (accepted + dropped + in flight)");
  os << "domino_service_ingested_total " << st.ingested << '\n';
  help_line(os, "domino_service_delivered_total", "counter",
            "Packets delivered to the ordered egress");
  os << "domino_service_delivered_total " << st.delivered << '\n';
  help_line(os, "domino_service_dropped_total", "counter",
            "Packets shed by DropTail backpressure");
  os << "domino_service_dropped_total " << st.dropped << '\n';
  help_line(os, "domino_service_packets_per_sec", "gauge",
            "Delivered packets over wall-clock running time");
  os << "domino_service_packets_per_sec " << st.packets_per_sec << '\n';
  help_line(os, "domino_service_latency_ticks", "gauge",
            "Enqueue-to-egress latency in ingest ticks, by quantile");
  os << "domino_service_latency_ticks{quantile=\"0.5\"} "
     << st.latency_p50_ticks << '\n';
  os << "domino_service_latency_ticks{quantile=\"0.99\"} "
     << st.latency_p99_ticks << '\n';
  help_line(os, "domino_service_latency_ticks_avg", "gauge",
            "Mean enqueue-to-egress latency in ingest ticks");
  os << "domino_service_latency_ticks_avg " << st.avg_latency_ticks << '\n';

  if (!st.queue_depth.empty()) {
    help_line(os, "domino_service_queue_depth", "gauge",
              "Current ring occupancy per shard");
    for (std::size_t s = 0; s < st.queue_depth.size(); ++s)
      os << "domino_service_queue_depth{shard=\"" << s << "\"} "
         << st.queue_depth[s] << '\n';
  }

  if (st.wire.frames_parsed + st.wire.frames_rejected > 0) {
    help_line(os, "domino_wire_frames_parsed_total", "counter",
              "Frames parsed clean and offered to ingest");
    os << "domino_wire_frames_parsed_total " << st.wire.frames_parsed << '\n';
    help_line(os, "domino_wire_frames_rejected_total", "counter",
              "Frames rejected by the parser, by reason");
    os << "domino_wire_frames_rejected_total{reason=\"truncated\"} "
       << st.wire.reject_truncated << '\n';
    os << "domino_wire_frames_rejected_total{reason=\"oversized\"} "
       << st.wire.reject_oversized << '\n';
    os << "domino_wire_frames_rejected_total{reason=\"bad_value\"} "
       << st.wire.reject_bad_value << '\n';
    help_line(os, "domino_wire_bytes_total", "counter",
              "Bytes through the wire front end, by direction");
    os << "domino_wire_bytes_total{direction=\"in\"} " << st.wire.bytes_in
       << '\n';
    os << "domino_wire_bytes_total{direction=\"out\"} " << st.wire.bytes_out
       << '\n';
  }

  if (!st.stage_counters.empty()) {
    help_line(os, "domino_stage_packets_total", "counter",
              "Packets through each pipeline stage (DOMINO_STAGE_COUNTERS)");
    for (std::size_t i = 0; i < st.stage_counters.size(); ++i)
      os << "domino_stage_packets_total{stage=\"" << i << "\"} "
         << st.stage_counters[i].packets << '\n';
    help_line(os, "domino_stage_ops_total", "counter",
              "Micro-ops retired per stage");
    for (std::size_t i = 0; i < st.stage_counters.size(); ++i)
      os << "domino_stage_ops_total{stage=\"" << i << "\"} "
         << st.stage_counters[i].ops << '\n';
    help_line(os, "domino_stage_ns_total", "counter",
              "Wall-clock nanoseconds spent executing each stage");
    for (std::size_t i = 0; i < st.stage_counters.size(); ++i)
      os << "domino_stage_ns_total{stage=\"" << i << "\"} "
         << st.stage_counters[i].ns << '\n';
  }
}

void render_heavy_hitters(std::ostream& os,
                          const std::vector<HeavyHitter>& hitters) {
  if (hitters.empty()) return;
  help_line(os, "domino_heavy_hitter_count", "gauge",
            "Estimated offered packets of the top-k flows, keyed by flow "
            "hash; overestimates true count by at most the matching error");
  std::ostringstream hex;
  for (const HeavyHitter& h : hitters) {
    hex.str("");
    hex << std::hex << std::setw(16) << std::setfill('0') << h.key;
    os << "domino_heavy_hitter_count{flow=\"" << hex.str() << "\"} " << h.count
       << '\n';
  }
  help_line(os, "domino_heavy_hitter_error", "gauge",
            "Maximum overestimate of the matching count");
  for (const HeavyHitter& h : hitters) {
    hex.str("");
    hex << std::hex << std::setw(16) << std::setfill('0') << h.key;
    os << "domino_heavy_hitter_error{flow=\"" << hex.str() << "\"} " << h.error
       << '\n';
  }
}

void render_native_cache_metrics(std::ostream& os,
                                 const NativeCacheStats& stats) {
  help_line(os, "domino_native_cache_objects", "gauge",
            "Compiled .so objects in the native AOT cache");
  os << "domino_native_cache_objects " << stats.objects << '\n';
  help_line(os, "domino_native_cache_sources", "gauge",
            "Emitted .cc sources kept beside the objects");
  os << "domino_native_cache_sources " << stats.sources << '\n';
  help_line(os, "domino_native_cache_bytes", "gauge",
            "Total bytes the cache directory holds");
  os << "domino_native_cache_bytes " << stats.total_bytes << '\n';
}

void render_queue_metrics(std::ostream& os, const netsim::QueueDiscipline& q,
                          const std::string& name) {
  help_line(os, "domino_queue_offered_pkts_total", "counter",
            "Packets offered to the queue discipline");
  os << "domino_queue_offered_pkts_total{queue=\"" << name << "\"} "
     << q.offered_pkts() << '\n';
  help_line(os, "domino_queue_dropped_pkts_total", "counter",
            "Packets dropped (arrival rejections and evictions)");
  os << "domino_queue_dropped_pkts_total{queue=\"" << name << "\"} "
     << q.dropped_pkts() << '\n';
  help_line(os, "domino_queue_ecn_marked_pkts_total", "counter",
            "Packets ECN-marked on admit");
  os << "domino_queue_ecn_marked_pkts_total{queue=\"" << name << "\"} "
     << q.ecn_marked_pkts() << '\n';
  help_line(os, "domino_queue_offered_bytes_total", "counter",
            "Bytes offered to the queue discipline");
  os << "domino_queue_offered_bytes_total{queue=\"" << name << "\"} "
     << q.offered_bytes() << '\n';
  help_line(os, "domino_queue_dropped_bytes_total", "counter",
            "Bytes dropped (arrival rejections and evictions)");
  os << "domino_queue_dropped_bytes_total{queue=\"" << name << "\"} "
     << q.dropped_bytes() << '\n';
}

void MetricsEndpoint::add_source(std::function<void(std::ostream&)> source) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::move(source));
}

std::string MetricsEndpoint::render() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& source : sources_) source(os);
  return os.str();
}

void MetricsEndpoint::start() {
  if (running_.load(std::memory_order_acquire)) return;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("MetricsEndpoint: socket: ") +
                             std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("MetricsEndpoint: bind: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  if (::listen(fd, 8) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("MetricsEndpoint: listen: ") +
                             std::strerror(err));
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  server_ = std::thread(&MetricsEndpoint::serve_loop, this);
}

void MetricsEndpoint::stop() {
  if (!running_.exchange(false)) return;
  // shutdown() unblocks the accept() the server thread is parked in; close
  // happens after the join so the fd cannot be recycled under the loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsEndpoint::serve_loop() {
  int accept_errors = 0;
  while (running_.load(std::memory_order_acquire)) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient failures (EMFILE under fd pressure, ENOMEM) must not kill
      // the endpoint: back off briefly and try again.  Only a persistent
      // error spin — the listener really is gone — exits the loop.
      if (++accept_errors > 64) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    accept_errors = 0;
    // Read whatever request line arrived (best effort; the page is the same
    // for every path) so the peer does not see a reset before the response.
    char buf[1024];
    (void)::recv(conn, buf, sizeof(buf), 0);
    const std::string body = render();
    std::ostringstream os;
    os << "HTTP/1.1 200 OK\r\n"
       << "Content-Type: text/plain; version=0.0.4\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    const std::string resp = os.str();
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n = ::send(conn, resp.data() + off, resp.size() - off,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      // A signal mid-write is not a failed scrape: retry.  Anything else
      // (reset, full buffer on a blocking socket gone bad) abandons this
      // client only — the serve loop itself survives abrupt peers.
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    ::close(conn);
  }
}

}  // namespace banzai
