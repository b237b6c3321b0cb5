// Shared plumbing for the perfbench harness: options, clocks, order
// statistics, process counters read from getrusage and /proc, the input
// hash, and the span recorder behind the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;     // Chrome trace-event file written by traced runs
  std::string scratch;       // per-run directory for native-code caches
  bool corrupt_egress = false;  // test hook: flip one egress byte
  bool cold_pass = false;       // child mode: one cold corpus pass
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// CPU time and context switches of the whole process (all threads).
struct Usage {
  double cpu_s = 0;
  double voluntary = 0;
  double involuntary = 0;
};
Usage usage_now();
inline Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_s - b.cpu_s, a.voluntary - b.voluntary,
          a.involuntary - b.involuntary};
}
inline Usage& operator+=(Usage& a, const Usage& b) {
  a.cpu_s += b.cpu_s;
  a.voluntary += b.voluntary;
  a.involuntary += b.involuntary;
  return a;
}

// Steal ticks summed over all CPUs (/proc/stat), 0 when unreadable.
std::uint64_t steal_ticks();
// A "VmRSS"/"VmHWM"-style field of /proc/self/status, in KiB.
double proc_status_kb(const char* key);
// Resets VmHWM to the current RSS (/proc/self/clear_refs); false if refused.
bool reset_peak_rss();

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvBasis);

// One timed phase of a workload: the items it completed, the request
// latencies, and what the process spent doing it, also per window of at
// least kWindowSeconds and kWindowRequests requests.  The end-to-end figures
// are medians over windows, so a disturbed stretch of a run, or a stall in
// the tail of a few requests, moves them little.
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kWindowRequests = 10;

struct Phase {
  struct Window {
    double seconds = 0;
    std::uint64_t items = 0;
    double cpu_s = 0;
    double p50_us = 0;
    double p90_us = 0;
  };

  std::uint64_t items = 0;
  std::uint64_t failed = 0;  // items whose outcome differs from the reference
  double seconds = 0;        // timed wall-clock time
  std::vector<double> latency_us;
  std::vector<Window> windows;  // those with at least kWindowRequests
  Usage usage;
  std::uint64_t steal = 0;

  // The clock runs between start()/resume() and pause()/finish(); work done
  // while paused (a reference pass) is outside the phase, and a window may
  // span a pause.
  void start();
  void pause();
  void resume();
  void finish();
  // Closes the open window once it is long enough.
  void tick();
  // Timed seconds so far.
  double elapsed() const;

 private:
  void fold();          // adds the running segment to the open window
  void close_window();

  Window open_;
  std::uint64_t open_items0_ = 0;
  std::size_t open_latency0_ = 0;
  std::int64_t seg_t0_ = 0;
  Usage seg_u0_;
  std::uint64_t steal0_ = 0;
};

// Spans recorded in memory by the traced run and written at exit as Chrome
// trace-event JSON.  Per-frame calls are folded by the callers into one span
// per burst, so the span count stays proportional to requests.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t request;  // burst or program id shared by the request
    std::int32_t parent;    // index of the enclosing span, -1 for roots
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t items;    // calls folded into this span
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  // Opens a span under the innermost open one; -1 when tracing is off.
  int begin(const char* name, std::uint64_t request);
  void end(int span, std::uint64_t items = 1);
  // Records a closed span under the innermost open one.
  void add(const char* name, std::uint64_t request, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t items = 1);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (us) of every span with this name.
  std::vector<double> durations_us(const char* name) const;
  double total_us(const char* name) const;
  std::uint64_t total_items(const char* name) const;
  // Per name: count, total and self time (duration minus the time direct
  // children cover), in us.
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Row> self_times() const;
  bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Closes a span when the scope ends, also when a compile throws.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t request)
      : t_(t), span_(t.begin(name, request)) {}
  ~ScopedSpan() { t_.end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int span_;
};

// The per-layer metric names every traced run prints, in BENCHMARK.json
// order; a workload leaves the layers it never calls at 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
