#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "algorithms/corpus.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.voluntary = static_cast<double>(ru.ru_nvcsw);
  u.involuntary = static_cast<double>(ru.ru_nivcsw);
  return u;
}

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (auto& x : f)
    if (!(in >> x)) return 0;
  return f[7];  // user nice system idle iowait irq softirq steal
}

double proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':')
      return std::atof(line.c_str() + n + 1);
  return 0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void Phase::start() {
  steal0_ = steal_ticks();
  open_items0_ = items;
  open_latency0_ = latency_us.size();
  resume();
}

void Phase::resume() {
  seg_u0_ = usage_now();
  seg_t0_ = now_ns();
}

void Phase::pause() { fold(); }

void Phase::finish() {
  fold();
  close_window();
  steal = steal_ticks() - steal0_;
}

void Phase::fold() {
  const double s = static_cast<double>(now_ns() - seg_t0_) * 1e-9;
  const Usage u = usage_now() - seg_u0_;
  open_.seconds += s;
  open_.cpu_s += u.cpu_s;
  seconds += s;
  usage += u;
}

void Phase::close_window() {
  const std::vector<double> lat(latency_us.begin() + open_latency0_,
                                latency_us.end());
  if (lat.size() >= kWindowRequests) {
    open_.items = items - open_items0_;
    open_.p50_us = quantile(lat, 0.50);
    open_.p90_us = quantile(lat, 0.90);
    windows.push_back(open_);
  }
  open_ = Window{};
  open_items0_ = items;
  open_latency0_ = latency_us.size();
}

void Phase::tick() {
  if (latency_us.size() - open_latency0_ < kWindowRequests ||
      open_.seconds + static_cast<double>(now_ns() - seg_t0_) * 1e-9 <
          kWindowSeconds)
    return;
  fold();
  close_window();
  resume();
}

double Phase::elapsed() const {
  return seconds + static_cast<double>(now_ns() - seg_t0_) * 1e-9;
}

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!on_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, request, parent, now_ns(), 0, 1});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int span, std::uint64_t items) {
  if (span < 0) return;
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  s.items = items;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t request, std::int64_t start,
                 std::int64_t end, std::uint64_t items) {
  if (!on_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, request, parent, start, end, items});
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

double Tracer::total_us(const char* name) const {
  double t = 0;
  for (double d : durations_us(name)) t += d;
  return t;
}

std::uint64_t Tracer::total_items(const char* name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) n += s.items;
  return n;
}

std::map<std::string, Tracer::Row> Tracer::self_times() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-3;
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_us += d;
    r.self_us += d - child_us[i];
  }
  return rows;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%llu,\"items\":%llu}}\n",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.items));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const auto names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"synthesis.codegen_us", "us"},
        {"synthesis.candidates", "count"},
        {"synthesis.target_rejects", "count"},
        {"core.parse_us", "us"},
        {"core.normalize_us", "us"},
        {"core.schedule_us", "us"},
        {"core.compile_us", "us"},
        {"core.emit_us", "us"},
    };
    for (const auto& a : algorithms::corpus())
      v.push_back({"core.compile_" + a.name + "_us", "us"});
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"banzai.native_load_us", "us"},
        {"banzai.service_start_us", "us"},
        {"banzai.engine_ns", "ns"},
        {"banzai.ingest_frame_ns", "ns"},
        {"banzai.drain_ns", "ns"},
        {"banzai.flush_us", "us"},
        {"banzai.queue_p50_ticks", "ticks"},
        {"banzai.vcsw_per_kframe", "1/kframe"},
        {"wire.parse_ns", "ns"},
        {"wire.deparse_ns", "ns"},
        {"wire.reject_ns", "ns"},
        {"wire.rejects_truncated", "count"},
        {"wire.rejects_oversized", "count"},
        {"wire.rejects_bad_value", "count"},
        {"dist.connect_us", "us"},
        {"dist.rpc_rtt_us", "us"},
        {"dist.rpcs_per_kframe", "1/kframe"},
        {"dist.offer_us", "us"},
        {"dist.flush_us", "us"},
        {"dist.drain_ns", "ns"},
        {"dist.send_ratio", "ratio"},
        {"dist.retries", "count"},
        {"dist.egress_duplicates", "count"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

}  // namespace perfbench
