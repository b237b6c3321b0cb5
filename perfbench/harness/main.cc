// perfbench: one run of one workload.  Builds inputs and the reference,
// sets the system up several times (setup_s is the median), runs the timed
// phase untraced, and with --trace 1 a second, traced phase whose spans give
// the per-layer metrics.  Diagnostic lines start with '#'; the last line of
// stdout is the JSON result.  Exits nonzero when any output differs from the
// reference.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--trace-out <file>] [--corrupt-egress]
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"compile_corpus", "svc_flowlets_uniform",
                                  "svc_hh_zipf_hostile", "dist_flowlets_tcp"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--trace-out <file>] "
               "[--corrupt-egress]\nworkloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-egress") {
      opt.corrupt_egress = true;
    } else if (a == "--cold-pass") {
      opt.cold_pass = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--scratch") {
      opt.scratch = argv[++i];
    } else {
      return false;
    }
  }
  if (opt.cold_pass) return true;
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  return known && opt.seconds > 0 && !opt.scratch.empty();
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// The end-to-end metrics of one timed phase: medians over its windows, or
// the pooled figures of a phase too short to fill one window.
std::vector<Metric> end_to_end(const Phase& ph, double setup_s,
                               double peak_rss_mb) {
  const double items = static_cast<double>(ph.items);
  std::vector<double> rate{items / ph.seconds};
  std::vector<double> cpu{ph.usage.cpu_s * 1e6 / items};
  std::vector<double> p50{quantile(ph.latency_us, 0.50)};
  std::vector<double> p90{quantile(ph.latency_us, 0.90)};
  if (!ph.windows.empty()) {
    rate.clear();
    cpu.clear();
    p50.clear();
    p90.clear();
  }
  for (const auto& w : ph.windows) {
    rate.push_back(static_cast<double>(w.items) / w.seconds);
    cpu.push_back(w.cpu_s * 1e6 / static_cast<double>(w.items));
    p50.push_back(w.p50_us);
    p90.push_back(w.p90_us);
  }
  return {
      {"throughput_per_s", "1/s", median(rate)},
      {"latency_p50_us", "us", median(p50)},
      {"latency_p90_us", "us", median(p90)},
      {"cpu_us_per_item", "us", median(cpu)},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"match_rate", "ratio", (items - static_cast<double>(ph.failed)) / items},
  };
}

void print_phase(const char* label, const Phase& ph, const char* item) {
  std::printf(
      "# %s: %" PRIu64 " %ss in %.3f s, %zu windows; pooled: %.6g/s, %.6g "
      "cpu us each, %zu requests, p50 %.1f us, p90 %.1f us, p99 %.1f us "
      "(n=%zu); steal %" PRIu64 " ticks, involuntary switches %.0f, "
      "voluntary %.0f, error_rate %.3g (%" PRIu64 " of %" PRIu64 ")\n",
      label, ph.items, item, ph.seconds, ph.windows.size(),
      static_cast<double>(ph.items) / ph.seconds,
      ph.usage.cpu_s * 1e6 / static_cast<double>(ph.items),
      ph.latency_us.size(), quantile(ph.latency_us, 0.50),
      quantile(ph.latency_us, 0.90), quantile(ph.latency_us, 0.99),
      ph.latency_us.size(), ph.steal, ph.usage.involuntary,
      ph.usage.voluntary,
      static_cast<double>(ph.failed) / static_cast<double>(ph.items),
      ph.failed, ph.items);
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w;
  if (opt.workload == "compile_corpus")
    w = make_compile_corpus(opt);
  else if (opt.workload == "dist_flowlets_tcp")
    w = make_dist(opt);
  else
    w = make_service(opt, opt.workload == "svc_hh_zipf_hostile");
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  for (const auto& n : w->notes) std::printf("# %s\n", n.c_str());
  std::printf("# input_hash=%016" PRIx64 "\n", w->input_hash);

  // Peak RSS counts only what the system under test adds on top of the
  // benchmark's own inputs and reference, which exist by now.  Heap the
  // reference freed goes back to the kernel first, so the system under test
  // cannot reuse it unseen.
  malloc_trim(0);
  const bool hwm_reset = reset_peak_rss();
  const double base_kb = proc_status_kb("VmRSS");
  Tracer tr(opt.trace), off(false);
  std::vector<double> setup_s;
  for (int i = 0; i < w->setup_reps(); ++i) setup_s.push_back(w->setup(tr));
  std::printf("# setup_s reps:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const Phase ph = w->run(opt.seconds, off);
  const double peak_mb = (proc_status_kb("VmHWM") - base_kb) / 1024.0;
  if (!hwm_reset)
    std::printf("# VmHWM could not be reset: peak includes inputs\n");
  print_phase("untraced", ph, w->item_name());
  const auto e2e = end_to_end(ph, median(setup_s), peak_mb);

  std::uint64_t attempted = ph.items, failed = ph.failed;
  std::vector<Metric> metrics = e2e;
  if (opt.trace) {
    const Phase traced = w->run(opt.seconds, tr);
    print_phase("traced", traced, w->item_name());
    attempted += traced.items;
    failed += traced.failed;
    std::map<std::string, double> layers;
    w->layers(tr, traced, layers);
    const auto traced_e2e = end_to_end(traced, median(setup_s), peak_mb);
    std::printf("# %-18s %14s %14s %9s\n", "end-to-end", "untraced",
                "traced", "overhead");
    for (std::size_t i = 0; i < e2e.size(); ++i)
      std::printf("# %-18s %14.6g %14.6g %8.1f%%\n", e2e[i].name,
                  e2e[i].value, traced_e2e[i].value,
                  e2e[i].value != 0
                      ? (traced_e2e[i].value / e2e[i].value - 1) * 100
                      : 0.0);
    std::printf("# %-24s %9s %14s %14s\n", "span", "count", "total_us",
                "self_us");
    for (const auto& [name, row] : tr.self_times())
      std::printf("# %-24s %9" PRIu64 " %14.1f %14.1f\n", name.c_str(),
                  row.count, row.total_us, row.self_us);
    if (!opt.trace_out.empty()) {
      if (!tr.write_chrome(opt.trace_out))
        throw std::runtime_error("cannot write " + opt.trace_out);
      std::printf("# trace: %s (%zu spans)\n", opt.trace_out.c_str(),
                  tr.spans().size());
    }
    metrics.clear();
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = layers.find(name);
      metrics.push_back(
          {name.c_str(), unit.c_str(), it == layers.end() ? 0.0 : it->second});
    }
    for (const auto& [name, v] : layers)
      if (std::none_of(metrics.begin(), metrics.end(),
                       [&](const Metric& m) { return name == m.name; }))
        throw std::logic_error("unlisted per-layer metric " + name);
  }
  for (const auto& n : w->notes)
    if (n.rfind("WARNING", 0) == 0) std::printf("# %s\n", n.c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_args(argc, argv, opt)) return perfbench::usage();
  try {
    if (opt.cold_pass) return perfbench::cold_corpus_pass(opt);
    std::filesystem::create_directories(opt.scratch);
    const int rc = perfbench::run(opt);
    std::filesystem::remove_all(opt.scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(opt.scratch, ec);
    return 1;
  }
}
