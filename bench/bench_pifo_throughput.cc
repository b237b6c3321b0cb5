// Queue-discipline throughput: drop-tail FIFO vs PIFO (explicit ranks, STFQ
// ranks, two-level hierarchical ranks), plus the per-engine cost of the rank
// computation itself.
//
//   $ ./build/bench/bench_pifo_throughput [num_packets]
//
// Part 1 pushes the same Zipf-skewed overload trace through one bottleneck
// port under each discipline and reports packets/sec of simulate_queue.  The
// FIFO row is the queue layer's floor (O(1) admits); "pifo-rank-field" adds
// the ordered buffer (O(log n) insert + eviction scan); "pifo-stfq" and
// "pifo-hsched" additionally run the compiled rank transaction on every
// arrival, so the deltas separate data-structure cost from machine cost.
//
// Part 2 isolates the rank machines: ranks/sec of each rank_corpus() program
// on each execution engine (kernel VM, native AOT when the host toolchain
// allows — otherwise the native column reports the kernel fallback, which is
// what a PifoQueue on that host would actually run).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/machine.h"
#include "bench_util.h"
#include "sim/queue.h"
#include "sim/rng.h"
#include "sim/sched.h"
#include "sim/tracegen.h"
#include "sim/zipf.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

netsim::QueueConfig bottleneck_config() {
  netsim::QueueConfig cfg;
  cfg.bytes_per_tick = 500;     // ~6x overloaded by the trace below
  cfg.capacity_bytes = 20000;
  return cfg;
}

// Zipf-skewed constant-rate overload: 3 full-size packets per tick against
// the 500 B/tick bottleneck, the fairness scenario's traffic shape.
std::vector<netsim::TracePacket> make_trace(long packets) {
  netsim::Zipf zipf(64, 1.0);
  netsim::Xoshiro256 rng(42);
  std::vector<netsim::TracePacket> trace;
  trace.reserve(static_cast<std::size_t>(packets));
  for (long i = 0; i < packets; ++i) {
    netsim::TracePacket p;
    p.arrival = i / 3;
    p.flow_id = static_cast<std::int32_t>(zipf.sample(rng));
    p.size_bytes = 1000;
    trace.push_back(p);
  }
  return trace;
}

struct Row {
  std::string name;
  long packets = 0;
  std::int64_t dropped = 0;
  double secs = 0;
};

Row run_discipline(const std::string& name, netsim::QueueDiscipline& q,
                   const std::vector<netsim::TracePacket>& trace) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto samples = netsim::simulate_queue(trace, q);
  Row r;
  r.name = name;
  r.secs = seconds_since(t0);
  r.packets = static_cast<long>(samples.size());
  for (const auto& s : samples) r.dropped += s.dropped ? 1 : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  long requested = 200000;
  if (argc > 1) {
    requested = std::atol(argv[1]);
    if (requested <= 0) {
      std::fprintf(stderr, "usage: %s [num_packets > 0]\n", argv[0]);
      return 2;
    }
  }
  const std::vector<netsim::TracePacket> trace = make_trace(requested);

  bench_util::header("Discipline throughput, one bottleneck port (" +
                     std::to_string(requested) + " pkts)");
  const std::vector<int> w = {16, 10, 10, 12};
  bench_util::print_rule(w);
  bench_util::print_row(w, {"discipline", "pkts", "dropped", "pkts/sec"});
  bench_util::print_rule(w);

  std::vector<Row> rows;
  {
    netsim::ByteQueue q(bottleneck_config());
    rows.push_back(run_discipline("fifo", q, trace));
  }
  {
    // Rank taken verbatim from QueueItem::rank (simulate_queue passes 0, so
    // this measures the ordered buffer alone).
    netsim::PifoQueue q(bottleneck_config());
    rows.push_back(run_discipline("pifo-rank-field", q, trace));
  }
  {
    netsim::PifoQueue q(bottleneck_config(),
                        netsim::compile_rank_machine("stfq"));
    rows.push_back(run_discipline("pifo-stfq", q, trace));
  }
  {
    netsim::PifoQueue q(bottleneck_config(),
                        netsim::compile_rank_machine("hsched"));
    rows.push_back(run_discipline("pifo-hsched", q, trace));
  }
  for (const auto& r : rows) {
    bench_util::print_row(
        w, {r.name, std::to_string(r.packets), std::to_string(r.dropped),
            bench_util::fmt(r.packets / r.secs, 0)});
  }
  bench_util::print_rule(w);

  bench_util::header("Rank-machine overhead per engine (ranks/sec)");
  const std::vector<int> w2 = {14, 14, 14};
  bench_util::print_rule(w2);
  bench_util::print_row(w2, {"program", "kernel", "native"});
  bench_util::print_rule(w2);
  const long rank_calls = std::max(10000L, requested);
  for (const auto& alg : algorithms::rank_corpus()) {
    std::vector<std::string> cells = {alg.name};
    for (const auto engine :
         {banzai::ExecEngine::kKernel, banzai::ExecEngine::kNative}) {
      netsim::RankMachine rm = netsim::compile_rank_machine(alg.name, engine);
      const auto t0 = std::chrono::steady_clock::now();
      banzai::Value sink = 0;
      for (long i = 0; i < rank_calls; ++i) {
        netsim::QueueItem item;
        item.flow_id = static_cast<std::int32_t>(i % 64);
        item.tenant_id = static_cast<std::int32_t>(i % 8);
        item.size_bytes = 1000;
        netsim::RankFeedback fb;
        fb.vt = (i / 3) * 333;
        sink ^= rm.rank(i, fb, item);
      }
      const double secs = seconds_since(t0);
      if (sink == 0x5eed) std::printf(" ");  // defeat dead-code elimination
      cells.push_back(bench_util::fmt(rank_calls / secs, 0));
    }
    bench_util::print_row(w2, cells);
  }
  bench_util::print_rule(w2);
  return 0;
}
