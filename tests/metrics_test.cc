// The observability layer: unit tests for the stats primitives (always on),
// emission hygiene for the counter flag (the default native artifact must be
// byte-identical with the flag off), the Prometheus renderers and the TCP
// endpoint — and, in -DDOMINO_STAGE_COUNTERS builds, the metrics-exactness
// suite: per-stage packet counters from the threaded FleetService equal a
// sequential Machine::process reference exactly, on all three engines, plus
// the sum-over-stages invariant (stage 0 packets == ingested − dropped).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "banzai/metrics.h"
#include "banzai/service.h"
#include "banzai/stats.h"
#include "core/emit.h"
#include "sim/queue.h"
#include "test_util.h"

namespace {

using algorithms::AlgorithmInfo;
using banzai::Backpressure;
using banzai::ExecEngine;
using banzai::FieldId;
using banzai::FleetService;
using banzai::LatencyHistogram;
using banzai::Machine;
using banzai::Packet;
using banzai::ServiceConfig;
using banzai::ServiceStats;
using banzai::SpaceSaving;
using banzai::StageCounterRow;
using banzai::StageCounters;

// ---------------------------------------------------------------------------
// Stats primitives (independent of the build flag).
// ---------------------------------------------------------------------------

TEST(StageCountersTest, PrepareAddRowMergeReset) {
  StageCounters c;
  EXPECT_TRUE(c.empty());
  c.prepare(3);
  EXPECT_EQ(c.stages(), 3u);
  c.prepare(2);  // never shrinks
  EXPECT_EQ(c.stages(), 3u);

  c.add(0, 10, 40, 1000);
  c.add(0, 5, 20, 500);
  c.add(2, 1, 2, 3);
  EXPECT_EQ(c.row(0).packets, 15u);
  EXPECT_EQ(c.row(0).ops, 60u);
  EXPECT_EQ(c.row(0).ns, 1500u);
  EXPECT_EQ(c.row(1).packets, 0u);
  EXPECT_EQ(c.row(2).packets, 1u);

  // merge_into grows the target and accumulates.
  std::vector<StageCounterRow> rows;
  c.merge_into(rows);
  c.merge_into(rows);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].packets, 30u);
  EXPECT_EQ(rows[2].ops, 4u);

  c.reset();
  EXPECT_EQ(c.stages(), 3u);  // reset zeroes, keeps the shape
  EXPECT_EQ(c.row(0).packets, 0u);
}

TEST(LatencyHistogramTest, BucketsAndQuantileEdges) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(LatencyHistogram::bucket_edge(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_edge(3), 7u);
  EXPECT_EQ(LatencyHistogram::bucket_edge(64), ~std::uint64_t{0});

  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  std::uint64_t counts[LatencyHistogram::kBuckets] = {};
  std::uint64_t total = 0;
  h.merge_into(counts, total);
  ASSERT_EQ(total, 100u);

  // The quantile is the containing bucket's upper edge: a conservative
  // estimate, at most 2x above the true quantile value.
  const std::uint64_t p50 = banzai::histogram_quantile(counts, total, 0.5);
  const std::uint64_t p99 = banzai::histogram_quantile(counts, total, 0.99);
  EXPECT_GE(p50, 49u);
  EXPECT_LE(p50, 2 * 50u);
  EXPECT_GE(p99, 98u);
  EXPECT_LE(p99, 2 * 99u);

  // Empty histogram: 0, not a crash.
  std::uint64_t zero_counts[LatencyHistogram::kBuckets] = {};
  EXPECT_EQ(banzai::histogram_quantile(zero_counts, 0, 0.99), 0u);
}

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving ss(8);
  for (int i = 0; i < 5; ++i)
    for (int rep = 0; rep <= i; ++rep) ss.offer(100 + i);
  const auto top = ss.top(10);
  ASSERT_EQ(top.size(), 5u);
  // Descending by count; all exact (error 0) because nothing was evicted.
  EXPECT_EQ(top[0].key, 104u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[4].key, 100u);
  EXPECT_EQ(top[4].count, 1u);
  EXPECT_EQ(ss.offered(), 1u + 2 + 3 + 4 + 5);
}

TEST(SpaceSavingTest, OverestimateBoundHoldsUnderEviction) {
  // Heavy flows plus a churn of singletons that forces evictions; every
  // entry must satisfy count - error <= true count <= count.
  SpaceSaving ss(8);
  std::map<std::uint64_t, std::uint64_t> truth;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t key;
    if (i % 3 != 0)
      key = rng() % 4;         // 4 heavy flows
    else
      key = 1000 + rng() % 500;  // long tail
    ++truth[key];
    ss.offer(key);
  }
  for (const auto& h : ss.top(8)) {
    const std::uint64_t real = truth.count(h.key) ? truth[h.key] : 0;
    EXPECT_LE(real, h.count) << "key " << h.key;
    EXPECT_GE(real + h.error, h.count) << "key " << h.key;
  }
  // The 4 heavy flows each exceed N/capacity, so space-saving guarantees
  // their presence.
  const auto top = ss.top(8);
  for (std::uint64_t heavy = 0; heavy < 4; ++heavy) {
    bool present = false;
    for (const auto& h : top) present |= h.key == heavy;
    EXPECT_TRUE(present) << "heavy flow " << heavy << " evicted";
  }
}

// ---------------------------------------------------------------------------
// Emission hygiene: the counter flag must not perturb the default artifact.
// ---------------------------------------------------------------------------

TEST(CounterEmissionTest, DefaultEmissionCarriesNoCounterCode) {
  auto compiled =
      domino::compile(algorithms::algorithm("flowlets").source,
                      *test_util::least_target(
                          algorithms::algorithm("flowlets").source));
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);

  // Byte determinism of the default form (the content-hash cache key), and
  // no trace of the counter machinery in it.
  const std::string plain = domino::emit_native_cc(*kernel);
  EXPECT_EQ(plain, domino::emit_native_cc(*kernel));
  EXPECT_EQ(plain.find("DominoStageCounterRow"), std::string::npos);
  EXPECT_EQ(plain.find("domino_now_ns"), std::string::npos);
  EXPECT_EQ(plain.find("stage_counters"), std::string::npos);

  // An explicit default-options call is the same bytes.
  domino::NativeEmitOptions defaults;
  EXPECT_EQ(plain, domino::emit_native_cc(*kernel, defaults));

  // The counted form carries the extended ABI and the per-stage updates —
  // and is itself deterministic.
  domino::NativeEmitOptions counted;
  counted.stage_counters = true;
  const std::string with = domino::emit_native_cc(*kernel, counted);
  EXPECT_EQ(with, domino::emit_native_cc(*kernel, counted));
  EXPECT_NE(with.find("DominoStageCounterRow"), std::string::npos);
  EXPECT_NE(with.find("domino_now_ns"), std::string::npos);
  EXPECT_NE(with, plain);
}

// ---------------------------------------------------------------------------
// Metrics-exactness differential (DOMINO_STAGE_COUNTERS builds).
// ---------------------------------------------------------------------------

std::vector<std::string> mappable_corpus() {
  std::vector<std::string> names;
  for (const auto& alg : algorithms::corpus())
    if (alg.paper_least_atom != "Doesn't map") names.push_back(alg.name);
  return names;
}

std::vector<Packet> corpus_trace(const AlgorithmInfo& alg, const Machine& m,
                                 int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Packet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(m.fields().size());
    for (const auto& [k, v] : f)
      if (m.fields().try_id_of(k).has_value()) p.set(m.fields().id_of(k), v);
    out.push_back(std::move(p));
  }
  return out;
}

class MetricsExactnessTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (!Machine::stage_counters_enabled())
      GTEST_SKIP() << "build without -DDOMINO_STAGE_COUNTERS";
  }
};

// Sequential Machine::process on each engine: every packet traverses every
// stage exactly once, so packets[s] == trace size for all s, and the kernel
// and native engines agree on ops (micro-ops retired per stage).
TEST_P(MetricsExactnessTest, SequentialCountersExactPerEngine) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  const auto target = *test_util::least_target(alg.source);
  constexpr int kPackets = 600;

  std::vector<StageCounterRow> kernel_rows;
  for (ExecEngine engine : {ExecEngine::kKernel, ExecEngine::kNative}) {
    domino::CompileOptions opts;
    opts.engine = engine;
    auto compiled = domino::compile(alg.source, target, opts);
    Machine& m = compiled.machine();
    if (engine == ExecEngine::kNative && m.native() == nullptr)
      continue;  // no host toolchain: the ladder already degrades to kKernel
    const auto trace = corpus_trace(alg, m, kPackets, 11);
    m.prepare_stage_counters();
    for (const Packet& p : trace) m.process(p);

    const auto rows = m.stage_counters().rows();
    ASSERT_EQ(rows.size(), m.num_stages());
    for (std::size_t s = 0; s < rows.size(); ++s) {
      EXPECT_EQ(rows[s].packets, static_cast<std::uint64_t>(kPackets))
          << "engine " << static_cast<int>(engine) << " stage " << s;
      if (m.num_stages() > 0) {
        EXPECT_GT(rows[s].ops, 0u);
      }
    }
    if (engine == ExecEngine::kKernel) kernel_rows = rows;
    if (engine == ExecEngine::kNative && !kernel_rows.empty()) {
      for (std::size_t s = 0; s < rows.size(); ++s)
        EXPECT_EQ(rows[s].ops, kernel_rows[s].ops)
            << "native and kernel disagree on micro-ops at stage " << s;
    }
  }
}

// The threaded service's aggregated per-stage packet counters equal the
// sequential count exactly — worker parallelism, batching and the ordered
// egress must not lose or double-count a single stage traversal.
TEST_P(MetricsExactnessTest, ServiceCountersEqualSequentialExactly) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  const auto target = *test_util::least_target(alg.source);
  auto compiled = domino::compile(alg.source, target);
  const Machine& proto = compiled.machine();
  const FieldId flow_field = proto.fields().id_of(alg.input_fields[0]);
  const auto trace = corpus_trace(alg, proto, 1200, 23);

  ServiceConfig cfg;
  cfg.num_shards = 4;
  cfg.num_slots = 8;
  cfg.batch_size = 32;
  cfg.ring_capacity = 256;
  cfg.backpressure = Backpressure::kBlock;
  cfg.flow_key = {flow_field};

  FleetService svc(proto, cfg);
  svc.start();
  ASSERT_EQ(svc.ingest_all(trace), trace.size());
  svc.flush();
  svc.stop();

  const ServiceStats st = svc.stats();
  ASSERT_EQ(st.stage_counters.size(), proto.num_stages());
  for (std::size_t s = 0; s < st.stage_counters.size(); ++s)
    EXPECT_EQ(st.stage_counters[s].packets, trace.size()) << "stage " << s;
  // Sum-over-stages invariant under lossless backpressure.
  EXPECT_EQ(st.stage_counters.empty() ? 0 : st.stage_counters[0].packets,
            st.ingested - st.dropped);
}

// Under DropTail the invariant is stage0 == ingested - dropped: exactly the
// accepted packets reach the pipeline, shed ones leave no counter trace.
TEST_P(MetricsExactnessTest, DropTailStageZeroEqualsIngestedMinusDropped) {
  const AlgorithmInfo& alg = algorithms::algorithm(GetParam());
  const auto target = *test_util::least_target(alg.source);
  auto compiled = domino::compile(alg.source, target);
  const Machine& proto = compiled.machine();
  const FieldId flow_field = proto.fields().id_of(alg.input_fields[0]);
  const auto trace = corpus_trace(alg, proto, 4000, 29);

  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = 4;
  cfg.batch_size = 8;
  cfg.ring_capacity = 16;  // tiny rings: force sheds
  cfg.backpressure = Backpressure::kDropTail;
  cfg.flow_key = {flow_field};

  FleetService svc(proto, cfg);
  svc.start();
  for (const Packet& p : trace) svc.ingest(p);
  svc.flush();
  svc.stop();

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.ingested, trace.size());
  EXPECT_EQ(st.delivered + st.dropped, st.ingested);
  ASSERT_FALSE(st.stage_counters.empty());
  for (std::size_t s = 0; s < st.stage_counters.size(); ++s)
    EXPECT_EQ(st.stage_counters[s].packets, st.ingested - st.dropped)
        << "stage " << s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, MetricsExactnessTest,
                         ::testing::ValuesIn(mappable_corpus()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Prometheus rendering and the TCP endpoint.
// ---------------------------------------------------------------------------

TEST(MetricsRenderTest, ServicePageCarriesEveryFamily) {
  ServiceStats st;
  st.ingested = 100;
  st.delivered = 90;
  st.dropped = 10;
  st.packets_per_sec = 12345.5;
  st.latency_p50_ticks = 7;
  st.latency_p99_ticks = 63;
  st.queue_depth = {3, 0};
  st.wire.frames_parsed = 80;
  st.wire.frames_rejected = 5;
  st.wire.reject_truncated = 5;
  st.stage_counters = {{100, 400, 5000}, {100, 200, 2500}};

  std::ostringstream os;
  banzai::render_service_metrics(os, st);
  const std::string page = os.str();
  EXPECT_NE(page.find("domino_service_ingested_total 100\n"),
            std::string::npos);
  EXPECT_NE(page.find("domino_service_dropped_total 10\n"), std::string::npos);
  EXPECT_NE(page.find("domino_service_latency_ticks{quantile=\"0.99\"} 63"),
            std::string::npos);
  EXPECT_NE(page.find("domino_service_queue_depth{shard=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(page.find(
                "domino_wire_frames_rejected_total{reason=\"truncated\"} 5"),
            std::string::npos);
  EXPECT_NE(page.find("domino_stage_packets_total{stage=\"1\"} 100"),
            std::string::npos);
  EXPECT_NE(page.find("domino_stage_ops_total{stage=\"0\"} 400"),
            std::string::npos);
  // HELP/TYPE discipline: every family is typed.
  EXPECT_NE(page.find("# TYPE domino_service_ingested_total counter"),
            std::string::npos);
}

TEST(MetricsRenderTest, HeavyHittersAndQueuesAndCache) {
  std::ostringstream os;
  banzai::render_heavy_hitters(os, {{0xabcdULL, 42, 3}});
  EXPECT_NE(os.str().find(
                "domino_heavy_hitter_count{flow=\"000000000000abcd\"} 42"),
            std::string::npos);
  EXPECT_NE(os.str().find(
                "domino_heavy_hitter_error{flow=\"000000000000abcd\"} 3"),
            std::string::npos);

  netsim::QueueConfig qc;
  qc.bytes_per_tick = 100;
  qc.capacity_bytes = 500;
  netsim::ByteQueue q(qc);
  q.offer(0, 200);
  q.offer(0, 200);
  q.offer(0, 200);  // over capacity: dropped
  std::ostringstream qs;
  banzai::render_queue_metrics(qs, q, "port0");
  EXPECT_NE(qs.str().find("domino_queue_offered_pkts_total{queue=\"port0\"} 3"),
            std::string::npos);
  EXPECT_NE(qs.str().find("domino_queue_dropped_pkts_total{queue=\"port0\"} 1"),
            std::string::npos);

  banzai::NativeCacheStats cs;
  cs.dir = "/tmp/x";
  cs.objects = 2;
  cs.sources = 2;
  cs.total_bytes = 4096;
  std::ostringstream ns;
  banzai::render_native_cache_metrics(ns, cs);
  EXPECT_NE(ns.str().find("domino_native_cache_objects 2"), std::string::npos);
  EXPECT_NE(ns.str().find("domino_native_cache_bytes 4096"),
            std::string::npos);
}

std::string http_get(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, req, sizeof(req) - 1, 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(MetricsEndpointTest, ServesRegisteredSourcesOverTcp) {
  banzai::MetricsEndpoint endpoint;  // ephemeral port
  ServiceStats st;
  st.ingested = 7;
  endpoint.add_source(
      [st](std::ostream& os) { banzai::render_service_metrics(os, st); });
  ASSERT_EQ(endpoint.port(), 0u);
  endpoint.start();
  ASSERT_TRUE(endpoint.running());
  ASSERT_NE(endpoint.port(), 0u);

  // render() is exactly the page the listener serves.
  const std::string body = endpoint.render();
  EXPECT_NE(body.find("domino_service_ingested_total 7\n"), std::string::npos);

  for (int round = 0; round < 3; ++round) {
    const std::string resp = http_get(endpoint.port());
    ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    ASSERT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
    ASSERT_NE(resp.find(body), std::string::npos);
  }

  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
  // stop() is idempotent and the port refuses connections afterwards.
  endpoint.stop();
  EXPECT_EQ(http_get(endpoint.port()).find("200 OK"), std::string::npos);
}

// The hardening contract: clients that connect and vanish — some with an RST
// in flight — must cost the endpoint nothing.  The page is made big enough
// that the send loop has to survive partial writes AND a reset mid-response,
// and a well-behaved scrape afterwards still gets the whole body.
TEST(MetricsEndpointTest, SurvivesAbruptClientsAndKeepsServing) {
  banzai::MetricsEndpoint endpoint;
  const std::string filler(1 << 20, 'x');
  endpoint.add_source(
      [&](std::ostream& os) { os << "# filler\n" << filler << '\n'; });
  endpoint.start();

  for (int round = 0; round < 8; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(endpoint.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    if (round % 2 == 0) {
      // SO_LINGER(0): close() sends RST, so the server's in-flight send()
      // sees ECONNRESET instead of a graceful FIN.
      linger lg{};
      lg.l_onoff = 1;
      lg.l_linger = 0;
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(fd);  // never sends a request, never reads the response
  }

  const std::string resp = http_get(endpoint.port());
  ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find(filler), std::string::npos)
      << "a full scrape must still work after the abrupt clients";
  endpoint.stop();
}

}  // namespace
