// Seeded fault injection against the distributed fleet (src/dist/): a worker
// killed mid-burst with organic failure detection (no harness hints), a
// stalling worker driving the timeout -> retry -> duplicate-ack path, a
// reconnect storm with kill/restart/readmit cycles, duplicated batches —
// every schedule seeded and count-driven so a failure replays exactly.  The
// acceptance bar throughout: cluster egress bit-exact against ONE sequential
// per-slot reference, with exact delivered + dropped + retried accounting,
// and the fault counters visible on a live /metrics endpoint.
//
// The file matches the CMake `chaos` -> stress label regex: it runs in the
// stress lane and under TSan in CI, not in the default quick pass.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/machine.h"
#include "banzai/metrics.h"
#include "core/compiler.h"
#include "dist/front.h"
#include "dist/health.h"
#include "dist/metrics.h"
#include "dist/worker.h"
#include "sim/partition.h"
#include "test_util.h"
#include "wire/codec.h"

namespace {

using banzai::Packet;
using dist::FrontConfig;
using dist::FrontTier;
using dist::HealthState;
using dist::WorkerConfig;
using dist::WorkerServer;
using wire::WireCodec;
using wire::WireSpec;

constexpr std::size_t kSlots = 8;

struct ChaosKnobs {
  std::size_t n_workers = 4;
  std::uint64_t seed = 7;
  std::uint32_t dup_every = 0;
  std::uint32_t stall_every = 0;
  dist::Millis stall_for{0};
  dist::Millis rpc_timeout{2000};
  std::uint32_t dead_after = 2;
};

struct ChaosCluster {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::unique_ptr<FrontTier> front;
  std::vector<banzai::FieldId> flow_key;

  explicit ChaosCluster(const ChaosKnobs& k)
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};

    for (std::size_t w = 0; w < k.n_workers; ++w) {
      WorkerConfig wc;
      wc.algorithm = "flowlets";
      wc.num_slots = kSlots;
      wc.num_shards = 2;
      wc.batch_size = 32;
      wc.ring_capacity = 256;
      wc.flow_key = {"sport", "dport"};
      wc.stall_every = k.stall_every;
      wc.stall_for = k.stall_for;
      workers.push_back(std::make_unique<WorkerServer>(compiled.machine(), rx,
                                                       tx, wc));
      workers.back()->start();
    }

    FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = flow_key;
    fc.seed = k.seed;
    fc.dup_every = k.dup_every;
    fc.rpc_timeout = k.rpc_timeout;
    fc.backoff_base = dist::Millis(2);
    fc.backoff_max = dist::Millis(50);
    fc.max_batch = 16;
    fc.dead_after = k.dead_after;
    front = std::make_unique<FrontTier>(rx, fc);
    for (auto& w : workers) front->add_worker(w->port());
    front->connect();
  }

  ~ChaosCluster() {
    for (auto& w : workers) w->stop();
  }

  std::vector<std::vector<std::uint8_t>> sequential_reference(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    std::vector<banzai::Machine> slots;
    for (std::size_t v = 0; v < kSlots; ++v)
      slots.push_back(compiled.machine().clone());
    Packet scratch(compiled.machine().fields().size());
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& f : frames) {
      if (!rx->parse_exact(f.data(), f.size(), scratch).ok()) continue;
      std::uint64_t h = 0;
      for (banzai::FieldId fk : flow_key)
        h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(
                                      scratch.get(fk))));
      out.push_back(tx->deparse(slots[h % kSlots].process(scratch)));
    }
    return out;
  }

  std::vector<std::vector<std::uint8_t>> make_frames(std::size_t n,
                                                     unsigned rng_seed) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    std::mt19937 rng(rng_seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0; i < n; ++i) {
      std::map<std::string, banzai::Value> f;
      alg.workload(rng, static_cast<int>(i), f);
      Packet p(ft.size());
      for (const auto& [k, v] : f)
        if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
      frames.push_back(rx->deparse(p));
    }
    return frames;
  }
};

void expect_bit_exact(const std::vector<std::vector<std::uint8_t>>& got,
                      const std::vector<std::vector<std::uint8_t>>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

// The acceptance pin: kill 1 of 4 workers mid-burst with duplicated batches
// in the mix, let the failure detector find the corpse on its own, and
// require byte-identical egress plus exact accounting.
TEST(DistChaosTest, SeededKillOneOfFourMidBurstStaysBitExact) {
  ChaosKnobs k;
  k.n_workers = 4;
  k.seed = 7;
  k.dup_every = 5;
  k.rpc_timeout = dist::Millis(200);
  k.dead_after = 2;
  ChaosCluster c(k);

  auto frames = c.make_frames(1600, 97);
  // Dropped lane: malformed runts interleaved at a fixed cadence.
  const std::vector<std::uint8_t> runt = {0xD0};
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < frames.size(); i += 200) {
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i), runt);
    ++dropped;
  }
  const auto expected = c.sequential_reference(frames);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 400) c.front->checkpoint();
    // SIGKILL stand-in at a seeded instant: no evict() hint — the front must
    // discover the death through failed RPCs and migrate on its own.
    if (i == 800) c.workers[2]->kill();
    c.front->offer(frames[i]);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  expect_bit_exact(got, expected);

  const auto st = c.front->stats();
  // Exact accounting: every offered frame is either delivered or dropped.
  EXPECT_EQ(st.frames_offered, frames.size());
  EXPECT_EQ(st.egress_frames, expected.size());
  EXPECT_EQ(st.rejects, dropped);
  EXPECT_EQ(st.egress_frames + st.rejects, st.frames_offered);
  // frames_acked legitimately over-counts across a migration (the survivor
  // re-acks replayed frames as fresh applies); the exactly-once guarantee is
  // the egress identity above, enforced by the sequence window.
  EXPECT_GE(st.frames_acked + st.rejects, st.frames_offered);
  // Retried lane: the kill forced timeouts/errors, retries, and a migration.
  EXPECT_GT(st.retries, 0u);
  EXPECT_GE(st.migrations, 1u);
  EXPECT_GT(st.replays, 0u);
  EXPECT_GT(st.dup_acks, 0u) << "dup_every never fired";
  EXPECT_EQ(c.front->worker_view(2).health, HealthState::kDead);
  EXPECT_GE(c.front->worker_view(2).deaths, 1u);
  EXPECT_TRUE(c.front->settled());
}

// A worker that stalls past the RPC deadline without dying: the front must
// time out, reconnect, re-send, and absorb the duplicate acks — and the
// egress of the stalled (but applied) batch must survive the dropped reply.
// The connection dies, not the worker: the worker re-queues the egress of
// the reply the front never read, and the front's window may drop only
// records that came back that way.
TEST(DistChaosTest, StallingWorkerDrivesTimeoutRetryDedup) {
  ChaosKnobs k;
  k.n_workers = 2;
  k.seed = 11;
  k.stall_every = 7;
  k.stall_for = dist::Millis(400);
  k.rpc_timeout = dist::Millis(120);
  k.dead_after = 1000;  // stalls must never escalate to migration here
  ChaosCluster c(k);

  const auto frames = c.make_frames(400, 101);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  expect_bit_exact(c.front->drain_egress(), expected);

  const auto st = c.front->stats();
  EXPECT_GT(st.retries, 0u) << "the stall schedule never blew a deadline";
  EXPECT_GT(st.dup_acks, 0u)
      << "re-sent batches must hit the worker-side seq dedup";
  EXPECT_GT(st.reconnects, c.front->num_workers())
      << "timeouts must tear down and re-establish connections";
  std::uint64_t timeouts = 0;
  for (std::size_t w = 0; w < c.front->num_workers(); ++w)
    timeouts += c.front->worker_view(w).timeouts;
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(st.migrations, 0u);
  EXPECT_EQ(st.frames_acked + st.dup_acks, st.frames_sent);
  std::uint64_t redelivered = 0;
  for (const auto& w : c.workers) redelivered += w->stats().egress_redelivered;
  EXPECT_GT(redelivered, 0u)
      << "no stalled reply carried egress back over a new connection";
  EXPECT_LE(st.egress_duplicates, redelivered);
  EXPECT_TRUE(c.front->settled());
}

// A dropped ack for a batch CONTAINING REJECTS, re-sent after the timeout:
// the worker must re-answer the original reject verdicts even when later
// frames in the same slot already advanced its dedup watermark.  A blanket
// kDuplicate answer would never tombstone the rejected seqs, the egress
// window would never settle, and flush() would throw.
TEST(DistChaosTest, StalledBatchWithRejectsStillSettles) {
  ChaosKnobs k;
  k.n_workers = 1;
  k.seed = 19;
  k.stall_every = 3;
  k.stall_for = dist::Millis(400);
  k.rpc_timeout = dist::Millis(120);
  k.dead_after = 1000;  // stay on the timeout-retry path, never migrate
  ChaosCluster c(k);

  auto frames = c.make_frames(400, 109);
  // A runt every 5th frame: with max_batch = 16 nearly every batch carries a
  // reject, so the stall schedule is guaranteed to drop acks that contain
  // reject verdicts alongside accepted frames.
  const std::vector<std::uint8_t> runt = {0xD0};
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < frames.size(); i += 5) {
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i), runt);
    ++dropped;
  }
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  expect_bit_exact(c.front->drain_egress(), expected);

  const auto st = c.front->stats();
  EXPECT_GT(st.retries, 0u) << "the stall schedule never blew a deadline";
  EXPECT_GT(st.dup_acks, 0u)
      << "re-sent batches must hit the worker-side seq dedup";
  EXPECT_EQ(st.rejects, dropped);
  EXPECT_EQ(st.egress_frames + st.rejects, st.frames_offered);
  EXPECT_EQ(st.migrations, 0u);
  EXPECT_TRUE(c.front->settled());
}

// Kill/restart/readmit cycles: a worker dies, its slots migrate, the process
// comes back empty on the same port, rejoins through the recovering state,
// and is handed a slot back — repeatedly, without losing a byte.
TEST(DistChaosTest, ReconnectStormWithRestartsRecovers) {
  ChaosKnobs k;
  k.n_workers = 2;
  k.seed = 13;
  k.rpc_timeout = dist::Millis(200);
  k.dead_after = 2;
  ChaosCluster c(k);

  const auto frames = c.make_frames(900, 103);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % 300 == 100) {
      c.front->checkpoint();
      c.workers[1]->kill();
    }
    if (i % 300 == 200) {
      c.workers[1]->restart();
      ASSERT_TRUE(c.front->readmit(1));
      // Hand a slot back so the readmitted worker carries load again; the
      // snapshot-restore-replay arc runs against its pristine state.
      c.front->move_slot(1, 1);
    }
    c.front->offer(frames[i]);
  }
  c.front->flush();
  expect_bit_exact(c.front->drain_egress(), expected);

  const auto st = c.front->stats();
  EXPECT_GE(st.migrations, 3u);
  EXPECT_GE(st.slot_moves, 3u);
  const auto view = c.front->worker_view(1);
  EXPECT_GE(view.deaths, 3u);
  EXPECT_GE(view.recoveries, 1u) << "readmit never completed a recovery arc";
  EXPECT_NE(view.health, HealthState::kDead);
  EXPECT_TRUE(c.front->settled());
}

// ---- /metrics exposure of the fault counters -------------------------------

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

// Extracts the value of an unlabelled sample line ("name 42").
std::uint64_t sample_value(const std::string& page, const std::string& name) {
  std::istringstream is(page);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(name + " ", 0) == 0)
      return std::stoull(line.substr(name.size() + 1));
  ADD_FAILURE() << "metric " << name << " not found";
  return 0;
}

TEST(DistChaosTest, FaultCountersReachTheMetricsPage) {
  ChaosKnobs k;
  k.n_workers = 2;
  k.seed = 17;
  k.stall_every = 5;
  k.stall_for = dist::Millis(400);
  k.rpc_timeout = dist::Millis(120);
  k.dead_after = 1000;
  ChaosCluster c(k);

  banzai::MetricsEndpoint endpoint;
  endpoint.add_source([&](std::ostream& os) {
    dist::render_dist_metrics(os, *c.front);
  });
  endpoint.start();

  const auto frames = c.make_frames(300, 107);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  expect_bit_exact(c.front->drain_egress(), expected);

  const std::string page = http_get(endpoint.port());
  endpoint.stop();
  ASSERT_NE(page.find("200 OK"), std::string::npos);
  EXPECT_GT(sample_value(page, "domino_dist_retries_total"), 0u);
  EXPECT_GT(sample_value(page, "domino_dist_frames_offered_total"), 0u);
  EXPECT_GT(sample_value(page, "domino_dist_dup_acks_total"), 0u);
  // Frames per RPC and the resend buffer's footprint, from the same
  // snapshot the page was rendered from (the front is idle here).
  const dist::FrontStats st = c.front->stats();
  EXPECT_GT(st.ingest_batches, 0u);
  EXPECT_EQ(sample_value(page, "domino_dist_ingest_batches_total"),
            st.ingest_batches);
  EXPECT_GT(st.resend_frames, 0u);
  EXPECT_EQ(sample_value(page, "domino_dist_resend_frames"),
            st.resend_frames);
  EXPECT_GE(st.resend_bytes, st.resend_frames * c.rx->header_bytes());
  EXPECT_EQ(sample_value(page, "domino_dist_resend_bytes"), st.resend_bytes);
  // Per-worker families: the health gauge for every worker, and at least one
  // worker with a nonzero timeout counter.
  EXPECT_NE(page.find("domino_dist_worker_health{worker=\"0\"}"),
            std::string::npos);
  EXPECT_NE(page.find("domino_dist_worker_health{worker=\"1\"}"),
            std::string::npos);
  std::uint64_t timeouts = 0;
  for (const char* name : {"domino_dist_worker_timeouts_total{worker=\"0\"}",
                           "domino_dist_worker_timeouts_total{worker=\"1\"}"}) {
    const auto pos = page.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    timeouts += std::stoull(page.substr(pos + std::string(name).size() + 1));
  }
  EXPECT_GT(timeouts, 0u);
}

}  // namespace
