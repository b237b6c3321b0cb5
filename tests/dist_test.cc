// The distributed fleet (src/dist/): framing round-trips and their paranoia,
// the reconnect backoff policy, the per-worker health state machine, and the
// end-to-end contracts — a worker cluster's egress is bit-exact against one
// sequential per-slot reference through batching, retries, duplicated
// batches, live slot rebalancing, engine hot-swap, and corrupt-restore
// rejection.  The seeded fault-injection schedules (kill mid-burst,
// reconnect storm) live in dist_chaos_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/machine.h"
#include "banzai/state.h"
#include "core/compiler.h"
#include "dist/framing.h"
#include "dist/front.h"
#include "dist/health.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "sim/partition.h"
#include "test_util.h"
#include "wire/codec.h"

namespace {

using banzai::Packet;
using dist::FailureDetector;
using dist::FramingError;
using dist::FrontConfig;
using dist::FrontTier;
using dist::HealthState;
using dist::MsgType;
using dist::WorkerConfig;
using dist::WorkerServer;
using wire::WireCodec;
using wire::WireSpec;

// ---- framing ---------------------------------------------------------------

TEST(DistFramingTest, HelloRoundTrips) {
  dist::Hello h;
  h.algorithm = "flowlets";
  h.num_slots = 16;
  h.header_bytes = 14;
  const auto bytes = dist::encode_hello(h);
  const dist::Hello back = dist::decode_hello(bytes.data(), bytes.size());
  EXPECT_EQ(back.version, dist::kProtocolVersion);
  EXPECT_EQ(back.algorithm, "flowlets");
  EXPECT_EQ(back.num_slots, 16u);
  EXPECT_EQ(back.header_bytes, 14u);
}

TEST(DistFramingTest, IngestBatchAndAckRoundTrip) {
  dist::IngestBatch b;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    dist::FrameRecord f;
    f.seq = i;
    f.slot = static_cast<std::uint32_t>(i % 2);
    f.bytes = {static_cast<std::uint8_t>(i), 0xAB};
    b.frames.push_back(std::move(f));
  }
  const auto eb = dist::encode_ingest_batch(b);
  const dist::IngestBatch bb = dist::decode_ingest_batch(eb.data(), eb.size());
  ASSERT_EQ(bb.frames.size(), 3u);
  EXPECT_EQ(bb.frames[2].seq, 3u);
  EXPECT_EQ(bb.frames[2].bytes, (std::vector<std::uint8_t>{3, 0xAB}));

  dist::IngestAck a;
  a.seqs = {1, 2, 3};
  a.statuses = {dist::FrameStatus::kAccepted, dist::FrameStatus::kDuplicate,
                dist::FrameStatus::kRejectTruncated};
  a.egress.push_back({7, {0xDE, 0xAD}});
  const auto ea = dist::encode_ingest_ack(a);
  const dist::IngestAck ab = dist::decode_ingest_ack(ea.data(), ea.size());
  ASSERT_EQ(ab.statuses.size(), 3u);
  EXPECT_EQ(ab.statuses[1], dist::FrameStatus::kDuplicate);
  ASSERT_EQ(ab.egress.size(), 1u);
  EXPECT_EQ(ab.egress[0].seq, 7u);
}

TEST(DistFramingTest, TruncatedAndTrailingBytesThrow) {
  dist::Hello h;
  h.algorithm = "x";
  const auto bytes = dist::encode_hello(h);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_THROW(dist::decode_hello(bytes.data(), cut), FramingError)
        << "cut at " << cut;
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(dist::decode_hello(trailing.data(), trailing.size()),
               FramingError);

  // An IngestBatch cut anywhere or with a byte too many throws, through
  // both decoders; so does a HelloAck cut inside its incarnation (v3).
  dist::IngestBatch b;
  b.frames.push_back({7, 1, {0xAA, 0xBB}});
  const auto batch = dist::encode_ingest_batch(b);
  for (std::size_t cut = 0; cut < batch.size(); ++cut) {
    EXPECT_THROW(dist::decode_ingest_batch(batch.data(), cut), FramingError)
        << "cut at " << cut;
    EXPECT_THROW(dist::view_ingest_batch(batch.data(), cut), FramingError)
        << "cut at " << cut;
  }
  auto long_batch = batch;
  long_batch.push_back(0);
  EXPECT_THROW(dist::decode_ingest_batch(long_batch.data(), long_batch.size()),
               FramingError);
  dist::HelloAck ack;
  ack.incarnation = 99;
  const auto ack_bytes = dist::encode_hello_ack(ack);
  for (std::size_t cut = 0; cut < ack_bytes.size(); ++cut)
    EXPECT_THROW(dist::decode_hello_ack(ack_bytes.data(), cut), FramingError)
        << "cut at " << cut;
  EXPECT_EQ(dist::decode_hello_ack(ack_bytes.data(), ack_bytes.size())
                .incarnation,
            99u);
}

// The worker reads batches in place and the front encodes them from views
// into its frame logs: both must agree byte for byte with the struct codec.
TEST(DistFramingTest, InPlaceBatchCodecsMatchTheStructCodec) {
  std::vector<dist::FrameRecord> records;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto fill = static_cast<std::uint8_t>(i);
    records.push_back({i, static_cast<std::uint32_t>(i % 3),
                       std::vector<std::uint8_t>(i, fill)});
  }
  dist::IngestBatch b;
  b.frames.assign(records.begin() + 1, records.begin() + 4);
  const auto from_struct = dist::encode_ingest_batch(b);
  std::vector<dist::FrameView> views;
  for (std::size_t i = 1; i < 4; ++i)
    views.push_back({records[i].seq, records[i].slot, records[i].bytes.data(),
                     records[i].bytes.size()});
  EXPECT_EQ(dist::encode_ingest_batch(views), from_struct);
  EXPECT_EQ(from_struct.size(),
            dist::kIngestHeadBytes + dist::ingest_record_bytes(2) +
                dist::ingest_record_bytes(3) + dist::ingest_record_bytes(4));

  const dist::IngestBatchView view =
      dist::view_ingest_batch(from_struct.data(), from_struct.size());
  ASSERT_EQ(view.frames.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const dist::FrameRecord& want = b.frames[i];
    EXPECT_EQ(view.frames[i].seq, want.seq);
    EXPECT_EQ(view.frames[i].slot, want.slot);
    EXPECT_EQ(std::vector<std::uint8_t>(view.frames[i].data,
                                        view.frames[i].data +
                                            view.frames[i].len),
              want.bytes);
  }

  // A frame count the payload cannot hold is refused before any reserve:
  // this one is under the count bound, and the payload holds no record.
  std::vector<std::uint8_t> liar;
  dist::Writer w(liar);
  w.u32(1u << 20);
  try {
    dist::view_ingest_batch(liar.data(), liar.size());
    ADD_FAILURE() << "a lying frame count was accepted";
  } catch (const FramingError& e) {
    EXPECT_EQ(std::string(e.what()), "frame count exceeds payload");
  }
}

// A checkpoint reply serialized straight from live stores is the same bytes
// as one built from per-slot blobs: the canonical format did not move.
TEST(DistFramingTest, SnapshotFromLiveStoresMatchesBlobEncoding) {
  banzai::StateStore a;
  a.declare("zeta", 5, false);
  a.declare("alpha", 1, true);
  a.var("alpha").store(0, -3);
  a.var("zeta").store(4, 0x7FFFFFFF);
  banzai::StateStore b;
  b.declare("only", 3, false);
  b.var("only").store(1, -1);

  const std::vector<dist::EgressRecord> egress = {{5, {1, 2, 3}}, {9, {}}};
  dist::SnapshotResp resp;
  resp.slots.push_back({3, 40, dist::serialize_state_store(a)});
  resp.slots.push_back({6, 41, dist::serialize_state_store(b)});
  resp.egress = egress;
  const std::vector<dist::SlotStateRef> refs = {{3, 40, &a}, {6, 41, &b}};
  const auto live = dist::encode_snapshot_resp(refs, egress);
  EXPECT_EQ(live, dist::encode_snapshot_resp(resp));

  const auto back = dist::decode_snapshot_resp(live.data(), live.size());
  ASSERT_EQ(back.slots.size(), 2u);
  const banzai::StateStore a2 = dist::deserialize_state_store(
      back.slots[0].state.data(), back.slots[0].state.size());
  EXPECT_EQ(a2, a);
  EXPECT_EQ(back.slots[1].applied_seq, 41u);
}

TEST(DistFramingTest, StateStoreSerializationIsCanonicalAndValidated) {
  banzai::StateStore s;
  s.declare("zeta", 4, false);
  s.declare("alpha", 1, true);
  s.var("alpha").store(0, 42);
  s.var("zeta").store(2, -7);
  const auto blob = dist::serialize_state_store(s);
  // Canonical: a same-content store built in another order emits the same
  // bytes, so migration tests can compare blobs directly.
  banzai::StateStore t;
  t.declare("alpha", 1, true);
  t.declare("zeta", 4, false);
  t.var("alpha").store(0, 42);
  t.var("zeta").store(2, -7);
  EXPECT_EQ(blob, dist::serialize_state_store(t));

  const banzai::StateStore back =
      dist::deserialize_state_store(blob.data(), blob.size());
  EXPECT_TRUE(back.same_shape(s));
  EXPECT_EQ(back.var("alpha").load(0), 42);
  EXPECT_EQ(back.var("zeta").load(2), -7);

  // Corruption must throw before any store is returned.
  for (std::size_t cut = 1; cut < blob.size(); ++cut)
    EXPECT_THROW(dist::deserialize_state_store(blob.data(), cut),
                 FramingError);
  auto trailing = blob;
  trailing.push_back(0xFF);
  EXPECT_THROW(
      dist::deserialize_state_store(trailing.data(), trailing.size()),
      FramingError);
}

TEST(DistFramingTest, StateStoreDecoderRejectsSemanticGarbage) {
  // scalar flagged with more than one cell
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(1);
    w.str("x");
    w.u8(1);   // scalar
    w.u32(2);  // ...with two cells
    w.u32(0);
    w.u32(0);
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
  // duplicate variable name
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(2);
    for (int i = 0; i < 2; ++i) {
      w.str("dup");
      w.u8(1);
      w.u32(1);
      w.u32(0);
    }
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
  // zero cells
  {
    std::vector<std::uint8_t> out;
    dist::Writer w(out);
    w.u32(1);
    w.str("x");
    w.u8(0);
    w.u32(0);
    EXPECT_THROW(dist::deserialize_state_store(out.data(), out.size()),
                 FramingError);
  }
}

// ---- frame log -------------------------------------------------------------

std::vector<std::uint8_t> log_view_bytes(const dist::FrameLog& log,
                                         std::uint64_t ordinal) {
  dist::FrameView v;
  if (!log.get(ordinal, v)) return {};
  return {v.data, v.data + v.len};
}

TEST(DistFrameLogTest, AppendsAndViewsFramesByOrdinal) {
  dist::FrameLog log;
  EXPECT_EQ(log.append(10, std::vector<std::uint8_t>{1, 2, 3}.data(), 3), 0u);
  EXPECT_EQ(log.append(12, nullptr, 0), 1u);  // an empty frame is a frame
  EXPECT_EQ(log.append(15, std::vector<std::uint8_t>{4, 5}.data(), 2), 2u);
  EXPECT_EQ(log.first(), 0u);
  EXPECT_EQ(log.end(), 3u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.bytes(), 5u);
  dist::FrameView v;
  ASSERT_TRUE(log.get(1, v));
  EXPECT_EQ(v.seq, 12u);
  EXPECT_EQ(v.len, 0u);
  ASSERT_TRUE(log.get(2, v));
  EXPECT_EQ(v.seq, 15u);
  EXPECT_EQ(log_view_bytes(log, 0), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(log_view_bytes(log, 2), (std::vector<std::uint8_t>{4, 5}));
  EXPECT_FALSE(log.get(3, v));  // not appended yet
}

TEST(DistFrameLogTest, TrimDropsAppliedEntriesAndKeepsOrdinals) {
  dist::FrameLog log;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    const std::vector<std::uint8_t> frame(4, static_cast<std::uint8_t>(seq));
    log.append(seq * 2, frame.data(), frame.size());  // seqs 2, 4, ..., 20
  }
  EXPECT_EQ(log.trim(1), 0u);  // below every entry
  EXPECT_EQ(log.trim(5), 2u);  // seqs 2 and 4; 5 was never logged here
  EXPECT_EQ(log.first(), 2u);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.bytes(), 40u);  // a quarter dead: not compacted
  // A ref to a trimmed entry is reported gone; the others still view their
  // own bytes.
  dist::FrameView v;
  EXPECT_FALSE(log.get(0, v));
  EXPECT_FALSE(log.get(1, v));
  for (std::uint64_t o = 2; o < 10; ++o)
    EXPECT_EQ(log_view_bytes(log, o),
              std::vector<std::uint8_t>(4, static_cast<std::uint8_t>(o + 1)));
  EXPECT_EQ(log.trim(5), 0u);  // trimming is idempotent
}

TEST(DistFrameLogTest, CompactsOncePastHalfDeadAndViewsStayExact) {
  dist::FrameLog log;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    const std::vector<std::uint8_t> frame(static_cast<std::size_t>(11 - seq),
                                          static_cast<std::uint8_t>(seq));
    log.append(seq, frame.data(), frame.size());  // 10 + 9 + ... + 1 bytes
  }
  EXPECT_EQ(log.trim(3), 3u);  // 27 of 55 bytes dead: under half, kept
  EXPECT_EQ(log.bytes(), 55u);
  EXPECT_EQ(log.trim(4), 1u);  // 34 of 55 dead: compacted to the live tail
  EXPECT_EQ(log.bytes(), 21u);
  EXPECT_EQ(log.first(), 4u);
  EXPECT_EQ(log.end(), 10u);
  dist::FrameView v;
  EXPECT_FALSE(log.get(3, v));
  for (std::uint64_t o = 4; o < 10; ++o) {
    ASSERT_TRUE(log.get(o, v));
    EXPECT_EQ(v.seq, o + 1);
    EXPECT_EQ(log_view_bytes(log, o),
              std::vector<std::uint8_t>(static_cast<std::size_t>(10 - o),
                                        static_cast<std::uint8_t>(o + 1)));
  }
  // Appends after a compaction land behind the live tail with the next
  // ordinal; trimming everything empties the buffer.
  const std::vector<std::uint8_t> last = {0xEE};
  EXPECT_EQ(log.append(11, last.data(), last.size()), 10u);
  EXPECT_EQ(log_view_bytes(log, 10), last);
  EXPECT_EQ(log.trim(11), 7u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_EQ(log.first(), 11u);
  // Empty frames hold no bytes; their entries are trimmed all the same.
  for (std::uint64_t seq = 12; seq < 112; ++seq) log.append(seq, nullptr, 0);
  EXPECT_EQ(log.trim(110), 99u);
  ASSERT_TRUE(log.get(110, v));
  EXPECT_EQ(v.seq, 111u);
  EXPECT_FALSE(log.get(109, v));
}

// ---- backoff ---------------------------------------------------------------

TEST(DistBackoffTest, BoundedExponentialWithDeterministicJitter) {
  const dist::Backoff b(dist::Millis(10), dist::Millis(400), 7);
  std::uint64_t prev_nominal = 0;
  for (std::uint32_t a = 0; a < 12; ++a) {
    const std::uint64_t nominal =
        std::min<std::uint64_t>(10ull << std::min(a, 20u), 400);
    const auto d = static_cast<std::uint64_t>(b.delay(a).count());
    EXPECT_GE(d, nominal / 2) << "attempt " << a;
    EXPECT_LT(d, nominal) << "attempt " << a;
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
  }
  // Deterministic per seed, decorrelated across seeds.
  const dist::Backoff same(dist::Millis(10), dist::Millis(400), 7);
  const dist::Backoff other(dist::Millis(10), dist::Millis(400), 8);
  bool any_differ = false;
  for (std::uint32_t a = 0; a < 12; ++a) {
    EXPECT_EQ(b.delay(a).count(), same.delay(a).count());
    any_differ = any_differ || b.delay(a) != other.delay(a);
  }
  EXPECT_TRUE(any_differ) << "jitter ignores the seed";
}

// ---- health state machine --------------------------------------------------

TEST(DistHealthTest, WalksHealthySuspectDeadRecovering) {
  FailureDetector d(dist::HealthConfig{3});
  const auto now = dist::Clock::now();
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  d.on_timeout(now);
  EXPECT_EQ(d.state(), HealthState::kSuspect);
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  EXPECT_EQ(d.consecutive_failures(), 0u);
  d.on_timeout(now);
  d.on_error(now);
  EXPECT_EQ(d.state(), HealthState::kSuspect);
  d.on_timeout(now);
  EXPECT_EQ(d.state(), HealthState::kDead);
  EXPECT_FALSE(d.alive());
  EXPECT_EQ(d.deaths(), 1u);
  // Dead does not flap back on a stray success; only a reconnect handshake
  // re-admits, and the next success completes the recovery arc.
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kDead);
  d.on_reconnect(now);
  EXPECT_EQ(d.state(), HealthState::kRecovering);
  EXPECT_EQ(d.recoveries(), 0u);
  d.on_success(now);
  EXPECT_EQ(d.state(), HealthState::kHealthy);
  EXPECT_EQ(d.recoveries(), 1u);
  EXPECT_EQ(d.timeouts(), 3u);
  EXPECT_EQ(d.errors(), 1u);
}

// ---- cluster fixture -------------------------------------------------------

constexpr std::size_t kSlots = 8;

// The acceptance bar's reference: ONE sequential per-slot machine set fed
// the same frames in offer order.
std::vector<std::vector<std::uint8_t>> reference_egress(
    const banzai::Machine& proto, const WireCodec& rx, const WireCodec& tx,
    const std::vector<banzai::FieldId>& flow_key,
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<banzai::Machine> slots;
  for (std::size_t v = 0; v < kSlots; ++v) slots.push_back(proto.clone());
  Packet scratch(proto.fields().size());
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& f : frames) {
    if (!rx.parse_exact(f.data(), f.size(), scratch).ok()) continue;
    std::uint64_t h = 0;
    for (banzai::FieldId fk : flow_key)
      h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(scratch.get(fk))));
    out.push_back(tx.deparse(slots[h % kSlots].process(scratch)));
  }
  return out;
}

struct Cluster {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::unique_ptr<FrontTier> front;
  std::vector<banzai::FieldId> flow_key;

  explicit Cluster(std::size_t n_workers, std::uint64_t seed = 1,
                   std::uint32_t dup_every = 0, std::uint32_t stall_every = 0)
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};

    for (std::size_t w = 0; w < n_workers; ++w) {
      WorkerConfig wc;
      wc.algorithm = "flowlets";
      wc.num_slots = kSlots;
      wc.num_shards = 2;
      wc.batch_size = 32;
      wc.ring_capacity = 256;
      wc.flow_key = {"sport", "dport"};
      wc.stall_every = stall_every;
      wc.stall_for = dist::Millis(stall_every ? 300 : 0);
      workers.push_back(std::make_unique<WorkerServer>(compiled.machine(), rx,
                                                       tx, wc));
      workers.back()->start();
    }

    FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = flow_key;
    fc.seed = seed;
    fc.dup_every = dup_every;
    fc.rpc_timeout = dist::Millis(stall_every ? 150 : 2000);
    fc.max_batch = 16;
    fc.dead_after = 2;
    front = std::make_unique<FrontTier>(rx, fc);
    for (auto& w : workers) front->add_worker(w->port());
    front->connect();
  }

  ~Cluster() {
    for (auto& w : workers) w->stop();
  }

  std::vector<std::vector<std::uint8_t>> sequential_reference(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    return reference_egress(compiled.machine(), *rx, *tx, flow_key, frames);
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

// ---- end-to-end contracts --------------------------------------------------

TEST(DistClusterTest, SingleWorkerMatchesSequentialReference) {
  Cluster c(1);
  const auto frames = c.make_frames(600, 11);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_TRUE(c.front->settled());
}

TEST(DistClusterTest, FourWorkersMatchSequentialReferenceWithRejects) {
  Cluster c(4);
  auto frames = c.make_frames(1200, 23);
  // Interleave malformed frames: they must tombstone, not disturb order.
  const std::vector<std::uint8_t> runt = {0xD0};
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < frames.size(); i += 100) {
    frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i), runt);
    ++rejected;
  }
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_EQ(st.frames_offered, frames.size());
  EXPECT_EQ(st.rejects, rejected);
  EXPECT_EQ(st.frames_acked + st.rejects, frames.size());
}

TEST(DistClusterTest, DuplicatedBatchesAreFullyDeduplicated) {
  Cluster c(2, /*seed=*/3, /*dup_every=*/3);
  const auto frames = c.make_frames(500, 31);
  const auto expected = c.sequential_reference(frames);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_GT(st.dup_acks, 0u) << "the dup schedule never fired";
  // A duplicate batch on a healthy connection carries no egress (its arrival
  // confirmed the original reply), so the window stays duplicate-free here;
  // the window-dedup path is exercised by post-kill replay below.
  EXPECT_EQ(st.egress_duplicates, 0u);
  EXPECT_EQ(st.frames_acked, frames.size());
}

TEST(DistClusterTest, LiveSlotRebalanceUnderLoadStaysBitExact) {
  Cluster c(3);
  const auto frames = c.make_frames(900, 47);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    // Shuffle ownership mid-stream, repeatedly: slot s hops to a different
    // worker while its flows are in flight.
    if (i == 300) c.front->move_slot(0, c.front->owner_of(0) == 2 ? 0 : 2);
    if (i == 450) c.front->move_slot(3, c.front->owner_of(3) == 1 ? 0 : 1);
    if (i == 600) c.front->move_slot(0, 1);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_GE(st.slot_moves, 3u);
  // Every sent frame (originals + post-move replays) got exactly one status:
  // fresh apply or worker-side dedup.
  EXPECT_EQ(st.frames_acked + st.dup_acks, st.frames_sent);
}

TEST(DistClusterTest, EngineHotSwapMidStreamStaysBitExact) {
  Cluster c(2);
  const auto frames = c.make_frames(800, 53);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    if (i == 250) c.front->swap_engine(banzai::ExecEngine::kNative);
    if (i == 550) c.front->swap_engine(banzai::ExecEngine::kKernel);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

// A value that is no engine is refused at the front, before any RPC: a
// worker would answer it with an error, which the front reads as a failed
// connection, retrying until it declares a healthy worker dead.
TEST(DistClusterTest, SwapToAnUnknownEngineThrowsAndKillsNoWorker) {
  Cluster c(2);
  const auto frames = c.make_frames(400, 59);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    if (i == 150) {
      EXPECT_THROW(c.front->swap_engine(static_cast<banzai::ExecEngine>(0)),
                   std::invalid_argument);
    }
    if (i == 250) {
      EXPECT_THROW(c.front->swap_engine(static_cast<banzai::ExecEngine>(7)),
                   std::invalid_argument);
    }
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  for (std::size_t w = 0; w < c.workers.size(); ++w) {
    EXPECT_EQ(c.front->worker_view(w).health, HealthState::kHealthy) << w;
    EXPECT_EQ(c.front->worker_view(w).deaths, 0u) << w;
    EXPECT_EQ(c.front->worker_view(w).errors, 0u) << w;
  }
  EXPECT_EQ(c.front->stats().migrations, 0u);
}

TEST(DistClusterTest, WorkerKillMidBurstRecoversViaMigrationAndReplay) {
  Cluster c(3);
  const auto frames = c.make_frames(900, 61);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 300) c.front->checkpoint();
    if (i == 450) {
      // Collect the egress of every frame offered so far, so worker 1's
      // egress for frames after the checkpoint has surely reached the front
      // before it dies.  flush() keeps the resend buffers (only checkpoints
      // trim them), so those frames are still replayed after the kill, and
      // their egress comes back as duplicates.
      c.front->flush();
      c.workers[1]->kill();  // SIGKILL stand-in: all state gone
      c.front->evict(1);     // the harness knows; detectors would too, slower
    }
    c.front->offer(frames[i]);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  const auto st = c.front->stats();
  EXPECT_EQ(st.migrations, 1u);
  EXPECT_GT(st.replays, 0u);
  EXPECT_GT(st.checkpoints, 0u);
  // Frames the dead worker acked after the checkpoint were replayed onto the
  // survivor, which re-applied them and re-emitted their egress — the
  // exactly-once window must have swallowed those.
  EXPECT_GT(st.egress_duplicates, 0u);
  EXPECT_EQ(c.front->worker_view(1).health, HealthState::kDead);
}

TEST(DistClusterTest, KillWithoutAnyCheckpointReplaysFromScratch) {
  Cluster c(2);
  const auto frames = c.make_frames(400, 67);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 200) {
      c.workers[0]->kill();
      c.front->evict(0);
    }
    c.front->offer(frames[i]);
  }
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

// A worker killed and restarted while idle answers on its port again, with
// none of the state of the slots it still owns.  Whichever RPC first finds
// the new incarnation, no later reconnect may take it for the worker that
// held those slots: they must migrate before it carries traffic again.
// Here heartbeats find the restart, and readmit() follows.
TEST(DistClusterTest, RestartFoundByHeartbeatMigratesBeforeReadmit) {
  Cluster c(2);
  const auto frames = c.make_frames(600, 71);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < 300; ++i) {
    if (i == 150) c.front->checkpoint();
    c.front->offer(frames[i]);
  }
  c.front->flush();
  c.workers[1]->kill();
  c.workers[1]->restart();
  // The first heartbeat fails on the old socket; the next one reconnects
  // and reads the new incarnation.
  for (int i = 0;
       i < 4 && c.front->worker_view(1).health != HealthState::kDead; ++i)
    c.front->heartbeat();
  ASSERT_EQ(c.front->worker_view(1).health, HealthState::kDead);
  ASSERT_GT(c.front->worker_view(1).slots_owned, 0u);

  ASSERT_TRUE(c.front->readmit(1));
  EXPECT_EQ(c.front->worker_view(1).slots_owned, 0u);
  for (std::size_t i = 300; i < frames.size(); ++i) c.front->offer(frames[i]);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_EQ(c.front->stats().migrations, 1u);
}

// The same restart, found by swap_engine()'s retries instead: the swap
// gives up on the worker, and its slots migrate on the next flush.
TEST(DistClusterTest, RestartFoundBySwapEngineMigratesItsSlots) {
  Cluster c(2);
  const auto frames = c.make_frames(600, 73);
  const auto expected = c.sequential_reference(frames);
  for (std::size_t i = 0; i < 300; ++i) c.front->offer(frames[i]);
  c.front->flush();
  c.workers[1]->kill();
  c.workers[1]->restart();
  c.front->swap_engine(banzai::ExecEngine::kKernel);
  EXPECT_EQ(c.front->worker_view(1).health, HealthState::kDead);

  for (std::size_t i = 300; i < frames.size(); ++i) c.front->offer(frames[i]);
  c.front->flush();
  const auto got = c.front->drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_EQ(c.front->stats().migrations, 1u);
  EXPECT_EQ(c.front->worker_view(1).slots_owned, 0u);
}

// ---- the corrupt-restore guard (raw protocol) ------------------------------

// The worker serves one connection at a time, so these tests skip the front
// tier entirely and speak the protocol over a raw Conn — which is the point:
// the restore guard must hold against arbitrary bytes, not just what a
// well-behaved FrontTier would send.
struct RawWorker {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::unique_ptr<WorkerServer> worker;
  std::vector<banzai::FieldId> flow_key;
  dist::Conn conn;
  std::uint64_t next_seq = 1;

  RawWorker()
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};
    WorkerConfig wc;
    wc.algorithm = "flowlets";
    wc.num_slots = kSlots;
    wc.flow_key = {"sport", "dport"};
    worker =
        std::make_unique<WorkerServer>(compiled.machine(), rx, tx, wc);
    worker->start();
    conn = dist::connect_local(worker->port(), dist::Millis(2000));
    dist::Hello h;
    h.algorithm = "flowlets";
    h.num_slots = kSlots;
    h.header_bytes = static_cast<std::uint32_t>(rx->header_bytes());
    const auto resp = call(MsgType::kHello, dist::encode_hello(h));
    EXPECT_EQ(resp.type, MsgType::kHelloAck);
  }

  ~RawWorker() { worker->stop(); }

  dist::Message call(MsgType type, const std::vector<std::uint8_t>& payload) {
    const auto deadline = dist::Clock::now() + dist::Millis(2000);
    conn.send_msg(type, payload, deadline);
    return conn.recv_msg(deadline);
  }

  std::uint32_t slot_of(const std::vector<std::uint8_t>& frame) {
    Packet scratch(compiled.machine().fields().size());
    EXPECT_TRUE(rx->parse_exact(frame.data(), frame.size(), scratch).ok());
    std::uint64_t h = 0;
    for (banzai::FieldId fk : flow_key)
      h = netsim::mix64(
          h ^ static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(scratch.get(fk))));
    return static_cast<std::uint32_t>(h % kSlots);
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

  // Ingests frames in one batch and returns the per-frame statuses.
  std::vector<dist::FrameStatus> ingest(
      const std::vector<std::vector<std::uint8_t>>& frames) {
    dist::IngestBatch b;
    for (const auto& f : frames) {
      dist::FrameRecord rec;
      rec.seq = next_seq++;
      rec.slot = slot_of(f);
      rec.bytes = f;
      b.frames.push_back(std::move(rec));
    }
    const auto resp =
        call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
    EXPECT_EQ(resp.type, MsgType::kIngestAck);
    const auto ack =
        dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
    EXPECT_EQ(ack.statuses.size(), frames.size());
    return ack.statuses;
  }

  std::vector<std::uint8_t> snapshot_blob(std::uint32_t slot) {
    dist::SnapshotReq req;
    req.slots.push_back(slot);
    const auto resp = call(MsgType::kSnapshotReq,
                           dist::encode_snapshot_req(req));
    EXPECT_EQ(resp.type, MsgType::kSnapshotResp);
    const auto sr =
        dist::decode_snapshot_resp(resp.payload.data(), resp.payload.size());
    EXPECT_EQ(sr.slots.size(), 1u);
    return sr.slots.at(0).state;
  }
};

TEST(DistRestoreGuardTest, CorruptBlobRejectsCleanlyAndStateIsUntouched) {
  RawWorker w;
  // Put real state into slot machines first.
  for (const dist::FrameStatus st : w.ingest(w.make_frames(200, 71)))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);
  const auto before = w.snapshot_blob(2);

  // (a) garbage bytes: framing-level corruption.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 2;
    s.applied_seq = 999;
    s.state = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (b) well-formed blob of the wrong shape.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 2;
    s.state = dist::serialize_state_store(banzai::StateStore{});
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (c) slot out of range.
  {
    dist::RestoreReq req;
    dist::SlotState s;
    s.slot = 999;
    s.state = before;
    req.slots.push_back(std::move(s));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }
  // (d) a batch where the LAST entry is corrupt must not apply the first:
  // all-or-nothing validation.
  {
    dist::RestoreReq req;
    dist::SlotState good;
    good.slot = 2;
    good.applied_seq = 1u << 20;  // would poison the dedup table if applied
    good.state = before;
    dist::SlotState bad;
    bad.slot = 3;
    bad.state = {0x00};
    req.slots.push_back(std::move(good));
    req.slots.push_back(std::move(bad));
    const auto resp =
        w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
    EXPECT_EQ(resp.type, MsgType::kError);
  }

  // The worker keeps serving and its state is byte-identical.
  const auto after = w.snapshot_blob(2);
  EXPECT_EQ(before, after);
  EXPECT_GE(w.worker->stats().restore_rejects, 4u);

  // And the dedup table was not poisoned by the rejected applied_seq: fresh
  // frames (seqs far below the rejected 2^20) still apply.
  for (const dist::FrameStatus st : w.ingest(w.make_frames(50, 73)))
    EXPECT_EQ(st, dist::FrameStatus::kAccepted);
}

// The retried-reject regression: a rejected frame never advances the slot
// watermark, so once a LATER frame in the slot does, a retry of the reject
// (after a lost ack) hits the dedup guard.  It must be re-answered its
// original reject status — a kDuplicate there is fatal, because the front
// only tombstones reject statuses and the seq would never settle.
TEST(DistWorkerDedupTest, RetriedRejectKeepsItsStatusAfterWatermarkAdvance) {
  RawWorker w;
  const auto valid = w.make_frames(1, 131).at(0);
  dist::IngestBatch b;
  dist::FrameRecord runt;
  runt.seq = 1;
  runt.slot = w.slot_of(valid);  // same slot: the accept advances past it
  runt.bytes = {0xD0};
  dist::FrameRecord ok;
  ok.seq = 2;
  ok.slot = runt.slot;
  ok.bytes = valid;
  b.frames.push_back(runt);
  b.frames.push_back(ok);
  const auto payload = dist::encode_ingest_batch(b);

  auto resp = w.call(MsgType::kIngestBatch, payload);
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  auto ack = dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), 2u);
  const dist::FrameStatus reject = ack.statuses[0];
  EXPECT_NE(reject, dist::FrameStatus::kAccepted);
  EXPECT_NE(reject, dist::FrameStatus::kDuplicate);
  EXPECT_EQ(ack.statuses[1], dist::FrameStatus::kAccepted);

  // Lost-ack retry: the identical batch again.  Both frames now sit at or
  // below the slot watermark (2); the applied one dedups, the reject must
  // reproduce its verdict.
  resp = w.call(MsgType::kIngestBatch, payload);
  ASSERT_EQ(resp.type, MsgType::kIngestAck);
  ack = dist::decode_ingest_ack(resp.payload.data(), resp.payload.size());
  ASSERT_EQ(ack.statuses.size(), 2u);
  EXPECT_EQ(ack.statuses[0], reject);
  EXPECT_EQ(ack.statuses[1], dist::FrameStatus::kDuplicate);
}

// An empty state blob in a RestoreReq is the front's explicit "start from
// scratch" order: the slot resets to the prototype's pristine initial state
// and the dedup watermark to the given applied_seq — so a migration target
// that silently kept stale state for the slot starts from a known point.
TEST(DistRestoreGuardTest, EmptyStateBlobResetsSlotToInitialState) {
  RawWorker w;
  const auto pristine = w.snapshot_blob(0);  // canonical: same for any slot
  const auto frames = w.make_frames(120, 83);
  for (const dist::FrameStatus st : w.ingest(frames))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);

  // Find a slot the workload dirtied (and a frame that routes to it).
  std::uint32_t slot = kSlots;
  for (std::uint32_t s = 0; s < kSlots; ++s)
    if (w.snapshot_blob(s) != pristine) {
      slot = s;
      break;
    }
  ASSERT_LT(slot, kSlots) << "workload never touched any slot state";
  const std::vector<std::uint8_t>* frame = nullptr;
  for (const auto& f : frames)
    if (w.slot_of(f) == slot) {
      frame = &f;
      break;
    }
  ASSERT_NE(frame, nullptr);

  dist::RestoreReq req;
  dist::SlotState reset;
  reset.slot = slot;  // applied_seq 0, state empty: the reset order
  req.slots.push_back(std::move(reset));
  const auto resp =
      w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
  EXPECT_EQ(resp.type, MsgType::kRestoreAck);
  EXPECT_EQ(w.snapshot_blob(slot), pristine);

  // The dedup table reset too: seq 1 for the slot applies fresh.
  dist::IngestBatch b;
  dist::FrameRecord rec;
  rec.seq = 1;
  rec.slot = slot;
  rec.bytes = *frame;
  b.frames.push_back(std::move(rec));
  const auto r2 = w.call(MsgType::kIngestBatch, dist::encode_ingest_batch(b));
  ASSERT_EQ(r2.type, MsgType::kIngestAck);
  const auto ack =
      dist::decode_ingest_ack(r2.payload.data(), r2.payload.size());
  ASSERT_EQ(ack.statuses.size(), 1u);
  EXPECT_EQ(ack.statuses[0], dist::FrameStatus::kAccepted);
}

TEST(DistRestoreGuardTest, ValidRestoreIsAcceptedAndApplied) {
  RawWorker w;
  for (const dist::FrameStatus st : w.ingest(w.make_frames(200, 79)))
    ASSERT_EQ(st, dist::FrameStatus::kAccepted);
  const auto blob = w.snapshot_blob(1);

  dist::RestoreReq req;
  dist::SlotState s;
  s.slot = 4;  // restore slot 1's state into slot 4 (same shape: same proto)
  s.applied_seq = 0;
  s.state = blob;
  req.slots.push_back(std::move(s));
  const auto resp =
      w.call(MsgType::kRestoreReq, dist::encode_restore_req(req));
  EXPECT_EQ(resp.type, MsgType::kRestoreAck);
  EXPECT_EQ(w.snapshot_blob(4), blob);
}

// The worker's own guard on engine swaps: a byte other than kKernel (1) or
// kNative (2) is answered with kError and swaps nothing; both valid bytes
// are applied.
TEST(DistWorkerSwapTest, OnlyKernelAndNativeBytesAreAccepted) {
  RawWorker w;
  for (int engine : {0, 3, 7}) {
    dist::SwapEngine msg;
    msg.engine = static_cast<std::uint8_t>(engine);
    EXPECT_EQ(w.call(MsgType::kSwapEngine, dist::encode_swap_engine(msg)).type,
              MsgType::kError)
        << engine;
  }
  EXPECT_EQ(w.worker->stats().engine_swaps, 0u);
  for (banzai::ExecEngine engine :
       {banzai::ExecEngine::kNative, banzai::ExecEngine::kKernel}) {
    dist::SwapEngine msg;
    msg.engine = static_cast<std::uint8_t>(engine);
    const auto resp =
        w.call(MsgType::kSwapEngine, dist::encode_swap_engine(msg));
    ASSERT_EQ(resp.type, MsgType::kSwapAck);
    // The machine was compiled without a native pipeline, so a kNative
    // request runs on the kernel VM and the ack says so.
    EXPECT_EQ(dist::decode_swap_ack(resp.payload.data(), resp.payload.size())
                  .active_engine,
              static_cast<std::uint8_t>(banzai::ExecEngine::kKernel));
  }
  EXPECT_EQ(w.worker->stats().engine_swaps, 2u);
}

// ---- hostile peers (front-tier hardening) ----------------------------------

// A scripted peer speaking just enough of the worker protocol to misbehave
// on purpose: it acks every ingest (optionally echoing frame bytes back as
// egress), can prepend one corrupt-seq egress record, and can slam the
// connection shut on RestoreReq — the failure modes the front tier must
// absorb without crashing or corrupting its window.
struct ScriptedWorker {
  dist::Listener listener;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::uint32_t num_slots;
  bool echo_egress = false;      // return each frame's bytes as its egress
  bool close_on_restore = false;
  std::uint64_t inject_seq = 0;  // nonzero: prepend {inject_seq, junk} once
  std::atomic<bool> injected{false};
  // Nonzero: a snapshot reports every requested slot applied up to this
  // seq, and returns junk egress for seqs [1, snapshot_applied].
  std::uint64_t snapshot_applied = 0;
  std::atomic<std::uint64_t> frames_seen{0};

  explicit ScriptedWorker(std::uint32_t slots) : num_slots(slots) {
    listener.listen(0);
    thread = std::thread([this] { run(); });
  }
  ~ScriptedWorker() {
    stop.store(true);
    listener.shutdown();
    if (thread.joinable()) thread.join();
    listener.close();
  }
  std::uint16_t port() const { return listener.port(); }

  void run() {
    while (!stop.load()) {
      dist::Conn conn;
      try {
        conn = listener.accept(dist::Clock::now() + dist::Millis(100));
      } catch (const dist::RpcTimeout&) {
        continue;
      } catch (const dist::RpcError&) {
        return;
      }
      serve(conn);
    }
  }

  void reply(dist::Conn& conn, MsgType type,
             const std::vector<std::uint8_t>& payload) {
    conn.send_msg(type, payload, dist::Clock::now() + dist::Millis(2000));
  }

  void serve(dist::Conn& conn) {
    while (!stop.load()) {
      dist::Message req;
      try {
        req = conn.recv_msg(dist::Clock::now() + dist::Millis(200));
      } catch (const dist::RpcTimeout&) {
        continue;
      } catch (const dist::RpcError&) {
        return;
      }
      try {
        switch (req.type) {
          case MsgType::kHello: {
            dist::HelloAck ack;
            ack.num_slots = num_slots;
            reply(conn, MsgType::kHelloAck, dist::encode_hello_ack(ack));
            break;
          }
          case MsgType::kIngestBatch: {
            const auto batch = dist::decode_ingest_batch(req.payload.data(),
                                                         req.payload.size());
            dist::IngestAck ack;
            if (inject_seq != 0 && !injected.exchange(true))
              ack.egress.push_back({inject_seq, {0xEE}});
            frames_seen += batch.frames.size();
            for (const auto& f : batch.frames) {
              ack.seqs.push_back(f.seq);
              ack.statuses.push_back(dist::FrameStatus::kAccepted);
              if (echo_egress) ack.egress.push_back({f.seq, f.bytes});
            }
            reply(conn, MsgType::kIngestAck, dist::encode_ingest_ack(ack));
            break;
          }
          case MsgType::kRestoreReq:
            if (close_on_restore) return;  // die mid-restore
            reply(conn, MsgType::kRestoreAck, {});
            break;
          case MsgType::kSnapshotReq: {
            dist::SnapshotResp resp;
            if (snapshot_applied != 0) {
              const auto sreq = dist::decode_snapshot_req(req.payload.data(),
                                                          req.payload.size());
              for (std::uint32_t slot : sreq.slots)
                resp.slots.push_back({slot, snapshot_applied, {}});
              for (std::uint64_t seq = 1; seq <= snapshot_applied; ++seq)
                resp.egress.push_back({seq, {0xAB}});
            }
            reply(conn, MsgType::kSnapshotResp,
                  dist::encode_snapshot_resp(resp));
            break;
          }
          case MsgType::kFlushReq:
            reply(conn, MsgType::kFlushAck,
                  dist::encode_flush_ack(dist::FlushAck{}));
            break;
          case MsgType::kHeartbeat: {
            const auto hb =
                dist::decode_heartbeat(req.payload.data(), req.payload.size());
            dist::HeartbeatAck ack;
            ack.nonce = hb.nonce;
            reply(conn, MsgType::kHeartbeatAck,
                  dist::encode_heartbeat_ack(ack));
            break;
          }
          case MsgType::kStop:
            return;
          default:
            reply(conn, MsgType::kError,
                  dist::encode_error(dist::ErrorMsg{"scripted: unexpected"}));
            break;
        }
      } catch (const dist::RpcError&) {
        return;
      }
    }
  }
};

// Codec + workload plumbing without any real worker attached.
struct CodecRig {
  domino::CompileResult compiled;
  std::shared_ptr<const WireCodec> rx, tx;
  std::vector<banzai::FieldId> flow_key;

  CodecRig()
      : compiled(domino::compile(algorithms::algorithm("flowlets").source,
                                 *atoms::find_target("banzai-praw"))) {
    const auto& alg = algorithms::algorithm("flowlets");
    const auto& ft = compiled.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    rx = std::make_shared<const WireCodec>(spec, ft);
    tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
    flow_key = {ft.id_of("sport"), ft.id_of("dport")};
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

// A corrupted (but well-framed) reply carrying a seq the front never issued
// must be dropped and counted, not fed to the egress window — a ~2^64 seq
// would otherwise drive a multi-exabyte window resize and kill the front.
TEST(DistFrontGuardTest, CorruptEgressSeqIsDroppedNotFatal) {
  CodecRig rig;
  ScriptedWorker fake(kSlots);
  fake.echo_egress = true;
  fake.inject_seq = ~0ull;

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  FrontTier front(rig.rx, fc);
  front.add_worker(fake.port());
  front.connect();

  const auto frames = rig.make_frames(40, 137);
  for (const auto& f : frames) front.offer(f);
  front.flush();

  // The scripted worker echoes ingress as egress, so the stream settles and
  // comes back byte-identical; the poisoned record vanished into a counter.
  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], frames[i]) << "frame " << i;
  EXPECT_TRUE(front.settled());
  EXPECT_EQ(front.stats().egress_corrupt, 1u);
}

// Outboxes hold refs into the frame logs, so a checkpoint that proves
// queued frames applied trims the bytes those refs point at.  Such refs are
// taken from the outbox unsent: the frames after them still go out, and
// the stream settles.
TEST(DistFrontGuardTest, RefsToTrimmedFramesAreDroppedUnsent) {
  CodecRig rig;
  ScriptedWorker fake(kSlots);
  fake.echo_egress = true;
  fake.snapshot_applied = 50;

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  fc.max_batch = 100;
  FrontTier front(rig.rx, fc);
  front.add_worker(fake.port());
  front.connect();

  const auto frames = rig.make_frames(60, 139);
  for (const auto& f : frames) front.offer(f);  // under a batch: all queued
  EXPECT_EQ(fake.frames_seen.load(), 0u);
  front.checkpoint();
  EXPECT_EQ(front.stats().resend_frames, 10u);
  front.flush();

  EXPECT_EQ(fake.frames_seen.load(), 10u);
  const auto st = front.stats();
  EXPECT_EQ(st.frames_sent, 10u);
  EXPECT_EQ(st.ingest_batches, 1u);
  EXPECT_TRUE(front.settled());
  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 50; i < got.size(); ++i)
    ASSERT_EQ(got[i], frames[i]) << "frame " << i;
}

// A migration target dying mid-restore is a transport failure, not a fatal
// error: restore_to must absorb the connection reset, burn the target's
// failure budget, and let migrate() pick another survivor — the documented
// "later failures are handled, not thrown" contract.
TEST(DistFrontGuardTest, MigrationSurvivesTargetDyingMidRestore) {
  CodecRig rig;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  for (int i = 0; i < 2; ++i) {
    WorkerConfig wc;
    wc.algorithm = "flowlets";
    wc.num_slots = kSlots;
    wc.num_shards = 2;
    wc.flow_key = {"sport", "dport"};
    workers.push_back(std::make_unique<WorkerServer>(rig.compiled.machine(),
                                                     rig.rx, rig.tx, wc));
    workers.back()->start();
  }
  ScriptedWorker fake(kSlots);
  fake.close_on_restore = true;  // acks ingest, dies on every RestoreReq

  FrontConfig fc;
  fc.algorithm = "flowlets";
  fc.num_slots = kSlots;
  fc.flow_key = rig.flow_key;
  fc.max_batch = 16;
  fc.dead_after = 2;
  FrontTier front(rig.rx, fc);
  front.add_worker(workers[0]->port());
  front.add_worker(workers[1]->port());
  front.add_worker(fake.port());
  front.connect();

  // Real state on the real workers; the scripted one acks its slots' frames
  // without egress (protocol-legal: the piggyback is opportunistic), so its
  // seqs stay pending until post-migration replay re-applies them for real.
  const auto frames = rig.make_frames(600, 139);
  const auto expected = [&] {
    std::vector<banzai::Machine> slots;
    for (std::size_t v = 0; v < kSlots; ++v)
      slots.push_back(rig.compiled.machine().clone());
    Packet scratch(rig.compiled.machine().fields().size());
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& f : frames) {
      if (!rig.rx->parse_exact(f.data(), f.size(), scratch).ok()) continue;
      std::uint64_t h = 0;
      for (banzai::FieldId fk : rig.flow_key)
        h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(
                                      scratch.get(fk))));
      out.push_back(rig.tx->deparse(slots[h % kSlots].process(scratch)));
    }
    return out;
  }();

  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 200) front.checkpoint();  // makes the migration restore real
    if (i == 400) {
      workers[1]->kill();
      // Migration fans the dead worker's slots across survivors; every
      // restore aimed at the scripted worker hits a connection reset and
      // must re-route to the real survivor instead of throwing.
      front.evict(1);
    }
    front.offer(frames[i]);
  }
  front.flush();

  const auto got = front.drain_egress();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
  EXPECT_TRUE(front.settled());
  // The scripted worker ran out of failure budget and every slot ended on
  // the one real survivor.
  EXPECT_EQ(front.worker_view(2).health, HealthState::kDead);
  for (std::size_t s = 0; s < kSlots; ++s) EXPECT_EQ(front.owner_of(s), 0u);
  for (auto& w : workers) w->stop();
}

// ---- batch and resend bounds -----------------------------------------------

// Flowlets workers (two unless asked) on the rig's codecs, and a front with
// the default FrontConfig in front of them, its resend_limit aside.
struct RigCluster {
  CodecRig rig;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::unique_ptr<FrontTier> front;

  explicit RigCluster(std::size_t num_workers = 2,
                      std::size_t resend_limit = FrontConfig{}.resend_limit) {
    for (std::size_t i = 0; i < num_workers; ++i) {
      WorkerConfig wc;
      wc.algorithm = "flowlets";
      wc.num_slots = kSlots;
      wc.num_shards = 1;
      wc.flow_key = {"sport", "dport"};
      workers.push_back(std::make_unique<WorkerServer>(rig.compiled.machine(),
                                                       rig.rx, rig.tx, wc));
      workers.back()->start();
    }
    FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = rig.flow_key;
    fc.resend_limit = resend_limit;
    front = std::make_unique<FrontTier>(rig.rx, fc);
    for (auto& w : workers) front->add_worker(w->port());
    front->connect();
  }
  ~RigCluster() {
    for (auto& w : workers) w->stop();
  }

  std::uint64_t worker_requests() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w->stats().requests;
    return n;
  }
};

// The hold bound front.h and docs/DISTRIBUTED.md state: the front has no
// timer, so max_batch - 1 frames offered to one worker send nothing, and the
// next offer sends exactly one batch of max_batch.
TEST(DistBatchBoundTest, AFullBatchAndNothingLessIsSentUnflushed) {
  RigCluster c(1);
  const std::size_t max_batch = FrontConfig{}.max_batch;
  const auto frames = c.rig.make_frames(max_batch, 151);
  const std::uint64_t requests_before = c.worker_requests();
  for (std::size_t i = 0; i + 1 < max_batch; ++i) c.front->offer(frames[i]);
  EXPECT_EQ(c.worker_requests(), requests_before);
  EXPECT_EQ(c.front->stats().frames_sent, 0u);
  EXPECT_EQ(c.front->stats().ingest_batches, 0u);
  EXPECT_EQ(c.front->stats().resend_frames, max_batch - 1);

  c.front->offer(frames.back());
  EXPECT_EQ(c.worker_requests(), requests_before + 1);
  const auto st = c.front->stats();
  EXPECT_EQ(st.ingest_batches, 1u);
  EXPECT_EQ(st.frames_sent, max_batch);
  EXPECT_EQ(c.workers[0]->stats().frames_accepted, max_batch);
  c.front->flush();
  EXPECT_EQ(c.front->drain_egress().size(), max_batch);
}

// The resend buffer stays bounded in frames and in bytes while checkpoints
// trim and compact the frame logs under traffic, and the frames sent from a
// compacted log are still the frames offered: egress stays byte-exact.
TEST(DistBatchBoundTest, ResendGaugesStayBoundedOverManyCheckpoints) {
  constexpr std::size_t kLimit = 1000;
  RigCluster c(2, kLimit);
  const std::size_t max_batch = FrontConfig{}.max_batch;
  const std::size_t frame_bytes = c.rig.rx->header_bytes();
  const auto frames = c.rig.make_frames(10 * kLimit + 77, 157);
  const auto expected = reference_egress(c.rig.compiled.machine(), *c.rig.rx,
                                         *c.rig.tx, c.rig.flow_key, frames);
  std::uint64_t peak_frames = 0, peak_bytes = 0;
  std::vector<std::vector<std::uint8_t>> got;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    c.front->offer(frames[i]);
    const auto st = c.front->stats();
    peak_frames = std::max(peak_frames, st.resend_frames);
    peak_bytes = std::max(peak_bytes, st.resend_bytes);
    if (i % 700 == 699 || i + 1 == frames.size()) {  // flushed bursts
      c.front->flush();
      for (auto& f : c.front->drain_egress()) got.push_back(std::move(f));
    }
  }
  EXPECT_GE(c.front->stats().checkpoints, 9u);
  EXPECT_LE(peak_frames, kLimit + max_batch);
  EXPECT_LT(peak_bytes, 2 * kLimit * frame_bytes);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "frame " << i;
}

// max_batch counts frames, not bytes: 64 frames of 1.1 MB would make one
// ~70 MB IngestBatch, past kMaxMessageBytes, and a front that treated the
// refused send as a transport failure killed every worker in turn.  Batches
// are cut by encoded size instead, so each frame reaches a worker and comes
// back its typed kOversized reject.
TEST(DistBatchBoundTest, OversizedFramesSettleWithoutKillingTheFleet) {
  RigCluster c;
  const std::vector<std::uint8_t> big((11u << 20) / 10, 0xAB);
  for (int i = 0; i < 64; ++i) c.front->offer(big);
  c.front->flush();
  EXPECT_TRUE(c.front->drain_egress().empty());
  EXPECT_TRUE(c.front->settled());
  const auto st = c.front->stats();
  EXPECT_EQ(st.rejects, 64u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.migrations, 0u);
  for (std::size_t w = 0; w < c.front->num_workers(); ++w)
    EXPECT_EQ(c.front->worker_view(w).health, HealthState::kHealthy) << w;
  std::uint64_t rejected = 0;
  for (auto& w : c.workers) rejected += w->stats().frames_rejected;
  EXPECT_EQ(rejected, 64u);

  // The fleet still serves well-formed traffic afterwards.
  const auto frames = c.rig.make_frames(100, 149);
  for (const auto& f : frames) c.front->offer(f);
  c.front->flush();
  EXPECT_EQ(c.front->drain_egress().size(), frames.size());
}

// A frame too large for any message settles as a reject on the spot — the
// verdict a worker would give it — without an RPC.
TEST(DistBatchBoundTest, FrameThatFitsNoMessageSettlesWithoutAnRpc) {
  RigCluster c;
  const std::uint64_t requests_before = c.workers[0]->stats().requests +
                                        c.workers[1]->stats().requests;
  // Never read: offer() refuses it on its length alone.
  const std::size_t len = dist::kMaxMessageBytes;
  const std::unique_ptr<std::uint8_t[]> huge(new std::uint8_t[len]);
  c.front->offer(huge.get(), len);
  EXPECT_TRUE(c.front->settled());
  c.front->flush();
  EXPECT_EQ(c.front->stats().rejects, 1u);
  EXPECT_EQ(c.workers[0]->stats().requests + c.workers[1]->stats().requests,
            requests_before);
}

// ---- worker lifecycle ------------------------------------------------------

// An idle worker blocks in poll() with no timer; stop() and kill() must end
// that wait through its eventfd at once, not by outlasting a timeout (the
// io_timeout here is 2 s).  A wait nobody wakes fails this test instead of
// hanging the suite: closing the front's connection ends it either way.
TEST(DistWorkerLifecycleTest, StopAndKillWakeAnIdleWorker) {
  CodecRig rig;
  for (const bool kill : {false, true}) {
    WorkerConfig wc;
    wc.algorithm = "flowlets";
    wc.num_slots = kSlots;
    wc.flow_key = {"sport", "dport"};
    WorkerServer worker(rig.compiled.machine(), rig.rx, rig.tx, wc);
    worker.start();
    FrontConfig fc;
    fc.algorithm = "flowlets";
    fc.num_slots = kSlots;
    fc.flow_key = rig.flow_key;
    auto front = std::make_unique<FrontTier>(rig.rx, fc);
    front->add_worker(worker.port());
    front->connect();
    front->heartbeat();  // connected, answered, now idle

    auto done = std::async(std::launch::async, [&] {
      if (kill)
        worker.kill();
      else
        worker.stop();
    });
    EXPECT_EQ(done.wait_for(dist::Millis(500)), std::future_status::ready)
        << (kill ? "kill()" : "stop()") << " did not wake the idle worker";
    front.reset();
    done.get();
    EXPECT_FALSE(worker.running());
  }
}

// serve_forever() (a worker process's main thread) still returns when the
// front sends kStop.
TEST(DistWorkerLifecycleTest, ServeForeverExitsOnStopMessage) {
  CodecRig rig;
  WorkerConfig wc;
  wc.algorithm = "flowlets";
  wc.num_slots = kSlots;
  wc.flow_key = {"sport", "dport"};
  WorkerServer worker(rig.compiled.machine(), rig.rx, rig.tx, wc);
  worker.start();  // binds the port; then hand the listener to serve_forever
  const std::uint16_t port = worker.port();
  worker.stop();
  std::thread server([&] { worker.serve_forever(); });

  dist::Conn conn;
  for (int tries = 0; !conn.valid() && tries < 200; ++tries) {
    try {
      conn = dist::connect_local(port, dist::Millis(500));
    } catch (const dist::RpcError&) {
      std::this_thread::sleep_for(dist::Millis(5));
    }
  }
  ASSERT_TRUE(conn.valid());
  const auto deadline = dist::Clock::now() + dist::Millis(2000);
  dist::Hello h;
  h.algorithm = "flowlets";
  h.num_slots = kSlots;
  h.header_bytes = static_cast<std::uint32_t>(rig.rx->header_bytes());
  conn.send_msg(MsgType::kHello, dist::encode_hello(h), deadline);
  EXPECT_EQ(conn.recv_msg(deadline).type, MsgType::kHelloAck);
  conn.send_msg(MsgType::kStop, {}, deadline);

  const auto t0 = dist::Clock::now();
  while (worker.running() && dist::Clock::now() - t0 < dist::Millis(2000))
    std::this_thread::sleep_for(dist::Millis(1));
  EXPECT_FALSE(worker.running()) << "kStop did not end serve_forever()";
  if (worker.running()) worker.stop();  // fail, don't hang
  server.join();
}

}  // namespace
