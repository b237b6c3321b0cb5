// The wire-format front end (src/wire/): the header-spec DSL, the bound
// parse/deparse codec and its hardening contract, the pcap reader/writer,
// and the two differential axes the tentpole demands — every corpus
// algorithm round-trips bytes -> fields -> bytes bit-exactly against the
// direct field-vector path, both standalone and through the FleetService
// byte-stream ingest.  The malformed-input sweep lives in wire_fuzz_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "banzai/service.h"
#include "core/compiler.h"
#include "sim/partition.h"
#include "test_util.h"
#include "wire/codec.h"
#include "wire/pcap.h"

namespace {

using banzai::Packet;
using wire::Endian;
using wire::ParseStatus;
using wire::Sign;
using wire::WireCodec;
using wire::WireSpec;

constexpr char kDemoSpec[] = R"(
# a comment
wire demo_v1 {
  magic : u16 be @0 = 0xD0FF;
  big   : u32 be @2;
  little: u32 le @6;
  s8    : i8  be @10;
  s16   : i16 be @11;
  tail  : u8  be @13;
}
)";

banzai::FieldTable demo_table() {
  banzai::FieldTable ft;
  for (const char* n : {"big", "little", "s8", "s16", "tail"}) ft.intern(n);
  return ft;
}

// ---- spec DSL --------------------------------------------------------------

TEST(WireSpecTest, ParsesTheDocumentedGrammar) {
  const WireSpec spec = wire::parse_wire_spec(kDemoSpec);
  EXPECT_EQ(spec.name, "demo_v1");
  ASSERT_EQ(spec.fields.size(), 6u);
  EXPECT_EQ(spec.header_bytes, 14u);

  const wire::WireField* magic = spec.find("magic");
  ASSERT_NE(magic, nullptr);
  EXPECT_TRUE(magic->has_expect);
  EXPECT_EQ(magic->expect, 0xD0FFu);
  EXPECT_EQ(magic->width, 2u);
  EXPECT_EQ(magic->offset, 0u);

  const wire::WireField* little = spec.find("little");
  ASSERT_NE(little, nullptr);
  EXPECT_EQ(little->endian, Endian::kLittle);
  EXPECT_EQ(little->width, 4u);
  EXPECT_FALSE(little->has_expect);

  const wire::WireField* s16 = spec.find("s16");
  ASSERT_NE(s16, nullptr);
  EXPECT_EQ(s16->sign, Sign::kSigned);
  EXPECT_EQ(spec.find("nope"), nullptr);
}

TEST(WireSpecTest, MalformedSpecsThrowWithALineNumber) {
  const char* bad[] = {
      "",                                          // empty
      "wire x { }",                                // no fields
      "wire x { a : u16 @0 }",                     // missing semicolon
      "wire x { a : u64 @0; }",                    // unknown type
      "wire x { a : u16 @0; a : u16 @2; }",        // duplicate name
      "wire x { a : u16 @0; b : u16 @1; }",        // overlapping ranges
      "wire x { a : u8 @0 = 0x1ff; }",             // const exceeds width
      "wire x { a : u16; }",                       // missing offset
      "wire x { a : u16 @0; } trailing",           // trailing tokens
      "header x { a : u16 @0; }",                  // wrong keyword
      "wire x { a : u16 xx @0; }",                 // bad endian token
      "wire x { a : u32 @0x10000; }",              // beyond the 64KiB bound
  };
  for (const char* text : bad)
    EXPECT_THROW(wire::parse_wire_spec(text), wire::WireSpecError) << text;
  // The error carries the offending 1-based line.
  try {
    wire::parse_wire_spec("wire x {\n  a : u16 @0;\n  b : u64 @2;\n}");
    FAIL() << "u64 must be rejected";
  } catch (const wire::WireSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ---- codec golden bytes ----------------------------------------------------

TEST(WireCodecTest, DeparseEmitsGoldenBytesBothEndians) {
  const banzai::FieldTable ft = demo_table();
  const WireCodec codec(wire::parse_wire_spec(kDemoSpec), ft);
  Packet p(ft.size());
  p.set(ft.id_of("big"), 0x01020304);
  p.set(ft.id_of("little"), 0x0A0B0C0D);
  p.set(ft.id_of("s8"), -2);
  p.set(ft.id_of("s16"), -3);
  p.set(ft.id_of("tail"), 0x7E);
  const std::vector<std::uint8_t> want = {
      0xD0, 0xFF,              // magic, network order
      0x01, 0x02, 0x03, 0x04,  // big, network order
      0x0D, 0x0C, 0x0B, 0x0A,  // little, little-endian
      0xFE,                    // s8 = -2, low byte
      0xFF, 0xFD,              // s16 = -3, network order
      0x7E};
  EXPECT_EQ(codec.deparse(p), want);
}

TEST(WireCodecTest, ParseRecoversFieldsAndSignExtends) {
  const banzai::FieldTable ft = demo_table();
  const WireCodec codec(wire::parse_wire_spec(kDemoSpec), ft);
  const std::vector<std::uint8_t> frame = {0xD0, 0xFF, 0x01, 0x02, 0x03,
                                           0x04, 0x0D, 0x0C, 0x0B, 0x0A,
                                           0xFE, 0xFF, 0xFD, 0x7E};
  Packet p(ft.size());
  const auto r = codec.parse(frame.data(), frame.size(), p);
  ASSERT_TRUE(r.ok()) << wire::to_string(r.status);
  EXPECT_EQ(r.header_bytes, 14u);
  EXPECT_EQ(p.get(ft.id_of("big")), 0x01020304);
  EXPECT_EQ(p.get(ft.id_of("little")), 0x0A0B0C0D);
  EXPECT_EQ(p.get(ft.id_of("s8")), -2) << "i8 must sign-extend";
  EXPECT_EQ(p.get(ft.id_of("s16")), -3) << "i16 must sign-extend";
  EXPECT_EQ(p.get(ft.id_of("tail")), 0x7E);
}

TEST(WireCodecTest, RejectedFramesNeverPartiallyWriteThePacket) {
  const banzai::FieldTable ft = demo_table();
  const WireCodec codec(wire::parse_wire_spec(kDemoSpec), ft);
  Packet pristine(ft.size());
  for (std::size_t i = 0; i < ft.size(); ++i)
    pristine.set(i, static_cast<banzai::Value>(0x5A5A0000 + i));

  // Truncated: one byte short of the header.
  std::vector<std::uint8_t> frame(codec.header_bytes() - 1, 0xAB);
  Packet p = pristine;
  EXPECT_EQ(codec.parse(frame.data(), frame.size(), p).status,
            ParseStatus::kTruncated);
  EXPECT_EQ(p, pristine);

  // Bad magic on an otherwise complete frame: checks run before any store.
  frame.assign(codec.header_bytes(), 0);
  frame[0] = 0xDE;
  frame[1] = 0xAD;
  p = pristine;
  const auto r = codec.parse(frame.data(), frame.size(), p);
  EXPECT_EQ(r.status, ParseStatus::kBadValue);
  EXPECT_EQ(r.field, "magic");
  EXPECT_EQ(p, pristine);

  // Oversized: beyond max_frame_bytes for parse, any trailing byte for
  // parse_exact.
  frame.assign(codec.max_frame_bytes() + 1, 0);
  p = pristine;
  EXPECT_EQ(codec.parse(frame.data(), frame.size(), p).status,
            ParseStatus::kOversized);
  EXPECT_EQ(p, pristine);
  frame.assign(codec.header_bytes() + 1, 0);
  frame[0] = 0xD0;
  frame[1] = 0xFF;
  p = pristine;
  EXPECT_EQ(codec.parse_exact(frame.data(), frame.size(), p).status,
            ParseStatus::kOversized);
  EXPECT_EQ(p, pristine);
}

TEST(WireCodecTest, ParseToleratesPayloadUpToMaxExactDoesNot) {
  const banzai::FieldTable ft = demo_table();
  const WireCodec codec(wire::parse_wire_spec(kDemoSpec), ft);
  std::vector<std::uint8_t> frame(codec.header_bytes() + 100, 0x77);
  frame[0] = 0xD0;
  frame[1] = 0xFF;
  Packet p(ft.size());
  const auto r = codec.parse(frame.data(), frame.size(), p);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.header_bytes, codec.header_bytes())
      << "payload starts where the header ends";
  EXPECT_EQ(codec.parse_exact(frame.data(), frame.size(), p).status,
            ParseStatus::kOversized);
}

TEST(WireCodecTest, BindingIsStrictAndRenamable) {
  banzai::FieldTable ft;
  ft.intern("machine_big");
  // Unresolvable non-const field: refused at bind time, not at parse time.
  EXPECT_THROW(WireCodec(wire::parse_wire_spec(
                             "wire w { ghost : u16 @0; }"),
                         ft),
               wire::WireBindError);
  // A const-checked field needs no table entry (check-only)…
  EXPECT_NO_THROW(WireCodec(
      wire::parse_wire_spec("wire w { v : u16 @0 = 1; }"), ft));
  // …and a rename map redirects wire names onto table names, the egress
  // output_map() hook.
  const WireCodec renamed(
      wire::parse_wire_spec("wire w { big : u32 @0; }"), ft,
      {{"big", "machine_big"}});
  Packet p(ft.size());
  p.set(ft.id_of("machine_big"), 0x11223344);
  EXPECT_EQ(renamed.deparse(p),
            (std::vector<std::uint8_t>{0x11, 0x22, 0x33, 0x44}));
}

TEST(WireCodecTest, UndersizedPacketsAreRefusedUpFront) {
  const banzai::FieldTable ft = demo_table();
  const WireCodec codec(wire::parse_wire_spec(kDemoSpec), ft);
  Packet tiny(1);  // fewer fields than the bound table
  std::vector<std::uint8_t> frame(codec.header_bytes(), 0);
  EXPECT_THROW(codec.parse(frame.data(), frame.size(), tiny),
               std::logic_error);
  EXPECT_THROW(codec.deparse(tiny), std::logic_error);
}

// ---- pcap ------------------------------------------------------------------

TEST(PcapTest, WriteReadRoundTripBothPrecisionsAndFiles) {
  wire::PcapFile file;
  file.nanosecond = true;
  file.linktype = 147;  // DLT_USER0
  for (int i = 0; i < 5; ++i) {
    wire::PcapPacket p;
    p.ts_sec = 1700000000u + static_cast<std::uint32_t>(i);
    p.ts_frac = static_cast<std::uint32_t>(i * 1000);
    p.bytes.assign(static_cast<std::size_t>(3 + i),
                   static_cast<std::uint8_t>(i));
    file.packets.push_back(std::move(p));
  }
  const std::vector<std::uint8_t> blob = wire::write_pcap(file);
  const wire::PcapReadResult r = wire::read_pcap(blob.data(), blob.size());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.file.nanosecond);
  EXPECT_EQ(r.file.linktype, 147u);
  ASSERT_EQ(r.file.packets.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.file.packets[static_cast<std::size_t>(i)].bytes,
              file.packets[static_cast<std::size_t>(i)].bytes);
    EXPECT_EQ(r.file.packets[static_cast<std::size_t>(i)].ts_frac,
              static_cast<std::uint32_t>(i * 1000));
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "wire-test-roundtrip.pcap")
          .string();
  ASSERT_TRUE(wire::write_pcap_file(path, file));
  const wire::PcapReadResult rf = wire::read_pcap_file(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(rf.ok()) << rf.error;
  EXPECT_EQ(rf.file.packets.size(), 5u);
}

TEST(PcapTest, MalformedCapturesRejectWithTypedReasons) {
  // Not a pcap at all.
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5};
  EXPECT_NE(wire::read_pcap(junk.data(), junk.size())
                .error.find("global header"),
            std::string::npos);
  std::vector<std::uint8_t> badmagic(24, 0);
  EXPECT_NE(wire::read_pcap(badmagic.data(), badmagic.size())
                .error.find("not a classic pcap"),
            std::string::npos);

  // A record claiming more bytes than remain: the packets before the damage
  // survive, the error names the offset.
  wire::PcapFile file;
  wire::PcapPacket ok_pkt;
  ok_pkt.bytes = {0xAA, 0xBB};
  file.packets.push_back(ok_pkt);
  std::vector<std::uint8_t> blob = wire::write_pcap(file);
  const std::size_t lie_at = 24 + 8;  // first record's incl_len
  blob[lie_at] = 0xFF;               // claims 255 bytes, 2 present
  const auto r = wire::read_pcap(blob.data(), blob.size());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("truncated pcap"), std::string::npos) << r.error;
  EXPECT_EQ(r.file.packets.size(), 0u);

  // Snaplen-cap violation is "corrupt", not "truncated".
  blob = wire::write_pcap(file);
  blob[lie_at + 2] = 0x40;  // incl_len = 0x0040xxxx > 262144
  const auto r2 = wire::read_pcap(blob.data(), blob.size());
  EXPECT_NE(r2.error.find("corrupt pcap"), std::string::npos) << r2.error;
}

// ---- corpus coverage and the round-trip differential -----------------------

TEST(WireCorpusTest, EveryAlgorithmDeclaresAParsableSpecCoveringItsInputs) {
  for (const auto& alg : algorithms::corpus()) {
    ASSERT_FALSE(alg.wire_spec.empty()) << alg.name;
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    // Led by a const-checked magic so garbage is rejectable.
    ASSERT_FALSE(spec.fields.empty()) << alg.name;
    EXPECT_TRUE(spec.fields[0].has_expect)
        << alg.name << ": first field must be a const-checked magic";
    for (const std::string& in : alg.input_fields)
      EXPECT_NE(spec.find(in), nullptr)
          << alg.name << " wire spec is missing input field " << in;
  }
}

TEST(WireCorpusTest, RoundTripMatchesFieldVectorPathBitExactly) {
  // The tentpole differential: for every corpus algorithm, running packets
  // through wire bytes (deparse workload -> parse -> machine -> deparse)
  // must equal running the same workload through the field-vector path —
  // same egress frames, same machine state.
  constexpr int kPackets = 300;
  for (const auto& alg : algorithms::corpus()) {
    // CoDel doesn't map to any paper atom (Table 4); the LUT-extended
    // target covers it, as in the differential suite.
    const auto target = alg.paper_least_atom == "Doesn't map"
                            ? std::optional<atoms::BanzaiTarget>(
                                  atoms::lut_extended_target())
                            : test_util::least_target(alg.source);
    ASSERT_TRUE(target.has_value()) << alg.name;
    auto via_fields = domino::compile(alg.source, *target);
    auto via_wire = domino::compile(alg.source, *target);
    const auto& ft = via_fields.machine().fields();
    const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
    const WireCodec rx(spec, ft);
    const WireCodec tx(spec, ft, via_fields.output_map());

    std::mt19937 rng(99);
    std::mt19937 rng2(99);
    Packet parsed(rx.num_table_fields());
    for (int i = 0; i < kPackets; ++i) {
      std::map<std::string, banzai::Value> f;
      alg.workload(rng, i, f);
      Packet direct(ft.size());
      for (const auto& [k, v] : f)
        if (ft.try_id_of(k).has_value()) direct.set(ft.id_of(k), v);
      std::map<std::string, banzai::Value> f2;
      alg.workload(rng2, i, f2);

      // Wire path: render the workload as a frame, parse it back, process.
      const std::vector<std::uint8_t> frame = rx.deparse(direct);
      const auto r = rx.parse(frame.data(), frame.size(), parsed);
      ASSERT_TRUE(r.ok()) << alg.name << " pkt " << i << ": "
                          << wire::to_string(r.status);
      const Packet out_fields = via_fields.machine().process(direct);
      const Packet out_wire = via_wire.machine().process(parsed);
      ASSERT_EQ(tx.deparse(out_fields), tx.deparse(out_wire))
          << alg.name << " pkt " << i;
    }
    EXPECT_TRUE(via_fields.machine().state() == via_wire.machine().state())
        << alg.name << ": state diverged between field and wire paths";
  }
}

// ---- the service byte path -------------------------------------------------

TEST(WireServiceTest, ByteStreamIngestMatchesSequentialReference) {
  constexpr std::size_t kSlots = 8;
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const auto f_sport = ft.id_of("sport");
  const auto f_dport = ft.id_of("dport");
  const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const WireCodec>(spec, ft);
  auto tx =
      std::make_shared<const WireCodec>(spec, ft, compiled.output_map());

  std::mt19937 rng(4242);
  std::vector<Packet> inputs;
  for (int i = 0; i < 4000; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    inputs.push_back(std::move(p));
  }

  std::vector<banzai::Machine> reference;
  for (std::size_t v = 0; v < kSlots; ++v)
    reference.push_back(compiled.machine().clone());
  auto slot_of = [&](const Packet& p) {
    std::uint64_t h = 0;
    for (banzai::FieldId f : {f_sport, f_dport})
      h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(p.get(f))));
    return static_cast<std::size_t>(h % kSlots);
  };
  std::vector<std::vector<std::uint8_t>> expected;
  for (const Packet& p : inputs)
    expected.push_back(tx->deparse(reference[slot_of(p)].process(p)));

  banzai::ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = kSlots;
  cfg.batch_size = 128;
  cfg.ring_capacity = 512;
  cfg.flow_key = {f_sport, f_dport};
  banzai::FleetService svc(compiled.machine(), cfg);
  // Codec changes are lifecycle-locked like snapshot/restore.
  EXPECT_THROW(svc.ingest_frame(nullptr, 0), std::logic_error)
      << "byte ingest without a codec must refuse";
  svc.set_wire(rx, tx);
  svc.start();
  EXPECT_THROW(svc.set_wire(rx, tx), std::logic_error);

  std::uint64_t rejected = 0;
  const std::vector<std::uint8_t> runt = {0xD0};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<std::uint8_t> frame = rx->deparse(inputs[i]);
    const auto in = svc.ingest_frame(frame.data(), frame.size());
    ASSERT_TRUE(in.parse.ok());
    ASSERT_TRUE(in.accepted);
    if (i % 500 == 0) {  // interleave garbage: must not disturb the stream
      EXPECT_EQ(svc.ingest_frame(runt.data(), runt.size()).parse.status,
                ParseStatus::kTruncated);
      ++rejected;
    }
  }
  svc.flush();
  const auto frames = svc.drain_egress_frames();
  const auto st = svc.stats();
  svc.stop();

  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    ASSERT_EQ(frames[i], expected[i]) << "frame " << i;
  EXPECT_EQ(st.wire.frames_parsed, inputs.size());
  EXPECT_EQ(st.wire.frames_rejected, rejected);
  EXPECT_EQ(st.wire.reject_truncated, rejected);
  EXPECT_EQ(st.wire.bytes_in, inputs.size() * rx->header_bytes());
  EXPECT_EQ(st.wire.bytes_out, expected.size() * tx->header_bytes());
  for (std::size_t v = 0; v < kSlots; ++v)
    EXPECT_TRUE(svc.slot_machine(v).state() == reference[v].state())
        << "slot " << v;
}

// DropTail on the byte path: a flood into 8-slot rings with runts mixed in.
// Every frame is exactly one of a typed reject, a shed (parsed, refused by
// a full ring, counted in dropped) or delivered, and the delivered bytes
// are the sequential reference over the accepted frames alone: a shed
// frame's row stays with the ingest side and never reaches a ring.
TEST(WireServiceTest, DropTailByteIngestAccountsForEveryFrame) {
  constexpr std::size_t kSlots = 8;
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const auto f_sport = ft.id_of("sport");
  const auto f_dport = ft.id_of("dport");
  const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const WireCodec>(spec, ft);
  auto tx =
      std::make_shared<const WireCodec>(spec, ft, compiled.output_map());

  banzai::ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = kSlots;
  cfg.batch_size = 8;
  cfg.ring_capacity = 8;
  cfg.backpressure = banzai::Backpressure::kDropTail;
  cfg.flow_key = {f_sport, f_dport};
  banzai::FleetService svc(compiled.machine(), cfg);
  svc.set_wire(rx, tx);
  svc.start();

  std::mt19937 rng(2718);
  const std::vector<std::uint8_t> runt = {0xD0, 0x03, 0x00};
  std::vector<Packet> accepted;
  std::uint64_t rejected = 0, shed = 0, offered = 0;
  for (int i = 0; i < 20000; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    const std::vector<std::uint8_t> frame =
        i % 7 == 3 ? runt : rx->deparse(p);
    const auto in = svc.ingest_frame(frame.data(), frame.size());
    ++offered;
    if (!in.parse.ok()) {
      ASSERT_EQ(in.parse.status, ParseStatus::kTruncated) << "frame " << i;
      ASSERT_FALSE(in.accepted);
      ++rejected;
    } else if (in.accepted) {
      accepted.push_back(std::move(p));
    } else {
      ++shed;
    }
  }
  svc.flush();
  const auto frames = svc.drain_egress_frames();
  const auto st = svc.stats();
  svc.stop();

  EXPECT_EQ(rejected + shed + accepted.size(), offered);
  EXPECT_EQ(st.wire.frames_rejected, rejected);
  EXPECT_EQ(st.wire.reject_truncated, rejected);
  EXPECT_EQ(st.wire.frames_parsed, shed + accepted.size());
  EXPECT_EQ(st.ingested, shed + accepted.size());
  EXPECT_EQ(st.dropped, shed);
  EXPECT_EQ(st.delivered, accepted.size());
  // A flood through 8-slot rings must shed: ingest is far cheaper than
  // pipeline execution.
  EXPECT_GT(shed, 0u);

  std::vector<banzai::Machine> reference;
  for (std::size_t v = 0; v < kSlots; ++v)
    reference.push_back(compiled.machine().clone());
  auto slot_of = [&](const Packet& p) {
    std::uint64_t h = 0;
    for (banzai::FieldId fid : {f_sport, f_dport})
      h = netsim::mix64(h ^ static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(p.get(fid))));
    return static_cast<std::size_t>(h % kSlots);
  };
  ASSERT_EQ(frames.size(), accepted.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    ASSERT_EQ(frames[i],
              tx->deparse(reference[slot_of(accepted[i])].process(accepted[i])))
        << "frame " << i;
}

// drain_egress_frames comes in two forms over one drain loop: a byte vector
// per frame, or every frame back to back in a caller's reused buffer.  Two
// services fed the same heavy_hitters stream, malformed frames of every
// reject kind included, drain the same bytes either way and count the same
// bytes out.
TEST(WireServiceTest, BufferDrainMatchesVectorDrainByteForByte) {
  const auto& alg = algorithms::algorithm("heavy_hitters");
  const auto target = test_util::least_target(alg.source);
  ASSERT_TRUE(target.has_value());
  auto compiled = domino::compile(alg.source, *target);
  const auto& ft = compiled.machine().fields();
  const WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const WireCodec>(spec, ft);
  auto tx = std::make_shared<const WireCodec>(spec, ft, compiled.output_map());
  const std::size_t hb = tx->header_bytes();

  banzai::ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = 8;
  cfg.batch_size = 32;
  cfg.ring_capacity = 256;
  for (const char* f : {"srcip", "dstip", "sport", "dport", "proto"})
    cfg.flow_key.push_back(ft.id_of(f));
  banzai::FleetService by_vector(compiled.machine(), cfg);
  banzai::FleetService by_buffer(compiled.machine(), cfg);
  for (banzai::FleetService* svc : {&by_vector, &by_buffer}) {
    svc->set_wire(rx, tx);
    svc->start();
  }

  std::mt19937 rng(4242);
  std::vector<std::uint8_t> from_vectors, from_buffer, buffer;
  std::size_t vector_frames = 0, buffer_frames = 0;
  auto drain = [&] {
    for (const auto& f : by_vector.drain_egress_frames()) {
      ASSERT_EQ(f.size(), hb);
      from_vectors.insert(from_vectors.end(), f.begin(), f.end());
      ++vector_frames;
    }
    buffer.clear();  // reused: the frames land over the last drain's bytes
    const std::size_t n = by_buffer.drain_egress_frames(buffer);
    ASSERT_EQ(buffer.size(), n * hb);
    from_buffer.insert(from_buffer.end(), buffer.begin(), buffer.end());
    buffer_frames += n;
  };
  for (int i = 0; i < 3000; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    std::vector<std::uint8_t> frame = rx->deparse(p);
    switch (i % 10) {  // 30% malformed: truncated, oversized, bad magic
      case 3: frame.pop_back(); break;
      case 6: frame.push_back(0); break;
      case 9: frame[0] ^= 0xFF; break;
      default: break;
    }
    for (banzai::FleetService* svc : {&by_vector, &by_buffer})
      svc->ingest_frame(frame.data(), frame.size());
    if (i % 250 == 249) {
      for (banzai::FleetService* svc : {&by_vector, &by_buffer}) svc->flush();
      drain();
    }
  }
  for (banzai::FleetService* svc : {&by_vector, &by_buffer}) svc->flush();
  drain();
  const auto vs = by_vector.stats();
  const auto bs = by_buffer.stats();
  by_vector.stop();
  by_buffer.stop();

  EXPECT_EQ(vector_frames, 2100u);
  EXPECT_EQ(buffer_frames, vector_frames);
  EXPECT_EQ(from_buffer, from_vectors);
  EXPECT_EQ(vs.wire.frames_rejected, 900u);
  EXPECT_EQ(bs.wire.frames_rejected, vs.wire.frames_rejected);
  EXPECT_EQ(bs.wire.bytes_out, vs.wire.bytes_out);
  EXPECT_EQ(vs.wire.bytes_out, vector_frames * hb);
}

// Ring rows and egress cells are reused, so a reused row must read like a
// fresh Packet(n) to the pipeline: every field the frame does not carry is
// zero.  The hand-built program reads a field the wire omits before writing
// it (stage 0: c = t + a; stage 1: t = a), so a row that kept the previous
// packet's t would egress c = a + previous a.
TEST(WireServiceTest, ReusedRowsReadLikeFreshPackets) {
  banzai::FieldTable ft;
  const auto f_a = static_cast<std::uint32_t>(ft.intern("a"));
  const auto f_c = static_cast<std::uint32_t>(ft.intern("c"));
  const auto f_t = static_cast<std::uint32_t>(ft.intern("t"));
  auto kernel = std::make_shared<banzai::CompiledPipeline>();
  kernel->begin_stage();
  kernel->add_alu(banzai::KOp::kAdd, f_c, banzai::KSrc::field_ref(f_t),
                  banzai::KSrc::field_ref(f_a));
  kernel->begin_stage();
  kernel->add_alu(banzai::KOp::kMov, f_t, banzai::KSrc::field_ref(f_a));
  kernel->seal(ft.size());
  banzai::Machine m(banzai::MachineSpec{"rows", "RAW", 2, 300, 10}, ft);
  m.set_kernel(std::move(kernel));

  auto codec = std::make_shared<const WireCodec>(
      wire::parse_wire_spec("wire w { a : u32 be @0; c : u32 be @4; }"), ft);
  banzai::ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.num_slots = 4;
  cfg.batch_size = 4;
  cfg.ring_capacity = 8;
  cfg.flow_key = {f_a};
  banzai::FleetService svc(m, cfg);
  svc.set_wire(codec);
  svc.start();

  constexpr int kFrames = 5000;  // the 8-row rings wrap hundreds of times
  std::vector<std::vector<std::uint8_t>> egress;
  Packet in(ft.size());
  for (int i = 0; i < kFrames; ++i) {
    in.set(f_a, 1000 + i);
    in.set(f_c, 0x5a5a);  // overwritten by stage 0
    const auto frame = codec->deparse(in);
    ASSERT_TRUE(svc.ingest_frame(frame.data(), frame.size()).accepted);
    if (i % 100 == 99) {  // recycle the egress cells too
      svc.flush();
      for (auto& f : svc.drain_egress_frames()) egress.push_back(std::move(f));
    }
  }
  svc.flush();
  for (auto& f : svc.drain_egress_frames()) egress.push_back(std::move(f));
  svc.stop();

  ASSERT_EQ(egress.size(), static_cast<std::size_t>(kFrames));
  Packet out(ft.size());
  for (int i = 0; i < kFrames; ++i) {
    const auto& frame = egress[static_cast<std::size_t>(i)];
    ASSERT_TRUE(codec->parse_exact(frame.data(), frame.size(), out).ok());
    ASSERT_EQ(out.get(f_a), 1000 + i);
    ASSERT_EQ(out.get(f_c), 1000 + i) << "frame " << i << " read a stale row";
  }
}

}  // namespace
