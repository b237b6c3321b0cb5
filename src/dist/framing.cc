#include "dist/framing.h"

#include <algorithm>

namespace dist {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kIngestBatch: return "ingest_batch";
    case MsgType::kIngestAck: return "ingest_ack";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat_ack";
    case MsgType::kSnapshotReq: return "snapshot_req";
    case MsgType::kSnapshotResp: return "snapshot_resp";
    case MsgType::kRestoreReq: return "restore_req";
    case MsgType::kRestoreAck: return "restore_ack";
    case MsgType::kSwapEngine: return "swap_engine";
    case MsgType::kSwapAck: return "swap_ack";
    case MsgType::kFlushReq: return "flush_req";
    case MsgType::kFlushAck: return "flush_ack";
    case MsgType::kStop: return "stop";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

Writer::Writer(std::vector<std::uint8_t>& out)
    : out_(out),
      sized_(false),
      p_(out.data() + out.size()),
      end_(p_) {}

Writer::Writer(std::vector<std::uint8_t>& out, std::size_t size)
    : out_(out), sized_(true) {
  // A reused buffer grows at least twofold, so payloads that creep up in
  // size do not each reallocate it.
  if (size > out.capacity()) {
    out.clear();
    out.reserve(std::max(size, 2 * out.capacity()));
  }
  out.resize(size);
  p_ = out.data();
  end_ = p_ + size;
}

void Writer::grow(std::size_t n) {
  if (sized_)
    throw std::logic_error("Writer: field past the payload's computed size");
  const std::size_t at = out_.size();
  out_.resize(at + n);
  p_ = out_.data() + at;
  end_ = p_ + n;
}

void Writer::u32s(const std::int32_t* p, std::size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  bytes(reinterpret_cast<const std::uint8_t*>(p), 4 * n);
#else
  for (std::size_t i = 0; i < n; ++i) u32(static_cast<std::uint32_t>(p[i]));
#endif
}

void Writer::str(const std::string& s) {
  if (s.size() > 0xFFFF) throw FramingError("string exceeds u16 length");
  u16(static_cast<std::uint16_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Writer::blob(const std::uint8_t* p, std::size_t n) {
  if (n > kMaxMessageBytes) throw FramingError("blob exceeds bound");
  u32(static_cast<std::uint32_t>(n));
  bytes(p, n);
}

void Reader::need(std::size_t n) const {
  if (static_cast<std::size_t>(end_ - p_) < n)
    throw FramingError("truncated payload");
}

std::uint8_t Reader::u8() {
  need(1);
  return *p_++;
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(p_[0]) |
                    static_cast<std::uint16_t>(p_[1]) << 8;
  p_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  return v;
}

std::string Reader::str() {
  const std::size_t n = u16();
  need(n);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

const std::uint8_t* Reader::blob_view(std::size_t& len) {
  const std::size_t n = u32();
  if (n > kMaxMessageBytes) throw FramingError("blob length exceeds bound");
  need(n);
  const std::uint8_t* at = p_;
  p_ += n;
  len = n;
  return at;
}

std::vector<std::uint8_t> Reader::blob() {
  std::size_t n = 0;
  const std::uint8_t* at = blob_view(n);
  return std::vector<std::uint8_t>(at, at + n);
}

void Reader::expect_end() const {
  if (p_ != end_) throw FramingError("trailing bytes after payload");
}

namespace {

// The egress list every reply ends with, from either form: u32 count, then
// per record u64 seq and a u32-length-prefixed frame.
std::size_t egress_bytes(const std::vector<EgressRecord>& egress) {
  std::size_t n = 4;
  for (const EgressRecord& e : egress) n += 8 + 4 + e.bytes.size();
  return n;
}

std::size_t egress_bytes(const EgressColumns& egress) {
  return 4 + egress.size() * (8 + 4) + egress.frames.size();
}

std::size_t slot_states_bytes(const std::vector<SlotState>& slots) {
  std::size_t n = 4;
  for (const SlotState& s : slots) n += 4 + 8 + 4 + s.state.size();
  return n;
}

// A store's variables in canonical (name) order.
using SortedVars =
    std::vector<std::pair<const std::string*, const banzai::StateVar*>>;

SortedVars sorted_vars(const banzai::StateStore& s) {
  SortedVars vars;
  vars.reserve(s.vars().size());
  for (const auto& [name, var] : s.vars()) vars.emplace_back(&name, &var);
  std::sort(vars.begin(), vars.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  return vars;
}

std::size_t state_bytes(const SortedVars& vars) {
  std::size_t n = 4;
  for (const auto& [name, var] : vars)
    n += 2 + name->size() + 1 + 4 + 4 * var->size();
  return n;
}

// The canonical blob body (see serialize_state_store), without a length
// prefix.
void write_state(Writer& w, const SortedVars& vars) {
  w.u32(static_cast<std::uint32_t>(vars.size()));
  for (const auto& [name, var] : vars) {
    w.str(*name);
    w.u8(var->is_scalar() ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(var->size()));
    w.u32s(var->cells().data(), var->size());
  }
}

void write_egress(Writer& w, const std::vector<EgressRecord>& egress) {
  w.u32(static_cast<std::uint32_t>(egress.size()));
  for (const EgressRecord& e : egress) {
    w.u64(e.seq);
    w.blob(e.bytes);
  }
}

void write_egress(Writer& w, const EgressColumns& egress) {
  w.u32(static_cast<std::uint32_t>(egress.size()));
  for (std::size_t i = 0; i < egress.size(); ++i) {
    w.u64(egress.seqs[i]);
    w.blob(egress.frames.data() + i * egress.frame_len, egress.frame_len);
  }
}

// Appends the records to `out` (a reused vector keeps its capacity).
void read_egress(Reader& r, std::vector<EgressRecord>& out) {
  const std::uint32_t n = r.u32();
  if (n > kMaxMessageBytes / 8) throw FramingError("egress count exceeds bound");
  out.reserve(out.size() + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EgressRecord e;
    e.seq = r.u64();
    e.bytes = r.blob();
    out.push_back(std::move(e));
  }
}

std::vector<EgressRecord> read_egress(Reader& r) {
  std::vector<EgressRecord> out;
  read_egress(r, out);
  return out;
}

void write_slot_states(Writer& w, const std::vector<SlotState>& slots) {
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const SlotState& s : slots) {
    w.u32(s.slot);
    w.u64(s.applied_seq);
    w.blob(s.state);
  }
}

std::vector<SlotState> read_slot_states(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxMessageBytes / 8) throw FramingError("slot count exceeds bound");
  std::vector<SlotState> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SlotState s;
    s.slot = r.u32();
    s.applied_seq = r.u64();
    s.state = r.blob();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const Hello& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 4 + 2 + m.algorithm.size() + 4 + 4);
  w.u32(m.version);
  w.str(m.algorithm);
  w.u32(m.num_slots);
  w.u32(m.header_bytes);
  return out;
}

Hello decode_hello(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  Hello m;
  m.version = r.u32();
  m.algorithm = r.str();
  m.num_slots = r.u32();
  m.header_bytes = r.u32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 4 + 1 + 8);
  w.u32(m.num_slots);
  w.u8(m.engine);
  w.u64(m.incarnation);
  return out;
}

HelloAck decode_hello_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  HelloAck m;
  m.num_slots = r.u32();
  m.engine = r.u8();
  m.incarnation = r.u64();
  r.expect_end();
  return m;
}

void encode_ingest_batch(const std::vector<FrameView>& frames,
                         std::vector<std::uint8_t>& out) {
  std::size_t size = kIngestHeadBytes;
  for (const FrameView& f : frames) size += ingest_record_bytes(f.len);
  Writer w(out, size);
  w.u32(static_cast<std::uint32_t>(frames.size()));
  for (const FrameView& f : frames) {
    w.u64(f.seq);
    w.u32(f.slot);
    w.blob(f.data, f.len);
  }
}

std::vector<std::uint8_t> encode_ingest_batch(
    const std::vector<FrameView>& frames) {
  std::vector<std::uint8_t> out;
  encode_ingest_batch(frames, out);
  return out;
}

std::vector<std::uint8_t> encode_ingest_batch(const IngestBatch& m) {
  std::vector<FrameView> views;
  views.reserve(m.frames.size());
  for (const FrameRecord& f : m.frames)
    views.push_back({f.seq, f.slot, f.bytes.data(), f.bytes.size()});
  return encode_ingest_batch(views);
}

IngestBatchView view_ingest_batch(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  IngestBatchView m;
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 8)
    throw FramingError("frame count exceeds bound");
  // Every record takes at least ingest_record_bytes(0): a count the payload
  // cannot hold is garbage, refused before anything is reserved for it.
  if (count > r.remaining() / ingest_record_bytes(0))
    throw FramingError("frame count exceeds payload");
  m.frames.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FrameView f;
    f.seq = r.u64();
    f.slot = r.u32();
    f.data = r.blob_view(f.len);
    m.frames.push_back(f);
  }
  r.expect_end();
  return m;
}

IngestBatch decode_ingest_batch(const std::uint8_t* p, std::size_t n) {
  const IngestBatchView view = view_ingest_batch(p, n);
  IngestBatch m;
  m.frames.reserve(view.frames.size());
  for (const FrameView& f : view.frames)
    m.frames.push_back({f.seq, f.slot, {f.data, f.data + f.len}});
  return m;
}

namespace {

template <typename Egress>
void write_ingest_ack(const std::vector<std::uint64_t>& seqs,
                      const std::vector<FrameStatus>& statuses,
                      const Egress& egress, std::vector<std::uint8_t>& out) {
  if (seqs.size() != statuses.size())
    throw FramingError("ingest ack: seqs/statuses size mismatch");
  Writer w(out, 4 + 9 * seqs.size() + egress_bytes(egress));
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    w.u64(seqs[i]);
    w.u8(static_cast<std::uint8_t>(statuses[i]));
  }
  write_egress(w, egress);
}

}  // namespace

std::vector<std::uint8_t> encode_ingest_ack(const IngestAck& m) {
  std::vector<std::uint8_t> out;
  write_ingest_ack(m.seqs, m.statuses, m.egress, out);
  return out;
}

void encode_ingest_ack(const std::vector<std::uint64_t>& seqs,
                       const std::vector<FrameStatus>& statuses,
                       const EgressColumns& egress,
                       std::vector<std::uint8_t>& out) {
  write_ingest_ack(seqs, statuses, egress, out);
}

void decode_ingest_ack(const std::uint8_t* p, std::size_t n, IngestAck& m) {
  Reader r(p, n);
  m.seqs.clear();
  m.statuses.clear();
  m.egress.clear();
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 8)
    throw FramingError("ack count exceeds bound");
  m.seqs.reserve(count);
  m.statuses.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    m.seqs.push_back(r.u64());
    const std::uint8_t s = r.u8();
    if (s > static_cast<std::uint8_t>(FrameStatus::kRejectBadValue))
      throw FramingError("unknown frame status");
    m.statuses.push_back(static_cast<FrameStatus>(s));
  }
  read_egress(r, m.egress);
  r.expect_end();
}

IngestAck decode_ingest_ack(const std::uint8_t* p, std::size_t n) {
  IngestAck m;
  decode_ingest_ack(p, n, m);
  return m;
}

std::vector<std::uint8_t> encode_heartbeat(const Heartbeat& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 8);
  w.u64(m.nonce);
  return out;
}

Heartbeat decode_heartbeat(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  Heartbeat m;
  m.nonce = r.u64();
  r.expect_end();
  return m;
}

namespace {

template <typename Egress>
void write_heartbeat_ack(std::uint64_t nonce, std::uint64_t delivered,
                         const Egress& egress,
                         std::vector<std::uint8_t>& out) {
  Writer w(out, 16 + egress_bytes(egress));
  w.u64(nonce);
  w.u64(delivered);
  write_egress(w, egress);
}

}  // namespace

std::vector<std::uint8_t> encode_heartbeat_ack(const HeartbeatAck& m) {
  std::vector<std::uint8_t> out;
  write_heartbeat_ack(m.nonce, m.delivered, m.egress, out);
  return out;
}

void encode_heartbeat_ack(std::uint64_t nonce, std::uint64_t delivered,
                          const EgressColumns& egress,
                          std::vector<std::uint8_t>& out) {
  write_heartbeat_ack(nonce, delivered, egress, out);
}

HeartbeatAck decode_heartbeat_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  HeartbeatAck m;
  m.nonce = r.u64();
  m.delivered = r.u64();
  m.egress = read_egress(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_snapshot_req(const SnapshotReq& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 4 + 4 * m.slots.size());
  w.u32(static_cast<std::uint32_t>(m.slots.size()));
  for (std::uint32_t s : m.slots) w.u32(s);
  return out;
}

SnapshotReq decode_snapshot_req(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SnapshotReq m;
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 4)
    throw FramingError("slot list exceeds bound");
  m.slots.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.slots.push_back(r.u32());
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_snapshot_resp(const SnapshotResp& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, slot_states_bytes(m.slots) + egress_bytes(m.egress));
  write_slot_states(w, m.slots);
  write_egress(w, m.egress);
  return out;
}

namespace {

template <typename Egress>
void write_snapshot_resp(const std::vector<SlotStateRef>& slots,
                         const Egress& egress,
                         std::vector<std::uint8_t>& out) {
  std::vector<SortedVars> vars;
  vars.reserve(slots.size());
  std::size_t size = 4 + egress_bytes(egress);
  for (const SlotStateRef& s : slots) {
    vars.push_back(sorted_vars(*s.state));
    size += 4 + 8 + 4 + state_bytes(vars.back());
  }
  Writer w(out, size);
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    w.u32(slots[i].slot);
    w.u64(slots[i].applied_seq);
    w.u32(static_cast<std::uint32_t>(state_bytes(vars[i])));
    write_state(w, vars[i]);
  }
  write_egress(w, egress);
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot_resp(
    const std::vector<SlotStateRef>& slots,
    const std::vector<EgressRecord>& egress) {
  std::vector<std::uint8_t> out;
  write_snapshot_resp(slots, egress, out);
  return out;
}

void encode_snapshot_resp(const std::vector<SlotStateRef>& slots,
                          const EgressColumns& egress,
                          std::vector<std::uint8_t>& out) {
  write_snapshot_resp(slots, egress, out);
}

SnapshotRespView view_snapshot_resp(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SnapshotRespView m;
  const std::uint32_t count = r.u32();
  if (count > kMaxMessageBytes / 8)
    throw FramingError("slot count exceeds bound");
  m.slots.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SlotStateView s;
    s.slot = r.u32();
    s.applied_seq = r.u64();
    s.state = r.blob_view(s.len);
    m.slots.push_back(s);
  }
  read_egress(r, m.egress);
  r.expect_end();
  return m;
}

SnapshotResp decode_snapshot_resp(const std::uint8_t* p, std::size_t n) {
  SnapshotRespView view = view_snapshot_resp(p, n);
  SnapshotResp m;
  m.slots.reserve(view.slots.size());
  for (const SlotStateView& s : view.slots)
    m.slots.push_back({s.slot, s.applied_seq, {s.state, s.state + s.len}});
  m.egress = std::move(view.egress);
  return m;
}

std::vector<std::uint8_t> encode_restore_req(const RestoreReq& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, slot_states_bytes(m.slots));
  write_slot_states(w, m.slots);
  return out;
}

RestoreReq decode_restore_req(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  RestoreReq m;
  m.slots = read_slot_states(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_swap_engine(const SwapEngine& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 1);
  w.u8(m.engine);
  return out;
}

SwapEngine decode_swap_engine(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SwapEngine m;
  m.engine = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_swap_ack(const SwapAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 1);
  w.u8(m.active_engine);
  return out;
}

SwapAck decode_swap_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  SwapAck m;
  m.active_engine = r.u8();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_flush_ack(const FlushAck& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, egress_bytes(m.egress));
  write_egress(w, m.egress);
  return out;
}

void encode_flush_ack(const EgressColumns& egress,
                      std::vector<std::uint8_t>& out) {
  Writer w(out, egress_bytes(egress));
  write_egress(w, egress);
}

FlushAck decode_flush_ack(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  FlushAck m;
  m.egress = read_egress(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  std::vector<std::uint8_t> out;
  Writer w(out, 2 + m.message.size());
  w.str(m.message);
  return out;
}

ErrorMsg decode_error(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  ErrorMsg m;
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_state_store(const banzai::StateStore& s) {
  const SortedVars vars = sorted_vars(s);
  std::vector<std::uint8_t> out;
  Writer w(out, state_bytes(vars));
  write_state(w, vars);
  return out;
}

banzai::StateStore deserialize_state_store(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r(p, n);
  banzai::StateStore store;
  const std::uint32_t nvars = r.u32();
  if (nvars > kMaxMessageBytes / 8)
    throw FramingError("state var count exceeds bound");
  for (std::uint32_t i = 0; i < nvars; ++i) {
    const std::string name = r.str();
    if (name.empty()) throw FramingError("state var with empty name");
    const bool scalar = r.u8() != 0;
    const std::uint32_t ncells = r.u32();
    if (ncells == 0 || ncells > kMaxMessageBytes / 4)
      throw FramingError("state var cell count out of range");
    if (scalar && ncells != 1)
      throw FramingError("scalar state var with more than one cell");
    if (store.contains(name)) throw FramingError("duplicate state var name");
    if (r.remaining() / 4 < ncells) throw FramingError("truncated payload");
    store.declare(name, ncells, scalar);
    banzai::Value* cells = store.var(name).data();
    for (std::uint32_t c = 0; c < ncells; ++c)
      cells[c] = static_cast<banzai::Value>(r.u32());
  }
  r.expect_end();
  return store;
}

}  // namespace dist
