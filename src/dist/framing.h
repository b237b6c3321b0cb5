// Inter-process frame format for the distributed fleet (src/dist/).
//
// Every message on a front-tier <-> worker connection is length-prefixed:
//
//   u32 payload_len (LE) | u8 type | payload bytes ...
//
// and every payload is built from the same little-endian primitives, so the
// format is identical across hosts (the PR 7 wire codecs already made packet
// *contents* a validated byte format; this layer does the same for the RPC
// envelope around them).  Decoding is as paranoid as wire::WireCodec::parse:
// every read is bounds-checked, a malformed payload raises FramingError
// before any state is touched, and messages above kMaxMessageBytes are
// rejected outright so a corrupt length prefix can never drive a
// multi-gigabyte allocation.
//
// StateStore serialization (the live-migration payload) is canonical:
// variables are emitted sorted by name, so two snapshots of equal stores are
// byte-identical and the digests in tests can compare blobs directly.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "banzai/state.h"

namespace dist {

// Protocol version, checked in the HELLO exchange; bump on any change to the
// message encodings below or their semantics (v2: an empty RestoreReq state
// blob means "reset the slot to pristine initial state"; v3: HelloAck
// carries the worker's incarnation).
constexpr std::uint32_t kProtocolVersion = 3;

// Upper bound on one message's payload: a full-fleet snapshot of corpus-sized
// state is well under a megabyte, so 64 MiB is generous headroom while still
// rejecting garbage length prefixes immediately.
constexpr std::size_t kMaxMessageBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,         // front -> worker: version, algorithm, slot count
  kHelloAck = 2,      // worker -> front: accepted, echoes its configuration
  kIngestBatch = 3,   // front -> worker: (seq, slot, frame bytes) records
  kIngestAck = 4,     // worker -> front: per-frame status + egress piggyback
  kHeartbeat = 5,     // front -> worker: liveness probe (nonce)
  kHeartbeatAck = 6,  // worker -> front: nonce echo + egress piggyback
  kSnapshotReq = 7,   // front -> worker: checkpoint barrier (flush + state)
  kSnapshotResp = 8,  // worker -> front: per-slot blobs + settled egress
  kRestoreReq = 9,    // front -> worker: install slot state (migration)
  kRestoreAck = 10,   // worker -> front: accepted
  kSwapEngine = 11,   // front -> worker: drain + rebuild on another engine
  kSwapAck = 12,      // worker -> front: accepted, reports active engine
  kFlushReq = 13,     // front -> worker: settle everything accepted so far
  kFlushAck = 14,     // worker -> front: done + egress piggyback
  kStop = 15,         // front -> worker: exit the serve loop (graceful)
  kError = 16,        // worker -> front: typed failure, state untouched
};

const char* to_string(MsgType t);

// Raised on any malformed payload (truncated read, trailing bytes, length
// bound exceeded).  The decoder throws before mutating anything.
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- little-endian primitives ----------------------------------------------

// Append-only writer over a byte vector.  Encoders reserve() the payload's
// exact size first, and every field goes in as one bulk append.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void bytes(const std::uint8_t* p, std::size_t n) {
    out_.insert(out_.end(), p, p + n);
  }
  // n values as consecutive u32 LE: one memcpy on a little-endian host.
  void u32s(const std::int32_t* p, std::size_t n);
  void str(const std::string& s);    // u16 length + bytes
  void blob(const std::uint8_t* p, std::size_t n);  // u32 length + bytes
  void blob(const std::vector<std::uint8_t>& b) { blob(b.data(), b.size()); }

 private:
  template <typename T>
  void le(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t>& out_;
};

// Bounds-checked reader; every accessor throws FramingError on underrun.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  std::vector<std::uint8_t> blob();
  // A u32-length-prefixed field left in place: sets `len` and returns a
  // pointer into the payload being read.
  const std::uint8_t* blob_view(std::size_t& len);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // Decoders call this last: trailing bytes mean a version mismatch or
  // corruption, both of which must be loud.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// ---- message payload structs -----------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string algorithm;     // corpus algorithm name; must match the worker
  std::uint32_t num_slots = 0;
  std::uint32_t header_bytes = 0;  // wire codec header size, cross-checked
};

struct HelloAck {
  std::uint32_t num_slots = 0;
  std::uint8_t engine = 0;  // banzai::ExecEngine the worker runs on
  // Names the worker's current state: drawn afresh whenever the worker
  // starts from empty (a new process, a kill()).  A front that reconnects
  // and finds another value knows the slots it had there are gone.
  std::uint64_t incarnation = 0;
};

struct FrameRecord {
  std::uint64_t seq = 0;   // front-tier global sequence number
  std::uint32_t slot = 0;  // flow-hash slot (the migration unit)
  std::vector<std::uint8_t> bytes;
};

struct IngestBatch {
  std::vector<FrameRecord> frames;
};

// One frame of an IngestBatch, left where its bytes lie: in a decoded
// request payload (the worker applies straight from it) or in the front's
// frame log (the front encodes batches from it).  The bytes must outlive
// the view.
struct FrameView {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

struct IngestBatchView {
  std::vector<FrameView> frames;
};

// Encoded sizes of an IngestBatch: the fixed head, plus one record per
// frame.  The front cuts batches by these so no request outgrows a message.
constexpr std::size_t kIngestHeadBytes = 4;
constexpr std::size_t ingest_record_bytes(std::size_t frame_len) {
  return 8 + 4 + 4 + frame_len;
}

// Per-frame verdict in an IngestAck.  kDuplicate is the at-least-once path
// working as designed: a replayed or duplicated frame whose seq the worker
// already applied for that slot.
enum class FrameStatus : std::uint8_t {
  kAccepted = 0,
  kDuplicate = 1,
  kRejectTruncated = 2,
  kRejectOversized = 3,
  kRejectBadValue = 4,
};

struct EgressRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> bytes;
};

struct IngestAck {
  std::vector<std::uint64_t> seqs;        // parallel to statuses
  std::vector<FrameStatus> statuses;
  std::vector<EgressRecord> egress;       // settled egress, seq-tagged
};

struct Heartbeat {
  std::uint64_t nonce = 0;
};

struct HeartbeatAck {
  std::uint64_t nonce = 0;
  std::uint64_t delivered = 0;            // worker-side delivered counter
  std::vector<EgressRecord> egress;
};

struct SnapshotReq {
  std::vector<std::uint32_t> slots;  // empty = all slots
};

struct SlotState {
  std::uint32_t slot = 0;
  std::uint64_t applied_seq = 0;     // highest global seq applied to the slot
  std::vector<std::uint8_t> state;   // serialize_state_store blob
};

struct SnapshotResp {
  std::vector<SlotState> slots;
  std::vector<EgressRecord> egress;  // settled by the snapshot barrier
};

// One slot of a SnapshotResp as the worker encodes it: the state blob is
// serialized straight from the live store into the reply payload.
struct SlotStateRef {
  std::uint32_t slot = 0;
  std::uint64_t applied_seq = 0;
  const banzai::StateStore* state = nullptr;
};

struct RestoreReq {
  std::vector<SlotState> slots;
};

struct SwapEngine {
  std::uint8_t engine = 0;  // banzai::ExecEngine
};

struct SwapAck {
  std::uint8_t active_engine = 0;
};

struct FlushAck {
  std::vector<EgressRecord> egress;
};

struct ErrorMsg {
  std::string message;
};

// ---- encoders / decoders ---------------------------------------------------
//
// encode_* produce the payload only; the (length, type) envelope is written
// by rpc::Conn::send_msg.  decode_* consume the payload and throw
// FramingError on any malformation.

std::vector<std::uint8_t> encode_hello(const Hello& m);
Hello decode_hello(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m);
HelloAck decode_hello_ack(const std::uint8_t* p, std::size_t n);
// The one batch encoder: frame bytes are copied from wherever the views
// point (the front's frame logs) straight into the payload.
std::vector<std::uint8_t> encode_ingest_batch(
    const std::vector<FrameView>& frames);
// The same bytes for a batch of owned records.
std::vector<std::uint8_t> encode_ingest_batch(const IngestBatch& m);
IngestBatch decode_ingest_batch(const std::uint8_t* p, std::size_t n);
// Validates the whole batch (same checks as decode_ingest_batch) before
// returning views into `p`.
IngestBatchView view_ingest_batch(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_ingest_ack(const IngestAck& m);
IngestAck decode_ingest_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_heartbeat(const Heartbeat& m);
Heartbeat decode_heartbeat(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_heartbeat_ack(const HeartbeatAck& m);
HeartbeatAck decode_heartbeat_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_snapshot_req(const SnapshotReq& m);
SnapshotReq decode_snapshot_req(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_snapshot_resp(const SnapshotResp& m);
// Byte-identical to encode_snapshot_resp of the SnapshotResp whose blobs are
// serialize_state_store(*slots[i].state), without building those blobs.
std::vector<std::uint8_t> encode_snapshot_resp(
    const std::vector<SlotStateRef>& slots,
    const std::vector<EgressRecord>& egress);
SnapshotResp decode_snapshot_resp(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_restore_req(const RestoreReq& m);
RestoreReq decode_restore_req(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_swap_engine(const SwapEngine& m);
SwapEngine decode_swap_engine(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_swap_ack(const SwapAck& m);
SwapAck decode_swap_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_flush_ack(const FlushAck& m);
FlushAck decode_flush_ack(const std::uint8_t* p, std::size_t n);
std::vector<std::uint8_t> encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::uint8_t* p, std::size_t n);

// ---- StateStore <-> bytes (the migration payload) --------------------------
//
// Canonical encoding: u32 var count, then per variable (sorted by name)
// u16 name length + name, u8 scalar flag, u32 cell count, cells as u32 LE.
// deserialize_state_store validates the whole blob (throws FramingError)
// before returning, so a caller that then shape-checks against its live
// store (StateStore::same_shape / restore) can guarantee the corrupt-payload
// contract: reject cleanly, store untouched.
std::vector<std::uint8_t> serialize_state_store(const banzai::StateStore& s);
banzai::StateStore deserialize_state_store(const std::uint8_t* p,
                                           std::size_t n);

}  // namespace dist
