// Flow-hash sharded execution of one compiled Banzai program, in two forms:
//
//   * ShardCore — the partition/drain engine both execution paths share.  One
//     compiled program is cloned into `num_slots` replicas ("slots", the
//     virtual shards of consistent hashing); a packet's flow key hashes to a
//     slot, and slots are dealt round-robin onto `num_shards` workers
//     (shard = slot % num_shards).  Because a slot carries its entire
//     StateStore, per-flow state can later be migrated to a different worker
//     count by moving whole slots — the mechanism behind FleetService's
//     snapshot → reshard → restore cycle.
//   * Fleet — the offline wrapper from PR 1: partition a whole trace, drain
//     every shard (optionally on worker threads), return.  It configures the
//     core with num_slots == num_shards, which reproduces the original
//     one-replica-per-shard behaviour bit for bit.
//
// What sharding preserves and what it gives up: flows that never share state
// cells behave identically to a single machine.  Flows on different slots no
// longer collide in shared state (e.g. two flows hashing to the same
// flowlet-table entry) — tests/fleet_test.cc pins down both sides of that
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "banzai/batch.h"
#include "banzai/machine.h"
#include "banzai/packet.h"

namespace banzai {

// The partition/drain core.  Thread-safety contract: calls for different
// shards may run concurrently (a shard's slots, the replica it runs on and
// its owner buffer are touched by no other shard because slot % num_shards
// is a partition); calls for the same shard must be serialized by the
// caller.
class ShardCore {
 public:
  ShardCore(const Machine& prototype, std::size_t num_slots,
            std::size_t num_shards, std::size_t batch_size,
            std::vector<FieldId> flow_key);
  // Copies are refused: a core is the one owner of its slots' state, and a
  // silent copy would fork every slot's store.
  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  std::size_t num_slots() const { return slots_.size(); }
  std::size_t num_shards() const { return num_shards_; }

  // Chained SplitMix64 over the flow-key fields: the one flow-hash definition
  // repo-wide (see sim/partition.h for the single-key form).
  std::uint64_t flow_hash(const Packet& pkt) const;
  std::size_t slot_of(const Packet& pkt) const;
  std::size_t shard_of(const Packet& pkt) const {
    return slot_of(pkt) % num_shards_;
  }

  Machine& slot_machine(std::size_t slot) { return slots_[slot]; }
  const Machine& slot_machine(std::size_t slot) const { return slots_[slot]; }

  // Cumulative batch statistics of the shard's drains.
  BatchStats shard_stats(std::size_t shard) const;

  // Runs rows[0, n), all belonging to `shard`, through the pipeline in
  // place, each row against its own slot replica's state.  slot_ids[i] must
  // equal slot_of(rows[i]) and map to `shard`.  The rows run in chunks of
  // batch_size, one engine call per chunk, however many slots a chunk
  // spans: the call runs on the shard's first replica (slot `shard`) with
  // an owner array built from slot_ids (BatchView::owned_rows), so the rows
  // never move and nothing is allocated once the owner buffer exists.
  // Mixing slots in one call is legal because slots share no state and
  // each slot's rows keep their arrival order in both engines' loops.
  void drain(std::size_t shard, const std::size_t* slot_ids, Packet* rows,
             std::size_t n);

  // Whole-slot state checkpointing, indexed by slot.  restore_state accepts
  // snapshots taken from a core with any shard count, as long as the slot
  // count (and program shape) match — that is the elastic-resharding move.
  std::vector<StateStore> snapshot_state() const;
  void restore_state(const std::vector<StateStore>& snap);

  // Per-stage observability totals summed over every slot replica (stats.h).
  // A shard's batches count on the replica they run on, so the sum is exact.
  // Safe to call while shards drain concurrently: the constructor prepared
  // (and reset) each replica's table, so readers only race relaxed counter
  // loads — the result is a point-in-time snapshot that may trail in-flight
  // batches.  All-zero rows unless built with -DDOMINO_STAGE_COUNTERS.
  std::vector<StageCounterRow> stage_counter_rows() const;

 private:
  std::size_t num_shards_;
  std::size_t batch_size_;
  std::vector<FieldId> flow_key_;
  std::vector<Machine> slots_;   // one replica per slot
  struct Shard {
    std::vector<Machine*> owners;  // one chunk's row owners, reused
    BatchStats stats;
  };
  std::vector<Shard> shards_;
};

struct FleetConfig {
  std::size_t num_shards = 1;
  std::size_t batch_size = 256;
  bool parallel = true;  // run shards on worker threads
  // Packet fields hashed together to pick a shard: the flow key.  Must be
  // non-empty unless num_shards == 1.
  std::vector<FieldId> flow_key;
};

struct ShardResult {
  std::vector<Packet> egress;             // in shard-arrival order
  std::vector<std::size_t> source_index;  // original trace index per packet
  BatchStats stats;
};

struct FleetResult {
  std::vector<ShardResult> shards;
  std::uint64_t packets = 0;

  // Egress merged back into the original trace order.
  std::vector<Packet> egress_in_order() const;
};

class Fleet {
 public:
  Fleet(const Machine& prototype, FleetConfig config);

  std::size_t num_shards() const { return core_.num_shards(); }
  Machine& shard_machine(std::size_t s) { return core_.slot_machine(s); }
  const Machine& shard_machine(std::size_t s) const {
    return core_.slot_machine(s);
  }
  const FleetConfig& config() const { return config_; }

  // The shard that serves this packet's flow.
  std::size_t shard_of(const Packet& pkt) const { return core_.shard_of(pkt); }

  // Partitions the trace by flow hash and drains every shard; shards run
  // concurrently when config.parallel is set.  Replica state persists across
  // calls, like a switch staying up across traffic; partition buffers and the
  // core's batch scratch persist too, so steady-state calls do not reallocate.
  // Throws std::invalid_argument, before any shard runs, if a packet is
  // narrower than the compiled program's field table.
  FleetResult run(const std::vector<Packet>& trace);

 private:
  FleetConfig config_;
  ShardCore core_;
  struct ShardBuffers {
    std::vector<Packet> pkts;
    std::vector<std::size_t> slots;
  };
  std::vector<ShardBuffers> buffers_;  // reused across run() calls
};

}  // namespace banzai
