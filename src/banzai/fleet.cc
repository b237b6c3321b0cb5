#include "banzai/fleet.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/partition.h"

namespace banzai {

ShardCore::ShardCore(const Machine& prototype, std::size_t num_slots,
                     std::size_t num_shards, std::size_t batch_size,
                     std::vector<FieldId> flow_key)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      flow_key_(std::move(flow_key)),
      shards_(num_shards_) {
  if (num_slots == 0) num_slots = num_shards_;
  if (num_slots < num_shards_)
    throw std::invalid_argument(
        "ShardCore: num_slots must be >= num_shards (slots are the unit of "
        "state placement)");
  if (num_slots > 1 && flow_key_.empty())
    throw std::invalid_argument(
        "ShardCore: flow_key must name at least one packet field when "
        "partitioning state across slots");
  slots_.reserve(num_slots);
  for (std::size_t v = 0; v < num_slots; ++v) {
    slots_.push_back(prototype.clone());
    // Size each replica's stage-counter table now, before workers may read
    // it concurrently (it is not resize-safe against readers), and zero it —
    // a prototype that already processed packets must not pollute this
    // core's aggregated totals.
    slots_.back().prepare_stage_counters();
    slots_.back().reset_stage_counters();
  }
  for (Shard& sh : shards_) sh.owners.resize(batch_size_);
}

std::uint64_t ShardCore::flow_hash(const Packet& pkt) const {
  std::uint64_t h = 0;
  for (FieldId f : flow_key_)
    h = netsim::mix64(
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(pkt.get(f))));
  return h;
}

std::size_t ShardCore::slot_of(const Packet& pkt) const {
  if (slots_.size() <= 1) return 0;
  return static_cast<std::size_t>(flow_hash(pkt) % slots_.size());
}

BatchStats ShardCore::shard_stats(std::size_t shard) const {
  return shards_[shard].stats;
}

void ShardCore::drain(std::size_t shard, const std::size_t* slot_ids,
                      Packet* rows, std::size_t n) {
  Shard& sh = shards_[shard];
  Machine& runner = slots_[shard];
  for (std::size_t start = 0; start < n; start += batch_size_) {
    const std::size_t k = std::min(batch_size_, n - start);
    for (std::size_t i = 0; i < k; ++i)
      sh.owners[i] = &slots_[slot_ids[start + i]];
    runner.run_batch(BatchView::owned_rows(rows + start, sh.owners.data(), k));
    ++sh.stats.batches;
    sh.stats.packets += k;
  }
}

std::vector<StageCounterRow> ShardCore::stage_counter_rows() const {
  std::vector<StageCounterRow> rows;
  for (const Machine& m : slots_) m.stage_counters().merge_into(rows);
  return rows;
}

std::vector<StateStore> ShardCore::snapshot_state() const {
  std::vector<StateStore> snap;
  snap.reserve(slots_.size());
  for (const Machine& m : slots_) snap.push_back(m.snapshot_state());
  return snap;
}

void ShardCore::restore_state(const std::vector<StateStore>& snap) {
  if (snap.size() != slots_.size())
    throw std::invalid_argument(
        "ShardCore::restore_state: snapshot has a different slot count");
  for (std::size_t v = 0; v < slots_.size(); ++v)
    slots_[v].restore_state(snap[v]);
}

std::vector<Packet> FleetResult::egress_in_order() const {
  std::size_t total = 0;
  for (const ShardResult& s : shards) total += s.egress.size();
  std::vector<Packet> merged(total);
  for (const ShardResult& s : shards)
    for (std::size_t i = 0; i < s.egress.size(); ++i)
      merged[s.source_index[i]] = s.egress[i];
  return merged;
}

Fleet::Fleet(const Machine& prototype, FleetConfig config)
    : config_(std::move(config)),
      core_(prototype, config_.num_shards, config_.num_shards,
            config_.batch_size, config_.flow_key),
      buffers_(core_.num_shards()) {
  config_.num_shards = core_.num_shards();
}

FleetResult Fleet::run(const std::vector<Packet>& trace) {
  const std::size_t n = core_.num_shards();
  FleetResult result;
  result.shards.resize(n);
  result.packets = trace.size();

  // Refused here, on the caller's thread, before anything is partitioned:
  // the engines throw on a packet narrower than the program, and a throw on
  // a shard worker thread would terminate the process.
  if (!trace.empty()) {
    const std::size_t width =
        core_.slot_machine(0).require_kernel().num_fields();
    for (const Packet& p : trace)
      if (p.num_fields() < width)
        throw std::invalid_argument(
            "Fleet::run: packet narrower than the compiled program's field "
            "table");
  }

  // Stable partition into buffers that keep their capacity across calls:
  // within a shard, packets keep arrival order.
  for (ShardBuffers& b : buffers_) {
    b.pkts.clear();
    b.slots.clear();
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t slot = core_.slot_of(trace[i]);
    const std::size_t s = slot % n;
    buffers_[s].pkts.push_back(trace[i]);
    buffers_[s].slots.push_back(slot);
    result.shards[s].source_index.push_back(i);
  }

  auto drain_shard = [&](std::size_t s) {
    ShardBuffers& b = buffers_[s];
    ShardResult& sh = result.shards[s];
    const BatchStats before = core_.shard_stats(s);
    core_.drain(s, b.slots.data(), b.pkts.data(), b.pkts.size());
    sh.egress.assign(std::make_move_iterator(b.pkts.begin()),
                     std::make_move_iterator(b.pkts.end()));
    const BatchStats after = core_.shard_stats(s);
    sh.stats.batches = after.batches - before.batches;
    sh.stats.packets = after.packets - before.packets;
  };

  if (config_.parallel && n > 1) {
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t s = 0; s < n; ++s) workers.emplace_back(drain_shard, s);
    for (std::thread& w : workers) w.join();
  } else {
    for (std::size_t s = 0; s < n; ++s) drain_shard(s);
  }
  return result;
}

}  // namespace banzai
