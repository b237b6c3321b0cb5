#include "sim/netfabric.h"

#include <algorithm>
#include <stdexcept>

#include "sim/partition.h"

namespace netsim {

namespace {

// One compiled machine on a node.
class MachineEngine final : public SwitchEngine {
 public:
  explicit MachineEngine(banzai::Machine machine)
      : machine_(std::move(machine)) {}
  banzai::Packet process(banzai::Packet pkt) override {
    return machine_.process(std::move(pkt));
  }
  std::size_t num_fields() const override { return machine_.fields().size(); }
  banzai::Machine* machine() override { return &machine_; }

 private:
  banzai::Machine machine_;
};

// A multi-pipeline switch: per-flow state partitioned across slot replicas,
// the same placement FleetService uses (banzai/fleet.h).
class ShardEngine final : public SwitchEngine {
 public:
  ShardEngine(const banzai::Machine& prototype, std::size_t num_slots,
              std::size_t num_shards, std::vector<banzai::FieldId> flow_key)
      : num_fields_(prototype.fields().size()),
        core_(prototype, num_slots, num_shards, /*batch_size=*/1,
              std::move(flow_key)) {}
  banzai::Packet process(banzai::Packet pkt) override {
    const std::size_t slot = core_.slot_of(pkt);
    core_.drain(slot % core_.num_shards(), &slot, &pkt, 1);
    return pkt;
  }
  std::size_t num_fields() const override { return num_fields_; }

 private:
  std::size_t num_fields_;
  banzai::ShardCore core_;
};

}  // namespace

FieldBinding FieldBinding::resolve(
    const banzai::FieldTable& fields,
    const std::map<std::string, std::string>& output_map) {
  auto in = [&fields](const char* name) { return fields.try_id_of(name); };
  auto out = [&fields, &output_map](const char* name) {
    auto it = output_map.find(name);
    if (it != output_map.end()) return fields.try_id_of(it->second);
    return fields.try_id_of(name);
  };
  FieldBinding b;
  b.now = in("now");
  b.arrival = in("arrival");
  b.size_bytes = in("size_bytes");
  b.flow_id = in("flow_id");
  b.sport = in("sport");
  b.dport = in("dport");
  b.src = in("src");
  b.dst = in("dst");
  b.qdelay = in("qdelay");
  b.util = in("util");
  b.path_id = in("path_id");
  b.mark = out("mark");
  b.best_path_now = out("best_path_now");
  return b;
}

struct NetFabric::Hosted {
  std::unique_ptr<SwitchEngine> engine;
  FieldBinding binding;
};

struct NetFabric::Flight {
  TracePacket pkt;
  int src_leaf = 0;
  int dst_leaf = 0;
  int path = -1;
  std::int64_t injected = 0;
  std::int64_t queue_delay = 0;
  std::int64_t observed_util = 0;
  bool ecn = false;
  banzai::Value ingress_mark = 0;
  QueueSample last_hop;
  // Arrival-side sample while the packet waits in a scheduled (PIFO) port;
  // service_port() back-fills departure/sojourn when the packet leaves.
  // Hops are strictly sequential, so one slot per flight suffices.
  QueueSample pending;
  banzai::Packet ingress_view;
};

struct NetFabric::Event {
  std::int64_t tick = 0;
  std::uint64_t seq = 0;
  int kind = 0;  // Kind below
  std::uint32_t flight = 0;
};

enum EventKind {
  kInject = 0,
  kArriveSpine,
  kArriveEgress,
  kDeliver,
  kFeedback,
  // Service completion on a scheduled discipline; the event's `flight` field
  // carries the linear port id, not a flight index.
  kPortService,
};

struct NetFabric::EventOrder {
  // std::push_heap builds a max-heap; invert for earliest-first.
  bool operator()(const Event& a, const Event& b) const {
    if (a.tick != b.tick) return a.tick > b.tick;
    return a.seq > b.seq;
  }
};

NetFabric::NetFabric(const NetFabricConfig& config) : config_(config) {
  if (config_.num_leaves < 1)
    throw std::invalid_argument("NetFabric: need at least one leaf");
  if (config_.num_spines < 0)
    throw std::invalid_argument("NetFabric: negative spine count");
  const auto leaves = static_cast<std::size_t>(config_.num_leaves);
  const auto spines = static_cast<std::size_t>(config_.num_spines);
  ingress_.resize(leaves);
  egress_.resize(leaves);
  spines_.resize(spines);
  uplinks_.resize(leaves * spines);
  downlinks_.resize(spines * leaves);
  host_ports_.resize(leaves);
  for (auto& q : uplinks_) q = std::make_unique<ByteQueue>(config_.port);
  for (auto& q : downlinks_) q = std::make_unique<ByteQueue>(config_.port);
  for (auto& q : host_ports_) q = std::make_unique<ByteQueue>(config_.port);
  armed_.assign(uplinks_.size() + downlinks_.size() + host_ports_.size(), -1);
  probe_rr_.assign(leaves, 0);
}

NetFabric::~NetFabric() = default;

void NetFabric::host_ingress(int leaf, banzai::Machine machine,
                             FieldBinding binding) {
  ingress_.at(static_cast<std::size_t>(leaf)) = {
      std::make_unique<MachineEngine>(std::move(machine)), binding};
}

void NetFabric::host_egress(int leaf, banzai::Machine machine,
                            FieldBinding binding) {
  egress_.at(static_cast<std::size_t>(leaf)) = {
      std::make_unique<MachineEngine>(std::move(machine)), binding};
}

void NetFabric::host_spine(int spine, banzai::Machine machine,
                           FieldBinding binding) {
  spines_.at(static_cast<std::size_t>(spine)) = {
      std::make_unique<MachineEngine>(std::move(machine)), binding};
}

void NetFabric::host_ingress_sharded(int leaf, const banzai::Machine& prototype,
                                     std::size_t num_slots,
                                     std::size_t num_shards,
                                     std::vector<banzai::FieldId> flow_key,
                                     FieldBinding binding) {
  ingress_.at(static_cast<std::size_t>(leaf)) = {
      std::make_unique<ShardEngine>(prototype, num_slots, num_shards,
                                    std::move(flow_key)),
      binding};
}

namespace {
// The historical ByteQueue& accessors promise the concrete default type.
ByteQueue& as_byte_queue(QueueDiscipline& q) {
  auto* b = dynamic_cast<ByteQueue*>(&q);
  if (b == nullptr)
    throw std::logic_error(
        "NetFabric: port runs a non-ByteQueue discipline; use the "
        "*_discipline accessors");
  return *b;
}
}  // namespace

std::uint32_t NetFabric::uplink_port_id(int leaf, int spine) const {
  return static_cast<std::uint32_t>(
      static_cast<std::size_t>(leaf) *
          static_cast<std::size_t>(config_.num_spines) +
      static_cast<std::size_t>(spine));
}
std::uint32_t NetFabric::downlink_port_id(int spine, int leaf) const {
  return static_cast<std::uint32_t>(
      uplinks_.size() +
      static_cast<std::size_t>(spine) *
          static_cast<std::size_t>(config_.num_leaves) +
      static_cast<std::size_t>(leaf));
}
std::uint32_t NetFabric::host_port_id(int leaf) const {
  return static_cast<std::uint32_t>(uplinks_.size() + downlinks_.size() +
                                    static_cast<std::size_t>(leaf));
}
QueueDiscipline& NetFabric::port(std::uint32_t port_id) {
  std::size_t i = port_id;
  if (i < uplinks_.size()) return *uplinks_[i];
  i -= uplinks_.size();
  if (i < downlinks_.size()) return *downlinks_[i];
  i -= downlinks_.size();
  return *host_ports_.at(i);
}

QueueDiscipline& NetFabric::uplink_discipline(int leaf, int spine) {
  return *uplinks_.at(uplink_port_id(leaf, spine));
}
QueueDiscipline& NetFabric::downlink_discipline(int spine, int leaf) {
  return *downlinks_.at(downlink_port_id(spine, leaf) - uplinks_.size());
}
QueueDiscipline& NetFabric::host_port_discipline(int leaf) {
  return *host_ports_.at(static_cast<std::size_t>(leaf));
}
void NetFabric::set_uplink_discipline(int leaf, int spine,
                                      std::unique_ptr<QueueDiscipline> q) {
  const std::uint32_t pid = uplink_port_id(leaf, spine);
  uplinks_.at(pid) = std::move(q);
  armed_.at(pid) = -1;
}
void NetFabric::set_downlink_discipline(int spine, int leaf,
                                        std::unique_ptr<QueueDiscipline> q) {
  const std::uint32_t pid = downlink_port_id(spine, leaf);
  downlinks_.at(pid - uplinks_.size()) = std::move(q);
  armed_.at(pid) = -1;
}
void NetFabric::set_host_port_discipline(int leaf,
                                         std::unique_ptr<QueueDiscipline> q) {
  const std::uint32_t pid = host_port_id(leaf);
  host_ports_.at(static_cast<std::size_t>(leaf)) = std::move(q);
  armed_.at(pid) = -1;
}

ByteQueue& NetFabric::uplink(int leaf, int spine) {
  return as_byte_queue(uplink_discipline(leaf, spine));
}
ByteQueue& NetFabric::downlink(int spine, int leaf) {
  return as_byte_queue(downlink_discipline(spine, leaf));
}
ByteQueue& NetFabric::host_port(int leaf) {
  return as_byte_queue(host_port_discipline(leaf));
}
const ByteQueue& NetFabric::uplink(int leaf, int spine) const {
  return const_cast<NetFabric*>(this)->uplink(leaf, spine);
}
const ByteQueue& NetFabric::downlink(int spine, int leaf) const {
  return const_cast<NetFabric*>(this)->downlink(spine, leaf);
}
const ByteQueue& NetFabric::host_port(int leaf) const {
  return const_cast<NetFabric*>(this)->host_port(leaf);
}

std::int64_t NetFabric::max_uplink_accepted_bytes() const {
  std::int64_t best = 0;
  for (const auto& q : uplinks_) best = std::max(best, q->accepted_bytes());
  return best;
}

std::int64_t NetFabric::total_uplink_accepted_bytes() const {
  std::int64_t total = 0;
  for (const auto& q : uplinks_) total += q->accepted_bytes();
  return total;
}

banzai::Machine* NetFabric::ingress_machine(int leaf) {
  auto& h = ingress_.at(static_cast<std::size_t>(leaf));
  return h.engine ? h.engine->machine() : nullptr;
}

banzai::Machine* NetFabric::egress_machine(int leaf) {
  auto& h = egress_.at(static_cast<std::size_t>(leaf));
  return h.engine ? h.engine->machine() : nullptr;
}

void NetFabric::schedule(std::int64_t tick, int kind, std::uint32_t flight) {
  heap_.push_back(Event{tick, next_seq_++, kind, flight});
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
}

void NetFabric::inject(const TracePacket& pkt, int src_leaf, int dst_leaf) {
  if (src_leaf < 0 || src_leaf >= config_.num_leaves || dst_leaf < 0 ||
      dst_leaf >= config_.num_leaves)
    throw std::out_of_range("NetFabric::inject: leaf index out of range");
  Flight f;
  f.pkt = pkt;
  f.src_leaf = src_leaf;
  f.dst_leaf = dst_leaf;
  f.injected = pkt.arrival;
  flights_.push_back(std::move(f));
  ++stats_.injected;
  schedule(pkt.arrival, kInject,
           static_cast<std::uint32_t>(flights_.size() - 1));
}

void NetFabric::run() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
    const Event ev = heap_.back();
    heap_.pop_back();
    ++stats_.events;
    dispatch(ev);
  }
}

void NetFabric::dispatch(const Event& ev) {
  switch (ev.kind) {
    case kInject:
      on_inject(ev.flight, ev.tick);
      break;
    case kArriveSpine:
      on_arrive_spine(ev.flight, ev.tick);
      break;
    case kArriveEgress:
      on_arrive_egress(ev.flight, ev.tick);
      break;
    case kDeliver:
      on_deliver(ev.flight, ev.tick);
      break;
    case kFeedback:
      on_feedback(ev.flight, ev.tick);
      break;
    case kPortService:
      on_port_service(ev.flight, ev.tick);
      break;
  }
}

bool NetFabric::offer_port(std::uint32_t port_id, std::uint32_t idx,
                           std::int64_t tick, int next_kind,
                           std::int64_t latency) {
  Flight& f = flights_[idx];
  QueueDiscipline& q = port(port_id);
  QueueItem item;
  item.size_bytes = f.pkt.size_bytes;
  item.flow_id = f.pkt.flow_id;
  item.tenant_id = f.pkt.dport;  // scenarios encode the tenant class in dport
  item.cookie = idx;
  const QueueSample s = q.offer(tick, item);

  if (q.departure_known_at_offer()) {
    if (s.dropped) {
      ++stats_.dropped;
      return false;
    }
    account_hop(f, s);
    if (next_kind == kDeliver) f.last_hop = s;
    schedule(s.departure + latency, next_kind, idx);
    return true;
  }

  // Scheduled discipline: keep the arrival-side sample; the continuation
  // fires from service_port() when the packet actually departs.  An offer
  // can complete an earlier service at this very tick, so drain (and count
  // evictions the admission caused) before returning.
  const bool accepted = !s.dropped;
  if (s.dropped)
    ++stats_.dropped;
  else
    f.pending = s;
  service_port(port_id, tick);
  return accepted;
}

void NetFabric::service_port(std::uint32_t port_id, std::int64_t tick) {
  QueueDiscipline& q = port(port_id);
  const std::size_t nu = uplinks_.size();
  const std::size_t nd = downlinks_.size();
  while (auto d = q.pop_departed(tick)) {
    const auto idx = static_cast<std::uint32_t>(d->item.cookie);
    if (d->dropped) {
      // A bounded-size eviction: the packet was accepted earlier but loses
      // its buffer slot now.  Its flight ends here.
      ++stats_.dropped;
      continue;
    }
    Flight& f = flights_[idx];
    QueueSample s = f.pending;
    s.departure = d->tick;
    s.sojourn = d->tick - s.arrival;
    account_hop(f, s);
    if (port_id < nu) {
      schedule(d->tick + config_.link_latency, kArriveSpine, idx);
    } else if (port_id < nu + nd) {
      schedule(d->tick + config_.link_latency, kArriveEgress, idx);
    } else {
      f.last_hop = s;
      schedule(d->tick, kDeliver, idx);
    }
  }
  // Arm the next completion.  Service is non-preemptive, so per-port finish
  // ticks strictly increase and one armed slot dedups exactly.
  const auto next = q.next_departure();
  if (next.has_value() && armed_[port_id] != *next) {
    armed_[port_id] = *next;
    schedule(*next, kPortService, port_id);
  }
}

void NetFabric::on_port_service(std::uint32_t port_id, std::int64_t tick) {
  service_port(port_id, tick);
}

// The metadata every hosted program sees regardless of role; callers layer
// the role-specific fields (probe util, qdelay, path) on top.  `remote_leaf`
// is the far end of the flow: the destination at ingress, the source at
// egress — the key CONGA-style per-destination tables use.
banzai::Packet NetFabric::make_view(const Hosted& node, std::int64_t tick,
                                    const Flight& f, int remote_leaf) const {
  const FieldBinding& b = node.binding;
  banzai::Packet p(node.engine->num_fields());
  if (b.now) p.set(*b.now, static_cast<banzai::Value>(tick));
  if (b.arrival) p.set(*b.arrival, static_cast<banzai::Value>(tick));
  if (b.size_bytes) p.set(*b.size_bytes, f.pkt.size_bytes);
  if (b.flow_id) p.set(*b.flow_id, f.pkt.flow_id);
  if (b.sport) p.set(*b.sport, f.pkt.sport);
  if (b.dport) p.set(*b.dport, f.pkt.dport);
  if (b.src) p.set(*b.src, remote_leaf);
  if (b.dst) p.set(*b.dst, f.dst_leaf);
  return p;
}

void NetFabric::account_hop(Flight& f, const QueueSample& sample) {
  f.queue_delay += sample.sojourn;
  f.observed_util = std::max(
      f.observed_util,
      sample.qlen_bytes + static_cast<std::int64_t>(sample.size_bytes));
  f.ecn = f.ecn || sample.ecn_marked;
}

int NetFabric::route(const Flight& f, const banzai::Packet* processed,
                     const FieldBinding& binding) const {
  const int spines = config_.num_spines;
  if (processed != nullptr && binding.best_path_now.has_value()) {
    const auto v =
        static_cast<std::int64_t>(processed->get(*binding.best_path_now));
    return static_cast<int>(((v % spines) + spines) % spines);
  }
  // Flow-hash ECMP: each flow pinned to one path ("random placement").
  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.pkt.flow_id)) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.pkt.sport))
       << 32);
  return static_cast<int>(mix64(key ^ config_.seed) %
                          static_cast<std::uint64_t>(spines));
}

void NetFabric::on_inject(std::uint32_t idx, std::int64_t tick) {
  Flight& f = flights_[idx];
  Hosted& node = ingress_[static_cast<std::size_t>(f.src_leaf)];
  const bool local = f.src_leaf == f.dst_leaf || config_.num_spines == 0;

  const banzai::Packet* view = nullptr;
  if (node.engine) {
    const FieldBinding& b = node.binding;
    banzai::Packet p = make_view(node, tick, f, /*remote_leaf=*/f.dst_leaf);
    if (!local && b.util && b.path_id) {
      // Piggybacked local feedback: each packet refreshes the program's view
      // of one rotating uplink, the switch's own honest congestion sample.
      int& rr = probe_rr_[static_cast<std::size_t>(f.src_leaf)];
      const int probe = rr;
      rr = (rr + 1) % config_.num_spines;
      p.set(*b.path_id, probe);
      p.set(*b.util,
            static_cast<banzai::Value>(
                uplink_discipline(f.src_leaf, probe).backlog_bytes(tick)));
    }
    f.ingress_view = node.engine->process(std::move(p));
    if (b.mark) {
      f.ingress_mark = f.ingress_view.get(*b.mark);
      // Counted here, not at delivery: a later drop-tail loss must not erase
      // the ingress program's decision from the marking statistics.
      if (f.ingress_mark != 0) ++stats_.ingress_marks;
    }
    view = &f.ingress_view;
  }

  if (local) {
    offer_port(host_port_id(f.dst_leaf), idx, tick, kDeliver, /*latency=*/0);
    return;
  }

  f.path = route(f, view, node.binding);
  offer_port(uplink_port_id(f.src_leaf, f.path), idx, tick, kArriveSpine,
             config_.link_latency);
}

void NetFabric::on_arrive_spine(std::uint32_t idx, std::int64_t tick) {
  Flight& f = flights_[idx];
  Hosted& node = spines_[static_cast<std::size_t>(f.path)];
  if (node.engine) {
    const FieldBinding& b = node.binding;
    banzai::Packet p = make_view(node, tick, f, /*remote_leaf=*/f.src_leaf);
    if (b.path_id) p.set(*b.path_id, f.path);
    if (b.util)
      p.set(*b.util,
            static_cast<banzai::Value>(
                downlink_discipline(f.path, f.dst_leaf).backlog_bytes(tick)));
    node.engine->process(std::move(p));
  }
  offer_port(downlink_port_id(f.path, f.dst_leaf), idx, tick, kArriveEgress,
             config_.link_latency);
}

void NetFabric::on_arrive_egress(std::uint32_t idx, std::int64_t tick) {
  const int dst_leaf = flights_[idx].dst_leaf;
  offer_port(host_port_id(dst_leaf), idx, tick, kDeliver, /*latency=*/0);
}

void NetFabric::on_deliver(std::uint32_t idx, std::int64_t tick) {
  Flight& f = flights_[idx];
  DeliveredPacket d;
  d.pkt = f.pkt;
  d.src_leaf = f.src_leaf;
  d.dst_leaf = f.dst_leaf;
  d.path = f.path;
  d.injected_tick = f.injected;
  d.delivered_tick = tick;
  d.queue_delay = f.queue_delay;
  d.observed_util = f.observed_util;
  d.ecn_marked = f.ecn;
  d.ingress_mark = f.ingress_mark;
  d.last_hop = f.last_hop;
  d.ingress_view = f.ingress_view;

  Hosted& node = egress_[static_cast<std::size_t>(f.dst_leaf)];
  if (node.engine) {
    const FieldBinding& b = node.binding;
    banzai::Packet p = make_view(node, tick, f, /*remote_leaf=*/f.src_leaf);
    if (b.qdelay) p.set(*b.qdelay, static_cast<banzai::Value>(f.queue_delay));
    if (b.path_id) p.set(*b.path_id, f.path);
    banzai::Packet out = node.engine->process(std::move(p));
    if (b.mark) d.egress_mark = out.get(*b.mark);
  }

  if (d.ecn_marked) ++stats_.ecn_marked;
  ++stats_.delivered;
  delivered_.push_back(std::move(d));

  // Close the loop: tell the ingress program how congested the path it chose
  // actually was (real CONGA piggybacks this on reverse traffic).
  if (f.path >= 0) {
    const Hosted& in = ingress_[static_cast<std::size_t>(f.src_leaf)];
    if (in.engine && in.binding.util && in.binding.path_id)
      schedule(tick + config_.feedback_latency, kFeedback,
               idx);
  }
}

void NetFabric::on_feedback(std::uint32_t idx, std::int64_t tick) {
  Flight& f = flights_[idx];
  Hosted& node = ingress_[static_cast<std::size_t>(f.src_leaf)];
  if (!node.engine) return;
  const FieldBinding& b = node.binding;
  // The feedback's `src` is the far leaf the path serves, same key as the
  // data packets that built the table.
  banzai::Packet p = make_view(node, tick, f, /*remote_leaf=*/f.dst_leaf);
  if (b.path_id) p.set(*b.path_id, f.path);
  if (b.util) p.set(*b.util, static_cast<banzai::Value>(f.observed_util));
  node.engine->process(std::move(p));
  ++stats_.feedback_packets;
}

std::pair<int, int> flow_endpoints(std::int32_t flow_id, int num_leaves,
                                   std::uint64_t salt) {
  const std::uint64_t h = mix64(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow_id)) ^ salt);
  const auto leaves = static_cast<std::uint64_t>(num_leaves);
  const int src = static_cast<int>(h % leaves);
  int dst = static_cast<int>((h >> 32) % leaves);
  if (dst == src) dst = (dst + 1) % num_leaves;
  return {src, dst};
}

void sort_by_arrival(std::vector<TracePacket>& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TracePacket& a, const TracePacket& b) {
                     return a.arrival < b.arrival;
                   });
}

}  // namespace netsim
