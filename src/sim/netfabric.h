// NetFabric: a deterministic discrete-event simulator for a leaf-spine
// network whose switches run compiled Banzai machines.
//
// Topology (the CONGA/§5.3 setting): `num_leaves` leaf switches, each
// connected to every one of `num_spines` spine switches.  A packet injected
// at its ingress leaf traverses
//
//     ingress leaf --uplink--> spine --downlink--> egress leaf --host port-->
//
// where the spine index *is* the path id.  Every directed hop owns a
// QueueDiscipline (sim/queue.h) — by default a ByteQueue, a finite drop-tail
// buffer served at a byte rate with an optional ECN marking threshold; any
// port can be swapped for another discipline (e.g. the machine-ranked
// PifoQueue of sim/sched.h), whose scheduled departures the fabric drives
// with port-service events.  Links add a fixed latency.
// Traffic between co-located hosts (src_leaf == dst_leaf, or a fabric with
// zero spines) goes straight to the destination leaf's host port.
//
// Nodes host compiled programs in three roles, each seeing an honest view of
// fabric state through a FieldBinding:
//   * ingress  — runs on every injected packet at its source leaf and on
//     CONGA-style feedback; its `best_path_now` output (when the program
//     computes one) chooses the packet's path, otherwise flow-hash ECMP pins
//     each flow to a path.
//   * spine    — runs on packets transiting a spine switch (monitoring,
//     in-network measurement).
//   * egress   — runs at delivery, when the fabric knows the packet's total
//     queueing delay (the AQM role: CoDel's `qdelay` input).
//
// The fabric is closed-loop: queue occupancy observed by packets in flight
// is carried back to the ingress program (`util`/`path_id` fields), whose
// state then decides future paths — congestion control closes over the
// fabric's own queues.  Determinism: events execute in (tick, schedule order); the only
// randomness is the caller's trace and the seed salting ECMP placement.
//
// A node can also host a ShardCore — the multi-pipeline switch from the
// fleet runtime — in place of a single Machine; per-flow state then lives in
// the slot the flow hashes to, exactly as in FleetService.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "banzai/fleet.h"
#include "banzai/machine.h"
#include "banzai/packet.h"
#include "sim/queue.h"
#include "sim/tracegen.h"

namespace netsim {

// Maps fabric-supplied metadata onto the packet fields a hosted program
// declares.  Unset entries are simply not bound, so any corpus program can be
// dropped onto a node: it sees the subset of fabric state it asks for.
struct FieldBinding {
  // Inputs, written before the program runs.
  std::optional<banzai::FieldId> now;         // current tick
  std::optional<banzai::FieldId> arrival;     // alias for `now` (flowlets)
  std::optional<banzai::FieldId> size_bytes;  // packet length
  std::optional<banzai::FieldId> flow_id;
  std::optional<banzai::FieldId> sport, dport;
  // `src` is bound to the *remote* leaf (ingress role: the destination leaf;
  // egress role: the source leaf) — the key CONGA's per-destination tables
  // use, matching real CONGA where feedback arrives tagged with the far leaf.
  std::optional<banzai::FieldId> src;
  std::optional<banzai::FieldId> dst;      // destination leaf, both roles
  std::optional<banzai::FieldId> qdelay;   // total queueing delay (egress)
  std::optional<banzai::FieldId> util;     // path congestion feedback, bytes
  std::optional<banzai::FieldId> path_id;  // path the `util` value measured
  // Outputs, read after the program runs.
  std::optional<banzai::FieldId> mark;           // AQM mark decision
  std::optional<banzai::FieldId> best_path_now;  // routing decision

  // Resolves the conventional field names against a program's FieldTable;
  // outputs are first translated through `output_map` (the compiler's
  // user-name -> final-SSA-name map) when present.
  static FieldBinding resolve(
      const banzai::FieldTable& fields,
      const std::map<std::string, std::string>& output_map = {});
};

// A switch's packet-processing engine: one compiled Machine, or a ShardCore
// treating the node as a multi-pipeline switch.
class SwitchEngine {
 public:
  virtual ~SwitchEngine() = default;
  virtual banzai::Packet process(banzai::Packet pkt) = 0;
  virtual std::size_t num_fields() const = 0;
  // The underlying single machine, when there is exactly one (for state
  // inspection in tests); nullptr for sharded engines.
  virtual banzai::Machine* machine() { return nullptr; }
};

struct NetFabricConfig {
  int num_leaves = 2;
  int num_spines = 2;
  QueueConfig port;                   // applied to every fabric port
  std::int64_t link_latency = 4;      // ticks per traversed link
  std::int64_t feedback_latency = 4;  // delivery -> ingress feedback delay
  std::uint64_t seed = 1;             // salts ECMP flow placement
};

struct DeliveredPacket {
  TracePacket pkt;
  int src_leaf = 0;
  int dst_leaf = 0;
  int path = -1;  // spine index, -1 for leaf-local delivery
  std::int64_t injected_tick = 0;
  std::int64_t delivered_tick = 0;
  std::int64_t queue_delay = 0;     // summed sojourn across traversed ports
  std::int64_t observed_util = 0;   // max backlog+self seen on fabric ports
  bool ecn_marked = false;          // any traversed port hit its ECN threshold
  banzai::Value ingress_mark = 0;   // ingress program's `mark` output
  banzai::Value egress_mark = 0;    // egress program's `mark` output
  QueueSample last_hop;             // sample from the destination host port
  banzai::Packet ingress_view;      // ingress program output (empty if none)
};

struct FabricStats {
  std::int64_t injected = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;          // drop-tail losses at any port
  std::int64_t ecn_marked = 0;       // delivered packets with ECN set
  std::int64_t ingress_marks = 0;    // ingress `mark` outputs over ALL injected
                                     // packets, including later-dropped ones
  std::int64_t feedback_packets = 0; // CONGA feedback events processed
  std::int64_t events = 0;           // total discrete events executed
};

class NetFabric {
 public:
  explicit NetFabric(const NetFabricConfig& config);
  NetFabric(const NetFabric&) = delete;
  NetFabric& operator=(const NetFabric&) = delete;
  ~NetFabric();

  int num_leaves() const { return config_.num_leaves; }
  int num_spines() const { return config_.num_spines; }
  const NetFabricConfig& config() const { return config_; }

  // Hosts a program on a node (replacing any previous occupant).  The
  // machine is moved in; each node owns an independent replica.
  void host_ingress(int leaf, banzai::Machine machine, FieldBinding binding);
  void host_egress(int leaf, banzai::Machine machine, FieldBinding binding);
  void host_spine(int spine, banzai::Machine machine, FieldBinding binding);
  // Multi-pipeline variant: the node runs `prototype` as a ShardCore with
  // per-flow state partitioned across `num_slots` slot replicas.
  void host_ingress_sharded(int leaf, const banzai::Machine& prototype,
                            std::size_t num_slots, std::size_t num_shards,
                            std::vector<banzai::FieldId> flow_key,
                            FieldBinding binding);

  // Schedules a packet for injection at `src_leaf` at tick pkt.arrival,
  // destined for a host behind `dst_leaf`.  Events execute in tick order with
  // injection order breaking ties, so inject traces sorted by arrival.
  void inject(const TracePacket& pkt, int src_leaf, int dst_leaf);

  // Runs the simulation until every event (including feedback) has executed.
  void run();

  const std::vector<DeliveredPacket>& delivered() const { return delivered_; }
  const FabricStats& stats() const { return stats_; }

  // Port accessors (valid indices only; uplink/downlink require spines > 0).
  // Every port starts as a ByteQueue (drop-tail + ECN threshold from
  // config.port); these historical accessors return that concrete type and
  // throw std::logic_error if the port has been swapped to a non-FIFO
  // discipline — use the *_discipline accessors for those.
  ByteQueue& uplink(int leaf, int spine);
  ByteQueue& downlink(int spine, int leaf);
  ByteQueue& host_port(int leaf);
  const ByteQueue& uplink(int leaf, int spine) const;
  const ByteQueue& downlink(int spine, int leaf) const;
  const ByteQueue& host_port(int leaf) const;

  // Discipline-generic port access and replacement.  Swapping a discipline
  // resets that port's accounting (a new queue object); swap before
  // injecting traffic.  Scheduled disciplines (PIFO) are driven by port-
  // service events the fabric arms from next_departure().
  QueueDiscipline& uplink_discipline(int leaf, int spine);
  QueueDiscipline& downlink_discipline(int spine, int leaf);
  QueueDiscipline& host_port_discipline(int leaf);
  void set_uplink_discipline(int leaf, int spine,
                             std::unique_ptr<QueueDiscipline> q);
  void set_downlink_discipline(int spine, int leaf,
                               std::unique_ptr<QueueDiscipline> q);
  void set_host_port_discipline(int leaf, std::unique_ptr<QueueDiscipline> q);

  // Highest cumulative byte count accepted on any leaf->spine uplink — the
  // "max path utilization" the CONGA evaluation compares against random
  // placement (all runs over the same trace offer the same total bytes).
  std::int64_t max_uplink_accepted_bytes() const;
  std::int64_t total_uplink_accepted_bytes() const;

  // The single machine hosted at a node, when there is one (tests).
  banzai::Machine* ingress_machine(int leaf);
  banzai::Machine* egress_machine(int leaf);

 private:
  struct Hosted;
  struct Flight;
  struct Event;
  struct EventOrder;

  void dispatch(const Event& ev);
  banzai::Packet make_view(const Hosted& node, std::int64_t tick,
                           const Flight& f, int remote_leaf) const;
  void on_inject(std::uint32_t idx, std::int64_t tick);
  void on_arrive_spine(std::uint32_t idx, std::int64_t tick);
  void on_arrive_egress(std::uint32_t idx, std::int64_t tick);
  void on_deliver(std::uint32_t idx, std::int64_t tick);
  void on_feedback(std::uint32_t idx, std::int64_t tick);
  void schedule(std::int64_t tick, int kind, std::uint32_t flight);
  void account_hop(Flight& f, const QueueSample& sample);
  int route(const Flight& f, const banzai::Packet* processed,
            const FieldBinding& binding) const;

  // Scheduled-discipline plumbing.  Ports are addressed linearly — uplinks,
  // then downlinks, then host ports — so one event kind serves them all.
  std::uint32_t uplink_port_id(int leaf, int spine) const;
  std::uint32_t downlink_port_id(int spine, int leaf) const;
  std::uint32_t host_port_id(int leaf) const;
  QueueDiscipline& port(std::uint32_t port_id);
  // Offers to port `port_id` on behalf of flight `idx` and, for a FIFO
  // discipline, schedules `next_kind` at departure + `latency`; for a
  // scheduled discipline the continuation fires from service_port() when the
  // packet actually departs.  Returns false when the packet was dropped on
  // arrival (the caller's flight ends).
  bool offer_port(std::uint32_t port_id, std::uint32_t idx, std::int64_t tick,
                  int next_kind, std::int64_t latency);
  // Drains everything departed from a scheduled port by `tick` (served
  // packets continue their path, evictions die as drops) and arms the next
  // port-service event from next_departure().
  void service_port(std::uint32_t port_id, std::int64_t tick);
  void on_port_service(std::uint32_t port_id, std::int64_t tick);

  NetFabricConfig config_;
  std::vector<Hosted> ingress_;  // per leaf
  std::vector<Hosted> egress_;   // per leaf
  std::vector<Hosted> spines_;   // per spine
  // leaf * num_spines + spine / spine * num_leaves + leaf / per leaf.
  std::vector<std::unique_ptr<QueueDiscipline>> uplinks_;
  std::vector<std::unique_ptr<QueueDiscipline>> downlinks_;
  std::vector<std::unique_ptr<QueueDiscipline>> host_ports_;
  // Per linear port id: the departure tick a port-service event is armed
  // for, or -1.  Service is non-preemptive, so completion ticks only move
  // forward and one armed tick per port suffices.
  std::vector<std::int64_t> armed_;
  std::vector<int> probe_rr_;         // per leaf: rotating probe path

  std::vector<Flight> flights_;
  std::vector<Event> heap_;  // binary min-heap on (tick, seq)
  std::uint64_t next_seq_ = 0;
  std::vector<DeliveredPacket> delivered_;
  FabricStats stats_;
};

// Deterministic flow -> (src_leaf, dst_leaf) placement for multi-leaf
// scenarios: hash the flow id (salted) onto distinct leaves.  Shared by the
// CONGA example, the fabric tests and the throughput bench so they agree on
// what "a flow's endpoints" means.
std::pair<int, int> flow_endpoints(std::int32_t flow_id, int num_leaves,
                                   std::uint64_t salt);

// Stable-sorts a trace by arrival tick.  Fabric events execute in time
// order; flowlet traces are only per-flow monotone, so sort before
// injecting (ties keep trace order, matching inject order).
void sort_by_arrival(std::vector<TracePacket>& trace);

}  // namespace netsim
