// The serving workloads: wire frames through the FleetService byte path
// (svc_flowlets_uniform, svc_hh_zipf_hostile) and through the dist tier's
// FrontTier -> loopback TCP -> WorkerServer (dist_flowlets_tcp).
//
// Inputs are one contiguous buffer of kPassFrames frames made before timing;
// the timed phase cycles through it.  Expected egress for each pass comes
// from a per-slot sequential Machine::process reference on the kernel engine
// (the system under test runs native), computed before the pass is timed:
// the clock stops at pass boundaries, so the reference never runs inside a
// timed interval and its memory stays one pass deep.
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "banzai/native.h"
#include "banzai/service.h"
#include "core/emit.h"
#include "dist/front.h"
#include "dist/worker.h"
#include "sim/rng.h"
#include "sim/tracegen.h"
#include "wire/codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kPassFrames = std::size_t{1} << 20;
constexpr std::size_t kLadderFrames = std::size_t{1} << 16;
constexpr int kLadderReps = 7;

// One contiguous buffer of frames plus the verdict each must get.
struct Frames {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> start{0};
  std::vector<wire::ParseStatus> status;

  std::size_t size() const { return status.size(); }
  const std::uint8_t* data(std::size_t i) const {
    return bytes.data() + start[i];
  }
  std::size_t len(std::size_t i) const { return start[i + 1] - start[i]; }
  void push(const std::uint8_t* p, std::size_t n, wire::ParseStatus st) {
    bytes.insert(bytes.end(), p, p + n);
    start.push_back(static_cast<std::uint32_t>(bytes.size()));
    status.push_back(st);
  }
};

struct Spec {
  const char* algorithm;
  std::size_t num_flows;
  double zipf_skew;
  bool hostile;  // plant 10% malformed frames
  std::vector<std::string> flow_key;
};

// Flow-trace packets (sim/tracegen) encoded with the program's wire spec.
// Hostile inputs turn every tenth frame, at seeded positions, into a
// truncated, oversized or bad-magic frame, in rotation.
Frames make_frames(const Spec& spec, const wire::WireCodec& codec,
                   const banzai::FieldTable& ft, std::uint64_t seed) {
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = kPassFrames;
  cfg.num_flows = spec.num_flows;
  cfg.zipf_skew = spec.zipf_skew;
  cfg.seed = seed;
  const auto trace = netsim::generate_flow_trace(cfg);

  std::vector<std::pair<banzai::FieldId, std::int64_t netsim::TracePacket::*>>
      fields;
  const std::pair<const char*, std::int64_t netsim::TracePacket::*> arrival =
      {"arrival", &netsim::TracePacket::arrival};
  if (codec.spec().find(arrival.first) != nullptr)
    fields.push_back({ft.id_of(arrival.first), arrival.second});
  const std::pair<const char*, std::int32_t netsim::TracePacket::*> ints[] = {
      {"sport", &netsim::TracePacket::sport},
      {"dport", &netsim::TracePacket::dport},
      {"srcip", &netsim::TracePacket::srcip},
      {"dstip", &netsim::TracePacket::dstip},
      {"proto", &netsim::TracePacket::proto}};
  std::size_t magic_at = 0;
  for (const auto& f : codec.spec().fields)
    if (f.has_expect) magic_at = f.offset;

  const std::size_t hb = codec.header_bytes();
  netsim::Xoshiro256 rng(seed ^ 0x6d616c666f726d64ull);
  Frames frames;
  frames.bytes.reserve(kPassFrames * (hb + 2));
  frames.status.reserve(kPassFrames);
  std::vector<std::uint8_t> buf(hb + 8);
  banzai::Packet p(ft.size());
  std::size_t planted = 0;
  for (const auto& tp : trace) {
    for (const auto& [id, member] : fields)
      p.set(id, static_cast<banzai::Value>(tp.*member));
    for (const auto& [name, member] : ints)
      if (codec.spec().find(name) != nullptr)
        p.set(ft.id_of(name), static_cast<banzai::Value>(tp.*member));
    codec.deparse_into(p, buf.data());
    if (!spec.hostile || rng.below(10) != 0) {
      frames.push(buf.data(), hb, wire::ParseStatus::kOk);
      continue;
    }
    switch (planted++ % 3) {
      case 0:
        frames.push(buf.data(), 1 + rng.below(hb - 1),
                    wire::ParseStatus::kTruncated);
        break;
      case 1: {
        const std::size_t extra = 1 + rng.below(8);
        for (std::size_t i = 0; i < extra; ++i)
          buf[hb + i] = static_cast<std::uint8_t>(rng.next());
        frames.push(buf.data(), hb + extra, wire::ParseStatus::kOversized);
        break;
      }
      default:
        buf[magic_at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        frames.push(buf.data(), hb, wire::ParseStatus::kBadValue);
        break;
    }
  }
  // The verdicts are the codec's own: a frame planted wrong would make the
  // reference, not the system, disagree.
  banzai::Packet scratch(ft.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    if (codec.parse_exact(frames.data(i), frames.len(i), scratch).status !=
        frames.status[i])
      throw std::logic_error("planted frame does not parse as intended");
  return frames;
}

// Per-slot sequential reference, one pass at a time.
class Reference {
 public:
  Reference(const banzai::Machine& proto, const Frames& frames,
            const banzai::ServiceConfig& cfg,
            std::shared_ptr<const wire::WireCodec> rx,
            std::shared_ptr<const wire::WireCodec> tx)
      : frames_(frames), rx_(std::move(rx)), tx_(std::move(tx)) {
    // The slot of every frame, from the service's own public slot function.
    banzai::FleetService slotter(proto, cfg);
    banzai::Packet p(proto.fields().size());
    slot_.resize(frames.size());
    accepted_before_.resize(frames.size() + 1);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      accepted_before_[i + 1] = accepted_before_[i];
      if (frames.status[i] != wire::ParseStatus::kOk) continue;
      ++accepted_before_[i + 1];
      rx_->parse_exact(frames.data(i), frames.len(i), p);
      slot_[i] = static_cast<std::uint16_t>(slotter.slot_of(p));
    }
    for (std::size_t s = 0; s < slotter.num_slots(); ++s) {
      slots_.push_back(proto.clone());
      slots_.back().set_engine(banzai::ExecEngine::kKernel);
    }
    expected_.resize(accepted_before_.back() * tx_->header_bytes());
    next_pass();
  }

  // Expected egress of the next pass over the buffer.
  void next_pass() {
    banzai::Packet p(slots_.front().fields().size());
    const std::size_t hb = tx_->header_bytes();
    std::size_t k = 0;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (frames_.status[i] != wire::ParseStatus::kOk) continue;
      rx_->parse_exact(frames_.data(i), frames_.len(i), p);
      tx_->deparse_into(slots_[slot_[i]].process(p), &expected_[k++ * hb]);
    }
  }

  // Items of frames [a, b) whose egress is missing or differs byte for byte.
  std::uint64_t mismatches(std::vector<std::vector<std::uint8_t>>& out,
                           std::size_t a, std::size_t b) const {
    const std::size_t hb = tx_->header_bytes();
    const std::size_t first = accepted_before_[a];
    const std::size_t want = accepted_before_[b] - first;
    std::uint64_t bad = out.size() > want ? out.size() - want
                                          : want - out.size();
    for (std::size_t j = 0; j < std::min(want, out.size()); ++j)
      if (out[j].size() != hb ||
          std::memcmp(out[j].data(), &expected_[(first + j) * hb], hb) != 0)
        ++bad;
    return bad;
  }

  // Frames of each ParseStatus among [a, b), indexed by the status value.
  void planted(std::size_t a, std::size_t b, std::uint64_t counts[4]) const {
    static_assert(static_cast<int>(wire::ParseStatus::kBadValue) == 3,
                  "one count per ParseStatus");
    for (std::size_t i = a; i < b; ++i)
      ++counts[static_cast<int>(frames_.status[i])];
  }

 private:
  const Frames& frames_;
  std::shared_ptr<const wire::WireCodec> rx_, tx_;
  std::vector<std::uint16_t> slot_;
  std::vector<std::uint32_t> accepted_before_;
  std::vector<banzai::Machine> slots_;
  std::vector<std::uint8_t> expected_;
};

// Restricts the calling thread, and every thread or process it starts from
// then on, to one CPU: the highest-numbered one the process may use.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

const atoms::BanzaiTarget& least_paper_target(const std::string& alg) {
  for (const auto& t : atoms::paper_targets())
    if (atoms::stateful_kind_name(t.stateful_atom) ==
        algorithms::algorithm(alg).paper_least_atom)
      return t;
  throw std::runtime_error("no paper target for " + alg);
}

// Shared by the three serving workloads: program, inputs, reference, the
// native set-up, and the single-thread ladder of the traced run.
class Serving : public Workload {
 public:
  Serving(const Options& opt, Spec spec, std::size_t num_slots,
          std::size_t batch_size, std::size_t burst)
      : opt_(opt),
        spec_(std::move(spec)),
        alg_(algorithms::algorithm(spec_.algorithm)),
        target_(least_paper_target(spec_.algorithm)),
        wire_spec_(wire::parse_wire_spec(alg_.wire_spec)),
        batch_size_(batch_size),
        burst_(burst) {
    // The reference's own compile, on the kernel engine; the system under
    // test is compiled again, natively, by every set-up.
    ref_compiled_ = domino::compile(alg_.source, target_);
    const banzai::Machine& m = ref_compiled_.machine();
    auto rx = std::make_shared<const wire::WireCodec>(wire_spec_, m.fields());
    auto tx = std::make_shared<const wire::WireCodec>(
        wire_spec_, m.fields(), ref_compiled_.output_map());
    frames_ = make_frames(spec_, *rx, m.fields(), opt.seed);
    input_hash = fnv1a(frames_.bytes.data(), frames_.bytes.size());
    input_hash = fnv1a(frames_.start.data(),
                       frames_.start.size() * sizeof(std::uint32_t),
                       input_hash);
    banzai::ServiceConfig cfg;
    cfg.num_slots = num_slots;
    for (const auto& f : spec_.flow_key)
      cfg.flow_key.push_back(m.fields().id_of(f));
    ref_ = std::make_unique<Reference>(m, frames_, cfg, rx, tx);
    std::uint64_t planted[4] = {};
    ref_->planted(0, frames_.size(), planted);
    notes.push_back(std::string("program=") + spec_.algorithm + " target=" +
                    target_.name + " frames/pass=" +
                    std::to_string(frames_.size()) + " malformed/pass=" +
                    std::to_string(frames_.size() - planted[0]) +
                    " burst=" + std::to_string(burst_));
  }

  Phase run(double seconds, Tracer& tr) override {
    Phase ph;
    std::uint64_t planted[4] = {};
    before_phase();
    ph.start();
    while (ph.elapsed() < seconds) {
      if (pos_ == frames_.size()) {  // next pass: the reference runs untimed
        ph.pause();
        pos_ = 0;
        ref_->next_pass();
        ph.resume();
      }
      const std::size_t a = pos_, b = std::min(a + burst_, frames_.size());
      const std::int64_t t0 = now_ns();
      std::vector<std::vector<std::uint8_t>> out;
      ph.failed += burst(a, b, tr, out);
      ph.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (opt_.corrupt_egress && !out.empty()) {
        out.front().back() ^= 0x5a;
        opt_.corrupt_egress = false;
      }
      ph.failed += ref_->mismatches(out, a, b);
      ref_->planted(a, b, planted);
      ph.items += b - a;
      pos_ = b;
      ph.tick();
    }
    ph.finish();
    ph.failed += after_phase(planted);
    return ph;
  }

 protected:
  // Compile, emit, host-compile into an empty cache, load: the native
  // machine every set-up serves.  Fails unless the native engine is active,
  // so a missing toolchain cannot swap in a different program.
  void build_native(Tracer& tr, std::uint64_t rep) {
    {
      ScopedSpan s(tr, "core.compile", rep);
      compiled_ = compile_in_stages(alg_.source, target_, tr, rep);
    }
    banzai::Machine& m = compiled_.machine();
    std::string cc;
    {
      ScopedSpan s(tr, "core.emit", rep);
      cc = domino::emit_native_cc(*m.kernel());
    }
    banzai::NativeOptions nopt = banzai::NativeOptions::from_env();
    nopt.cache_dir = opt_.scratch + "/native-cache-" + std::to_string(rep);
    std::filesystem::remove_all(*nopt.cache_dir);
    banzai::NativeLoadResult load;
    {
      ScopedSpan s(tr, "banzai.native_load", rep);
      load = banzai::NativePipeline::compile_and_load(*m.kernel(), cc, nopt);
    }
    if (load.pipeline == nullptr)
      throw std::runtime_error("native engine unavailable: " + load.error);
    if (load.cache_hit)
      throw std::runtime_error("native cache was not empty");
    m.set_native(std::move(load.pipeline));
    m.set_engine(banzai::ExecEngine::kNative);
    if (m.active_engine() != banzai::ExecEngine::kNative)
      throw std::runtime_error("machine is not on the native engine");
    rx_ = std::make_shared<const wire::WireCodec>(wire_spec_, m.fields());
    tx_ = std::make_shared<const wire::WireCodec>(wire_spec_, m.fields(),
                                                  compiled_.output_map());
  }

  // Runs frames [a, b) as one closed-loop request; fills `out` with the
  // egress and returns the frames whose verdict was wrong.
  virtual std::uint64_t burst(std::size_t a, std::size_t b, Tracer& tr,
                              std::vector<std::vector<std::uint8_t>>& out) = 0;
  virtual void before_phase() {}
  // Checks counters that only settle at the end of a phase; returns the
  // number of items they show wrong.
  virtual std::uint64_t after_phase(const std::uint64_t planted[4]) = 0;

  // Setup-time layers shared by the serving workloads.
  void setup_layers(const Tracer& tr, std::map<std::string, double>& out) {
    out["core.compile_us"] = median(tr.durations_us("core.compile"));
    out["core.compile_" + alg_.name + "_us"] = out["core.compile_us"];
    out["core.parse_us"] = median(tr.durations_us("core.parse"));
    out["core.normalize_us"] = median(tr.durations_us("core.normalize"));
    out["core.schedule_us"] = median(tr.durations_us("core.schedule"));
    out["synthesis.codegen_us"] = median(tr.durations_us("synthesis.codegen"));
    out["core.emit_us"] = median(tr.durations_us("core.emit"));
    out["banzai.native_load_us"] =
        median(tr.durations_us("banzai.native_load"));
    out["banzai.service_start_us"] =
        median(tr.durations_us("banzai.service_start"));
    double candidates = 0;
    for (const auto& rep : compiled_.codegen.reports)
      candidates += static_cast<double>(rep.synth_stats.candidates_tried);
    out["synthesis.candidates"] = candidates;
  }

  // Single-thread ladder on the pass's well-formed frames: parse_exact,
  // Machine::run_batch at the service's batch size, deparse_into.
  void ladder(Tracer& tr, std::map<std::string, double>& out) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < frames_.size() && idx.size() < kLadderFrames;
         ++i)
      if (frames_.status[i] == wire::ParseStatus::kOk) idx.push_back(i);
    banzai::Machine m = compiled_.machine().clone();
    const std::size_t n = idx.size();
    std::vector<banzai::Packet> pkts(n, banzai::Packet(m.fields().size()));
    std::vector<std::uint8_t> buf(tx_->header_bytes());
    std::vector<double> parse, engine, deparse;
    std::uint64_t sink = 0;
    const double per = 1.0 / static_cast<double>(n);
    for (int rep = 0; rep < kLadderReps; ++rep) {
      std::int64_t t0 = now_ns();
      for (std::size_t j = 0; j < n; ++j)
        rx_->parse_exact(frames_.data(idx[j]), frames_.len(idx[j]), pkts[j]);
      std::int64_t t1 = now_ns();
      tr.add("ladder.parse", static_cast<std::uint64_t>(rep), t0, t1, n);
      parse.push_back(static_cast<double>(t1 - t0) * per);
      t0 = now_ns();
      for (std::size_t j = 0; j < n; j += batch_size_)
        m.run_batch(banzai::BatchView::rows(&pkts[j],
                                            std::min(batch_size_, n - j)));
      t1 = now_ns();
      tr.add("ladder.engine", static_cast<std::uint64_t>(rep), t0, t1, n);
      engine.push_back(static_cast<double>(t1 - t0) * per);
      t0 = now_ns();
      for (std::size_t j = 0; j < n; ++j) {
        tx_->deparse_into(pkts[j], buf.data());
        sink += buf.back();
      }
      t1 = now_ns();
      tr.add("ladder.deparse", static_cast<std::uint64_t>(rep), t0, t1, n);
      deparse.push_back(static_cast<double>(t1 - t0) * per);
    }
    volatile std::uint64_t keep = sink;  // the deparsed bytes are used
    (void)keep;
    out["wire.parse_ns"] = median(parse);
    out["banzai.engine_ns"] = median(engine);
    out["wire.deparse_ns"] = median(deparse);
  }

  Options opt_;
  Spec spec_;
  const algorithms::AlgorithmInfo& alg_;
  const atoms::BanzaiTarget& target_;
  wire::WireSpec wire_spec_;
  std::size_t batch_size_;
  std::size_t burst_;
  domino::CompileResult ref_compiled_;
  Frames frames_;
  std::unique_ptr<Reference> ref_;
  std::size_t pos_ = 0;
  std::uint64_t setups_ = 0;
  // The system under test, rebuilt by every set-up.
  domino::CompileResult compiled_;
  std::shared_ptr<const wire::WireCodec> rx_, tx_;
};

// FleetService byte path: ingest_frame x burst -> flush ->
// drain_egress_frames, one shard, every other ServiceConfig field default.
//
// The client and the service's worker share one CPU.  Left to the
// scheduler, the pair flips between sharing a CPU (the usual choice on a
// quiet host) and two CPUs that wake each other, which on a busy shared host
// draws several times the steal and halves throughput.  Over 15
// alternating 8-s runs on a 4-vCPU shared VM, the 7 pinned ones gave
// 1.74-2.06 M frames/s with p90 546-675 us; the 8 unpinned ones 1.07-2.30 M
// with p90 444-1561 us.
class Service : public Serving {
 public:
  Service(const Options& opt, Spec spec)
      : Serving(opt, std::move(spec), banzai::ServiceConfig{}.num_slots,
                banzai::ServiceConfig{}.batch_size, 1024) {
    pin_to_one_cpu();
  }

  double setup(Tracer& tr) override {
    svc_.reset();
    const std::uint64_t rep = setups_++;
    const std::int64_t t0 = now_ns();
    const int root = tr.begin("setup", rep);
    build_native(tr, rep);
    {
      ScopedSpan s(tr, "banzai.service_start", rep);
      banzai::ServiceConfig cfg;
      for (const auto& f : spec_.flow_key)
        cfg.flow_key.push_back(compiled_.machine().fields().id_of(f));
      svc_ = std::make_unique<banzai::FleetService>(compiled_.machine(), cfg);
      svc_->set_wire(rx_, tx_);
      svc_->start();
    }
    tr.end(root);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void layers(Tracer& tr, const Phase& traced,
              std::map<std::string, double>& out) override {
    setup_layers(tr, out);
    ladder(tr, out);
    out["banzai.ingest_frame_ns"] =
        accepted_n_ ? static_cast<double>(accepted_ns_) / accepted_n_ : 0;
    out["wire.reject_ns"] =
        rejected_n_ ? static_cast<double>(rejected_ns_) / rejected_n_ : 0;
    out["banzai.flush_us"] = median(tr.durations_us("banzai.flush"));
    const std::uint64_t drained = tr.total_items("banzai.drain");
    out["banzai.drain_ns"] =
        drained ? tr.total_us("banzai.drain") * 1e3 / drained : 0;
    const banzai::ServiceStats st = svc_->stats();
    out["banzai.queue_p50_ticks"] =
        static_cast<double>(st.latency_p50_ticks);
    out["banzai.vcsw_per_kframe"] =
        traced.usage.voluntary * 1e3 / static_cast<double>(traced.items);
    out["wire.rejects_truncated"] =
        static_cast<double>(st.wire.reject_truncated - wire0_.reject_truncated);
    out["wire.rejects_oversized"] =
        static_cast<double>(st.wire.reject_oversized - wire0_.reject_oversized);
    out["wire.rejects_bad_value"] =
        static_cast<double>(st.wire.reject_bad_value - wire0_.reject_bad_value);
  }

 protected:
  std::uint64_t burst(std::size_t a, std::size_t b, Tracer& tr,
                      std::vector<std::vector<std::uint8_t>>& out) override {
    std::uint64_t wrong = 0;
    const bool traced = tr.on();
    const int root = tr.begin("svc.burst", a / burst_);
    const int ingest = tr.begin("banzai.ingest_frames", a / burst_);
    std::int64_t last = traced ? now_ns() : 0;
    for (std::size_t i = a; i < b; ++i) {
      const auto r = svc_->ingest_frame(frames_.data(i), frames_.len(i));
      const bool ok = frames_.status[i] == wire::ParseStatus::kOk;
      if (r.parse.status != frames_.status[i] || r.accepted != ok) ++wrong;
      if (traced) {  // one clock read per frame, folded into the burst span
        const std::int64_t t = now_ns();
        (ok ? accepted_ns_ : rejected_ns_) += t - last;
        ++(ok ? accepted_n_ : rejected_n_);
        last = t;
      }
    }
    tr.end(ingest, b - a);
    {
      ScopedSpan s(tr, "banzai.flush", a / burst_);
      svc_->flush();
    }
    const int drain = tr.begin("banzai.drain", a / burst_);
    out = svc_->drain_egress_frames();
    tr.end(drain, out.size());
    tr.end(root, b - a);
    return wrong;
  }

  void before_phase() override { wire0_ = svc_->stats().wire; }

  // The service's typed reject counters must equal the planted counts.
  std::uint64_t after_phase(const std::uint64_t planted[4]) override {
    const banzai::WireStats w = svc_->stats().wire;
    const std::uint64_t got[4] = {
        w.frames_parsed - wire0_.frames_parsed,
        w.reject_truncated - wire0_.reject_truncated,
        w.reject_oversized - wire0_.reject_oversized,
        w.reject_bad_value - wire0_.reject_bad_value};
    std::uint64_t wrong = 0;
    for (int k = 0; k < 4; ++k)
      wrong += got[k] > planted[k] ? got[k] - planted[k] : planted[k] - got[k];
    return wrong;
  }

 private:
  std::unique_ptr<banzai::FleetService> svc_;
  banzai::WireStats wire0_;
  std::int64_t accepted_ns_ = 0, rejected_ns_ = 0;
  std::uint64_t accepted_n_ = 0, rejected_n_ = 0;
};

// Dist tier: FrontTier (default FrontConfig) -> loopback TCP -> one
// in-process WorkerServer with one shard; offer x burst -> flush ->
// drain_egress.  A burst is 2048 frames.  Each RPC waits out the worker's
// 2 ms sleep-poll, so a burst's latency is a sum of such waits, and its
// percentiles steady as the sum grows: p90/p50 was 1.3 at 256 frames and
// 1.17 at 2048.  2048 also puts the front's forced checkpoint, due every
// resend_limit = 8192 frames, in exactly every fourth burst, away from the
// p50 and p90 ranks.
class Dist : public Serving {
 public:
  Dist(const Options& opt, Spec spec)
      : Serving(opt, std::move(spec), dist::FrontConfig{}.num_slots,
                dist::WorkerConfig{}.batch_size, 2048) {}

  ~Dist() override { teardown(); }

  double setup(Tracer& tr) override {
    teardown();
    const std::uint64_t rep = setups_++;
    const std::int64_t t0 = now_ns();
    const int root = tr.begin("setup", rep);
    build_native(tr, rep);
    {
      ScopedSpan s(tr, "banzai.service_start", rep);
      dist::WorkerConfig wc;
      wc.algorithm = spec_.algorithm;
      wc.num_shards = 1;
      wc.flow_key = spec_.flow_key;
      worker_ = std::make_unique<dist::WorkerServer>(compiled_.machine(), rx_,
                                                     tx_, wc);
      worker_->start();
    }
    {
      ScopedSpan s(tr, "dist.connect", rep);
      dist::FrontConfig fc;
      fc.algorithm = spec_.algorithm;
      for (const auto& f : spec_.flow_key)
        fc.flow_key.push_back(compiled_.machine().fields().id_of(f));
      front_ = std::make_unique<dist::FrontTier>(rx_, fc);
      front_->add_worker(worker_->port());
      front_->connect();
    }
    tr.end(root);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void layers(Tracer& tr, const Phase& traced,
              std::map<std::string, double>& out) override {
    setup_layers(tr, out);
    ladder(tr, out);
    out["dist.connect_us"] = median(tr.durations_us("dist.connect"));
    out["dist.rpc_rtt_us"] = median(tr.durations_us("dist.rpc"));
    out["dist.offer_us"] = median(tr.durations_us("dist.offers"));
    out["dist.flush_us"] = median(tr.durations_us("dist.flush"));
    const std::uint64_t drained = tr.total_items("dist.drain");
    out["dist.drain_ns"] =
        drained ? tr.total_us("dist.drain") * 1e3 / drained : 0;
    const dist::FrontStats f = front_->stats();
    const dist::WorkerStats w = worker_->stats();
    const double frames = static_cast<double>(traced.items);
    out["dist.rpcs_per_kframe"] =
        static_cast<double>(w.requests - worker0_.requests) * 1e3 / frames;
    out["dist.send_ratio"] =
        static_cast<double>(f.frames_sent - front0_.frames_sent) /
        static_cast<double>(f.frames_offered - front0_.frames_offered);
    out["dist.retries"] = static_cast<double>(f.retries - front0_.retries);
    out["dist.egress_duplicates"] =
        static_cast<double>(f.egress_duplicates - front0_.egress_duplicates);
    out["banzai.vcsw_per_kframe"] = traced.usage.voluntary * 1e3 / frames;
  }

 protected:
  std::uint64_t burst(std::size_t a, std::size_t b, Tracer& tr,
                      std::vector<std::vector<std::uint8_t>>& out) override {
    const std::uint64_t id = a / burst_;
    const int root = tr.begin("dist.burst", id);
    const int offers = tr.begin("dist.offers", id);
    for (std::size_t i = a; i < b; ++i) {
      if (!tr.on()) {
        front_->offer(frames_.data(i), frames_.len(i));
        continue;
      }
      // One span per offer that carried an RPC (frames_sent advanced).
      const std::uint64_t sent = front_->stats().frames_sent;
      const std::int64_t t0 = now_ns();
      front_->offer(frames_.data(i), frames_.len(i));
      const std::int64_t t1 = now_ns();
      if (front_->stats().frames_sent != sent) tr.add("dist.rpc", id, t0, t1);
    }
    tr.end(offers, b - a);
    {
      ScopedSpan s(tr, "dist.flush", id);
      front_->flush();
    }
    const int drain = tr.begin("dist.drain", id);
    out = front_->drain_egress();
    tr.end(drain, out.size());
    tr.end(root, b - a);
    return 0;  // well-formed frames only: egress is the whole verdict
  }

  void before_phase() override {
    front0_ = front_->stats();
    worker0_ = worker_->stats();
  }

  std::uint64_t after_phase(const std::uint64_t planted[4]) override {
    const dist::WorkerStats w = worker_->stats();
    const std::uint64_t rejected = w.frames_rejected - worker0_.frames_rejected;
    const std::uint64_t want = planted[1] + planted[2] + planted[3];
    return rejected > want ? rejected - want : want - rejected;
  }

 private:
  void teardown() {
    front_.reset();
    if (worker_) worker_->stop();
    worker_.reset();
  }

  std::unique_ptr<dist::WorkerServer> worker_;
  std::unique_ptr<dist::FrontTier> front_;
  dist::FrontStats front0_;
  dist::WorkerStats worker0_;
};

}  // namespace

std::unique_ptr<Workload> make_service(const Options& opt, bool hostile) {
  if (hostile)
    return std::make_unique<Service>(
        opt, Spec{"heavy_hitters", 100000, 1.1, true,
                  {"srcip", "dstip", "sport", "dport", "proto"}});
  return std::make_unique<Service>(
      opt, Spec{"flowlets", 8000, 0.0, false, {"sport", "dport"}});
}

std::unique_ptr<Workload> make_dist(const Options& opt) {
  return std::make_unique<Dist>(
      opt, Spec{"flowlets", 8000, 0.0, false, {"sport", "dport"}});
}

}  // namespace perfbench
