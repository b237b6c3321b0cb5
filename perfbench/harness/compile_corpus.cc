// compile_corpus: the eleven Table-4 programs, each compiled to its least
// paper target by trying the targets in hierarchy order, as dominoc does.
// Compile time is the paper's own cost metric (§5.3); here `core` and
// `synthesis` do all the work and the byte path and RPC tier none.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "core/codegen.h"
#include "core/normalize.h"
#include "core/pipeline.h"
#include "ir/diag.h"
#include "sim/rng.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

domino::CompileResult compile_in_stages(const std::string& source,
                                        const atoms::BanzaiTarget& target,
                                        Tracer& tr, std::uint64_t request) {
  domino::CompileResult r;
  {
    ScopedSpan s(tr, "core.parse", request);
    r.program = domino::parse_and_check(source);
  }
  {
    ScopedSpan s(tr, "core.normalize", request);
    r.normalized = domino::normalize(r.program);
  }
  {
    ScopedSpan s(tr, "core.schedule", request);
    r.pvsm = domino::pipeline_schedule(r.normalized.tac);
  }
  {
    ScopedSpan s(tr, "synthesis.codegen", request);
    r.codegen = domino::generate_code(r.pvsm, r.normalized.ssa, target,
                                      r.normalized.final_names);
  }
  return r;
}

namespace {

// Pass orders generated before timing; passes beyond this reuse them.
constexpr std::size_t kOrders = 4096;

// Every corpus program, the target index Table 4 says it maps to (-1 for
// CoDel, which no paper target accepts), and the seeded pass orders.
struct Corpus {
  explicit Corpus(std::uint64_t seed) {
    const auto& targets = atoms::paper_targets();
    for (const auto& a : algorithms::corpus()) {
      int want = -1;
      for (std::size_t t = 0; t < targets.size(); ++t)
        if (atoms::stateful_kind_name(targets[t].stateful_atom) ==
            a.paper_least_atom)
          want = static_cast<int>(t);
      if (want < 0 && a.paper_least_atom != "Doesn't map")
        throw std::runtime_error("no paper target for " + a.name);
      expected.push_back(want);
    }
    const std::size_t n = expected.size();
    netsim::Xoshiro256 rng(seed);
    orders.resize(kOrders * n);
    for (std::size_t p = 0; p < kOrders; ++p) {
      std::uint8_t* o = &orders[p * n];
      for (std::size_t i = 0; i < n; ++i) o[i] = static_cast<std::uint8_t>(i);
      for (std::size_t i = n - 1; i > 0; --i)
        std::swap(o[i], o[rng.below(i + 1)]);
    }
  }
  std::size_t size() const { return expected.size(); }
  const std::uint8_t* order(std::uint64_t pass) const {
    return &orders[(pass % kOrders) * size()];
  }
  std::uint64_t hash() const {
    std::uint64_t h = fnv1a(orders.data(), orders.size());
    for (const auto& a : algorithms::corpus())
      h = fnv1a(a.source.data(), a.source.size(), h);
    return h;
  }

  std::vector<int> expected;
  std::vector<std::uint8_t> orders;
};

struct PassCounts {
  std::uint64_t rejects = 0;     // targets that refused a program
  std::uint64_t candidates = 0;  // synthesis candidates of accepted compiles
};

// The least paper target accepting program `idx`, or -1.  Untraced runs go
// through domino::compile, the entry point dominoc uses.
int least_target(std::size_t idx, Tracer& tr, std::uint64_t request,
                 PassCounts& counts) {
  const std::string& src = algorithms::corpus()[idx].source;
  const auto& targets = atoms::paper_targets();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    try {
      domino::CompileResult r;
      if (tr.on()) {
        ScopedSpan s(tr, "core.compile", request);
        r = compile_in_stages(src, targets[t], tr, request);
      } else {
        r = domino::compile(src, targets[t]);
      }
      for (const auto& rep : r.codegen.reports)
        counts.candidates += rep.synth_stats.candidates_tried;
      return static_cast<int>(t);
    } catch (const domino::CompileError&) {
      ++counts.rejects;
    }
  }
  return -1;
}

class CompileCorpus : public Workload {
 public:
  explicit CompileCorpus(const Options& opt) : opt_(opt), corpus_(opt.seed) {
    input_hash = corpus_.hash();
    notes.push_back("programs=" + std::to_string(corpus_.size()) +
                    " engine=kernel");
  }

  int setup_reps() const override { return 3; }
  const char* item_name() const override { return "program"; }

  // What a one-shot dominoc pays: a fresh process compiling the corpus
  // cold.  The child checks its own least targets and exits nonzero on any
  // mismatch.
  double setup(Tracer&) override {
    const std::string seed = std::to_string(opt_.seed);
    char* argv[] = {const_cast<char*>("perfbench"),
                    const_cast<char*>("--cold-pass"),
                    const_cast<char*>("--seed"),
                    const_cast<char*>(seed.c_str()), nullptr};
    const std::int64_t t0 = now_ns();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv,
                    environ) != 0)
      throw std::runtime_error("cannot spawn the cold-pass child");
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("cold corpus pass failed");
    return s;
  }

  Phase run(double seconds, Tracer& tr) override {
    if (!warmed_) {  // allocator and code pages, outside any timing
      Tracer off(false);
      PassCounts c;
      for (std::size_t i = 0; i < corpus_.size(); ++i)
        least_target(i, off, 0, c);
      warmed_ = true;
    }
    const std::size_t n = corpus_.size();
    Phase ph;
    ph.start();
    do {
      const std::uint64_t pass = next_pass_++;
      const std::uint8_t* order = corpus_.order(pass);
      PassCounts counts;
      const int pass_span = tr.begin("corpus.pass", pass);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = order[k];
        const std::uint64_t request = pass * n + idx;
        const std::int64_t start = now_ns();
        int got;
        {
          ScopedSpan s(tr, "core.compile_program", request);
          got = least_target(idx, tr, request, counts);
        }
        ph.latency_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
        ++ph.items;
        if (got != corpus_.expected[idx]) ++ph.failed;
      }
      tr.end(pass_span, n);
      pass_counts_.push_back(counts);
      ph.tick();
    } while (ph.elapsed() < seconds);
    ph.finish();
    return ph;
  }

  void layers(Tracer& tr, const Phase& traced,
              std::map<std::string, double>& out) override {
    const std::size_t n = corpus_.size();
    // Per-pass totals of each stage, then the median pass.
    auto per_pass = [&](const char* name) {
      std::map<std::uint64_t, double> sum;
      for (const auto& s : tr.spans())
        if (std::string(s.name) == name)
          sum[s.request / n] += static_cast<double>(s.end_ns - s.start_ns) *
                                1e-3;
      std::vector<double> v;
      for (const auto& [pass, us] : sum) v.push_back(us);
      return median(v);
    };
    out["core.parse_us"] = per_pass("core.parse");
    out["core.normalize_us"] = per_pass("core.normalize");
    out["core.schedule_us"] = per_pass("core.schedule");
    out["synthesis.codegen_us"] = per_pass("synthesis.codegen");
    out["core.compile_us"] = per_pass("core.compile");
    std::vector<std::vector<double>> per_program(n);
    for (const auto& s : tr.spans())
      if (std::string(s.name) == "core.compile_program")
        per_program[s.request % n].push_back(
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    for (std::size_t i = 0; i < n; ++i)
      out["core.compile_" + algorithms::corpus()[i].name + "_us"] =
          median(per_program[i]);
    // Exact counts: every pass does identical work, so every pass must
    // count the same; a difference is reported, not averaged away.
    const PassCounts& first = pass_counts_.front();
    for (const PassCounts& c : pass_counts_)
      if (c.rejects != first.rejects || c.candidates != first.candidates) {
        notes.push_back("WARNING: synthesis counts differ between passes");
        break;
      }
    out["synthesis.candidates"] = static_cast<double>(first.candidates);
    out["synthesis.target_rejects"] = static_cast<double>(first.rejects);
    out["banzai.vcsw_per_kframe"] =
        traced.usage.voluntary * 1e3 / static_cast<double>(traced.items);
  }

 private:
  Options opt_;
  Corpus corpus_;
  bool warmed_ = false;
  std::uint64_t next_pass_ = 0;
  std::vector<PassCounts> pass_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_compile_corpus(const Options& opt) {
  return std::make_unique<CompileCorpus>(opt);
}

int cold_corpus_pass(const Options& opt) {
  Corpus corpus(opt.seed);
  Tracer off(false);
  PassCounts counts;
  int bad = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const std::size_t idx = corpus.order(0)[k];
    if (least_target(idx, off, idx, counts) != corpus.expected[idx]) {
      std::fprintf(stderr, "cold pass: %s mapped to the wrong target\n",
                   algorithms::corpus()[idx].name.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
