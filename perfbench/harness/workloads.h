// The four workloads.  Each runs closed-loop with one client thread and
// drives the system only through its public calls.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiler.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the system under test once and returns the seconds it took; the
  // last build is the one the timed phases run on.
  virtual double setup(Tracer& tr) = 0;
  // One timed phase of about `seconds`, checked against the reference.
  virtual Phase run(double seconds, Tracer& tr) = 0;
  // Per-layer metrics of the traced phase just run (and the set-ups); may
  // add spans of its own.
  virtual void layers(Tracer& tr, const Phase& traced,
                      std::map<std::string, double>& out) = 0;
  // Number of set-up repetitions whose median is setup_s.
  virtual int setup_reps() const { return 5; }
  virtual const char* item_name() const { return "frame"; }
  // Inputs and reference are built by the constructor; this is their hash.
  std::uint64_t input_hash = 0;
  std::vector<std::string> notes;
};

// compile() on the kernel engine, one public stage call at a time so each
// stage gets its own span.
domino::CompileResult compile_in_stages(const std::string& source,
                                        const atoms::BanzaiTarget& target,
                                        Tracer& tr, std::uint64_t request);

std::unique_ptr<Workload> make_compile_corpus(const Options& opt);
std::unique_ptr<Workload> make_service(const Options& opt, bool hostile);
std::unique_ptr<Workload> make_dist(const Options& opt);

// Child mode of compile_corpus: one cold least-target pass over the corpus
// in pass-0 order; returns the process exit code.
int cold_corpus_pass(const Options& opt);

}  // namespace perfbench
