// The Domino compiler driver (§4, Figure 4): normalization -> pipelining ->
// code generation, with every intermediate artifact retained for inspection,
// golden tests and the figure-reproduction benches.
//
// All-or-nothing (§4): compile() either returns a machine guaranteed to run
// the transaction at line rate on the given target, or throws CompileError.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "atoms/targets.h"
#include "core/codegen.h"
#include "core/normalize.h"
#include "ir/ast.h"
#include "ir/pvsm.h"

namespace domino {

struct CompileOptions {
  synthesis::SynthOptions synth;
  // Execution engine the compiled machine starts on (see banzai/kernel.h and
  // docs/ARCHITECTURE.md "Execution engines").  kKernel — the default — runs
  // the fused micro-op program lowered at compile time on the VM; kNative
  // additionally emits that program as C++ (core/emit.*), compiles it with
  // the host toolchain and dlopens it (banzai/native.*) — falling back to
  // kKernel, with the reason recorded on the machine
  // (Machine::native_fallback_reason), when no toolchain is available.
  // Both engines are bit-exact; flip per machine at any time with
  // Machine::set_engine.
  banzai::ExecEngine engine = banzai::ExecEngine::kKernel;
  // Host-compiler knobs for kNative (compiler, flags, .so cache directory);
  // every field also honors its environment variable (see banzai/native.h).
  banzai::NativeOptions native;
};

struct CompileResult {
  Program program;        // parsed + sema-checked source
  Normalized normalized;  // Figures 5-8 artifacts
  CodeletPipeline pvsm;   // Figure 3b / 9b artifact (pre width-fitting)
  CodegenResult codegen;  // machine, fitted pipeline, per-codelet reports
  double seconds = 0.0;   // total wall-clock compile time

  banzai::Machine& machine() { return codegen.machine; }
  const banzai::Machine& machine() const { return codegen.machine; }

  // Maps each user-declared packet field to the machine field holding its
  // final value after the transaction.
  const std::map<std::string, std::string>& output_map() const {
    return normalized.final_names;
  }

  std::size_t num_stages() const { return codegen.fitted.num_stages(); }
  std::size_t max_atoms_per_stage() const {
    return codegen.fitted.max_codelets_per_stage();
  }
};

// Front-end only: parse + sema.
Program parse_and_check(std::string_view source);

// Full compilation to a Banzai target.
CompileResult compile(std::string_view source,
                      const atoms::BanzaiTarget& target,
                      const CompileOptions& options = {});

// Counts non-empty, non-comment source lines (the LOC metric of Table 4).
std::size_t count_loc(std::string_view source);

}  // namespace domino
