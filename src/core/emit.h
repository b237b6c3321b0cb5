// AOT C++ emission (the paper's Banzai code-generation strategy, §5 "Banzai
// simulates a switch pipeline... generated C++ is compiled with the host
// toolchain"): prints a sealed CompiledPipeline micro-op program as one
// self-contained translation unit exporting one `extern "C"` function,
// banzai::kNativeEntrySymbol: an outer packet loop of straight-line per-op
// code over each packet's field array.  Stage barriers are comments, state
// slots are addressed through a raw view array, intrinsics and LUT ROMs are
// called through the fixed ABI struct of banzai/native.h.  The loader there
// compiles and dlopens the result; `dominoc --emit-cc` dumps it as an
// artifact.
//
// Determinism: the emitted text is a pure function of the program, so the
// loader's content-hash cache turns repeated compiles of one program into a
// single host-compiler invocation per machine boot.
#pragma once

#include <string>

#include "banzai/kernel.h"

namespace domino {

// Emission knobs.  The default-constructed value reproduces the historical
// emission byte-for-byte — the loader's content-hash cache (and the docs'
// "flag-off build is untouched" contract) depend on that.
struct NativeEmitOptions {
  // Emit per-stage packets/ops/ns increments against the ABI's
  // stage_counters rows (banzai::NativeStageCounterRow): the entry point
  // restructures into stage-major loops wrapped in steady_clock reads, each
  // guarded by `if (ctr)` so a null pointer costs one branch per stage per
  // batch.  Set by the compiler driver only in -DDOMINO_STAGE_COUNTERS
  // builds; the changed text gives counter-aware objects their own content
  // hash, so counted and uncounted .so's share one cache without collision.
  bool stage_counters = false;
};

// Renders `prog` as compilable C++ exporting banzai::kNativeEntrySymbol.
// Throws std::logic_error if the program is not sealed.
std::string emit_native_cc(const banzai::CompiledPipeline& prog,
                           const NativeEmitOptions& opts = {});

}  // namespace domino
