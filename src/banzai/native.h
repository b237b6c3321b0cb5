// Native AOT execution of a compiled pipeline: the paper's actual Banzai
// strategy.  Banzai does not interpret atom configurations — it code-generates
// C++ per atom and compiles it with the host toolchain.  The kNative engine
// does the same for the whole pipeline at once: core/emit.cc prints the
// sealed CompiledPipeline micro-op program as one flat `extern "C"` function
// (straight-line per-op code, stage barriers as comments), and the loader
// here shells out to the host C++ compiler (`-O3 -fPIC -shared`), caches the
// resulting shared object under a content hash of the emitted source, and
// `dlopen`s it.  Where the kernel VM pays one switch dispatch per op per
// batch, the native function pays none — the host optimizer sees the entire
// pipeline as a single function and schedules it like any other hot loop.
//
// ABI: the emitted translation unit is self-contained (it re-declares the
// structs below as layout-identical PODs and carries its own copies of the
// total-arithmetic helpers from banzai/value.h), so the .so links against
// nothing.  Everything host-resident — state cells, intrinsic bodies, LUT
// ROMs — reaches the generated code through one fixed ABI struct of raw
// pointers, resolved once at load time (functions) or once per binding
// generation (state views; see Machine's binding cache in machine.h).  State
// is bound per row: row `pi` of a batch reaches state slot `k` through
// `abi->states[pi][k]`, so one call can run rows owned by different
// replicas of the program (ShardCore's slots), each against its own store.
//
// Fallback contract: loading is best-effort.  No host toolchain, a disabled
// engine (DOMINO_NATIVE_DISABLE), an emission or compile or dlopen failure —
// each returns a NativeLoadResult carrying the reason instead of a pipeline,
// and the Machine keeps executing on the kernel VM, with the reason recorded
// via Machine::native_fallback_reason().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "banzai/kernel.h"
#include "banzai/value.h"

namespace banzai {

// One bound state variable as the generated code sees it: raw cells plus the
// cell count for index clamping.  Layout must match the POD the emitter
// prints into every generated translation unit (core/emit.cc, kPrelude).
struct NativeStateView {
  Value* cells = nullptr;
  std::uint64_t size = 0;
};

// Per-stage counters as the generated code fills them: plain uint64 rows
// (no atomics in the .so — the host folds them into the shared-readable
// StageCounters accumulators after the batch; machine.cc).  Layout must
// match the POD printed by the counters prelude (core/emit.cc).
struct NativeStageCounterRow {
  std::uint64_t packets = 0;
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;
};

// The fixed ABI struct passed to every generated entry point.  `states` is
// the per-row state table: `states[pi]` is the view array of the replica
// that owns row `pi`, indexed by the program's dense state-slot ids.
// `intrinsics` is indexed by position in the CompiledPipeline intrinsic
// pool, `luts` by position in the stateful pool.  Layout must match the
// emitter's POD (core/emit.cc, kPrelude).  `stage_counters` (one row per
// stage, or null) is only read by objects emitted with counter support
// (NativeEmitOptions::stage_counters); the default prelude's POD is a strict
// layout prefix of this struct, so counted and counterless objects take the
// same struct.
struct NativeAbi {
  const NativeStateView* const* states = nullptr;
  const IntrinsicFn* intrinsics = nullptr;
  const LutFn* luts = nullptr;
  NativeStageCounterRow* stage_counters = nullptr;
};

// Every generated pipeline exports this entry point: process `n` packets
// (one field array each) through the whole pipeline, in place.
using NativeEntryFn = void (*)(Value* const* pkts, std::uint64_t n,
                               const NativeAbi* abi);
inline constexpr char kNativeEntrySymbol[] = "domino_pipeline_run";

// Where compiled pipelines land when neither NativeOptions::cache_dir nor
// DOMINO_NATIVE_CACHE says otherwise.
inline constexpr char kDefaultNativeCacheDir[] = "/tmp/domino-native-cache";

// Knobs for the out-of-process compile.  The single resolution point for the
// DOMINO_NATIVE_* environment is from_env(); each string knob resolves
// explicit option, then environment variable, then built-in default:
//   compiler    DOMINO_NATIVE_CXX       first of c++ / g++ / clang++ on PATH
//   extra_flags DOMINO_NATIVE_CXXFLAGS  (appended to -std=c++17 -O3 -fPIC
//                                        -shared)
//   cache_dir   DOMINO_NATIVE_CACHE     kDefaultNativeCacheDir
//   disabled    DOMINO_NATIVE_DISABLE   false (any non-empty value disables)
// The string knobs are optionals with presence semantics: an engaged field
// wins over the environment even when its value is empty, so a caller can
// force "no extra flags" or "probe PATH for the compiler" while the
// corresponding variable is set.  A disengaged field (the default) falls
// through to the environment, then to the built-in default.  A disabled
// load refuses with the documented fallback reason — the switch CI and
// tests use to exercise the no-toolchain path deterministically.
//
// Tuning recipe: the default flags compile the emitted pipeline for a
// generic host ISA.  Set DOMINO_NATIVE_CXXFLAGS="-march=native" (or
// extra_flags) to tune it for the build machine — at the cost of a .so that
// may not run elsewhere; the content hash keys on the flags, so both
// variants can share one cache.
struct NativeOptions {
  std::optional<std::string> compiler;
  std::optional<std::string> extra_flags;
  std::optional<std::string> cache_dir;
  bool disabled = false;
  bool force_recompile = false;  // ignore a cached .so, rebuild it
  // Size cap for the cache directory: after a successful compile the loader
  // LRU-sweeps (native_cache_sweep below) everything but the entry it just
  // produced until the cache fits.  Disengaged (the default) means no cap.
  // Environment form: DOMINO_NATIVE_CACHE_MAX_BYTES.
  std::optional<std::uint64_t> cache_max_bytes;

  // Reads the DOMINO_NATIVE_* variables.  A set, non-empty variable engages
  // the field; unset (or empty) leaves it disengaged so the built-in
  // default applies downstream.  The only place the environment is
  // consulted — compile_and_load() and every caller resolve through here.
  static NativeOptions from_env();
};

// --- Cache hygiene (dominoc --native-cache {stats,clear,sweep}) ------------
// Long-lived deployments accumulate one .cc/.so pair per (program, compiler,
// flags) triple; these operate on the resolved cache directory (`dir`, or
// the NativeOptions::from_env() resolution when empty).  An "entry" is the
// 16-hex-digit content-hash stem; stray temporaries from crashed compiles
// count as entries too so a sweep can reclaim them.
struct NativeCacheStats {
  std::string dir;
  std::size_t objects = 0;       // .so files
  std::size_t sources = 0;       // .cc files
  std::uint64_t total_bytes = 0; // everything under the directory
};

NativeCacheStats native_cache_stats(const std::string& dir = "");
// Removes every cache file.  Returns the number of files removed.
std::size_t native_cache_clear(const std::string& dir = "");
// LRU sweep: evicts whole entries (.so + .cc + logs sharing a stem), oldest
// last-use first (atime; the loader touches a .so's atime on every cache
// hit, so the order is meaningful on relatime/noatime mounts too), until the
// directory's total size is <= max_bytes.  `keep_hash` (when non-empty) is
// never evicted — compile_and_load passes the entry it just loaded.  Returns
// the number of files removed.
std::size_t native_cache_sweep(std::uint64_t max_bytes,
                               const std::string& dir = "",
                               const std::string& keep_hash = "");

class NativePipeline;

struct NativeLoadResult {
  std::shared_ptr<const NativePipeline> pipeline;  // null on failure
  std::string error;        // why `pipeline` is null; empty on success
  std::string source_path;  // emitted .cc in the cache (when written)
  std::string so_path;      // compiled shared object in the cache
  bool cache_hit = false;   // .so was reused, host compiler never ran
};

// A loaded native pipeline: the dlopen handle, the resolved entry point, and
// the load-time function-pointer tables (intrinsics, LUTs) the ABI struct
// points at.  Immutable after load and stateless at execution time — shared
// across machine clones exactly like the CompiledPipeline it was emitted
// from; concurrent run() calls against different state views are safe.
class NativePipeline {
 public:
  // Compiles `source` (the emit_native_cc rendering of `prog`) and loads it.
  // `prog` supplies the ABI tables and the shape metadata; it must be the
  // same sealed program the source was emitted from.
  static NativeLoadResult compile_and_load(const CompiledPipeline& prog,
                                           const std::string& source,
                                           const NativeOptions& opts = {});

  NativePipeline(const NativePipeline&) = delete;
  NativePipeline& operator=(const NativePipeline&) = delete;
  ~NativePipeline();

  // Runs `n` packets (raw field arrays, one per packet) through the whole
  // pipeline in place.  `row_views[i][k]` must be the bound view of
  // state_names()[k] in the store that owns packet i — callers hold the
  // view arrays in Machine's binding cache.  `counters`, when non-null,
  // must point at one row per stage; only objects emitted with counter
  // support write it (others leave the rows untouched).
  void run(Value* const* pkts, std::uint64_t n,
           const NativeStateView* const* row_views,
           NativeStageCounterRow* counters = nullptr) const {
    NativeAbi abi;
    abi.states = row_views;
    abi.intrinsics = intrinsics_.data();
    abi.luts = luts_.data();
    abi.stage_counters = counters;
    fn_(pkts, n, &abi);
  }

  std::size_t num_fields() const { return num_fields_; }
  std::size_t num_state_vars() const { return state_names_.size(); }
  const std::vector<std::string>& state_names() const { return state_names_; }
  const std::string& so_path() const { return so_path_; }

 private:
  NativePipeline() = default;

  void* handle_ = nullptr;
  NativeEntryFn fn_ = nullptr;
  std::vector<IntrinsicFn> intrinsics_;  // one per intrinsic-pool entry
  std::vector<LutFn> luts_;              // one per stateful-pool entry
  std::vector<std::string> state_names_;
  std::size_t num_fields_ = 0;
  std::string so_path_;
};

}  // namespace banzai
