#include "core/compiler.h"

#include <chrono>

#include "banzai/native.h"
#include "core/emit.h"
#include "core/parser.h"
#include "core/pipeline.h"
#include "core/sema.h"

namespace domino {

Program parse_and_check(std::string_view source) {
  Program p = parse(source);
  analyze(p);
  return p;
}

CompileResult compile(std::string_view source,
                      const atoms::BanzaiTarget& target,
                      const CompileOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  CompileResult r;
  r.program = parse_and_check(source);
  r.normalized = normalize(r.program);
  r.pvsm = pipeline_schedule(r.normalized.tac);
  r.codegen = generate_code(r.pvsm, r.normalized.ssa, target,
                            r.normalized.final_names, options.synth);
  r.machine().set_engine(options.engine);
  // Native AOT: emit the lowered program as C++, hand it to the host
  // toolchain, dlopen the result.  Best-effort by design — a machine that
  // cannot go native ships on the kernel VM with the reason recorded, never
  // a failed compile (the paper's all-or-nothing contract is about mapping
  // the program to the target, not about the simulation substrate).
  if (options.engine == banzai::ExecEngine::kNative) {
    banzai::Machine& m = r.machine();
    const banzai::CompiledPipeline& kernel = m.require_kernel();
    // Counters builds emit counter-aware objects; the changed text gets its
    // own content hash, so both build flavors share one cache.
    NativeEmitOptions eopts;
#if defined(DOMINO_STAGE_COUNTERS)
    eopts.stage_counters = true;
#endif
    banzai::NativeLoadResult load = banzai::NativePipeline::compile_and_load(
        kernel, emit_native_cc(kernel, eopts), options.native);
    if (load.pipeline != nullptr)
      m.set_native(std::move(load.pipeline));
    else
      m.set_native_fallback(std::move(load.error));
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

std::size_t count_loc(std::string_view source) {
  std::size_t loc = 0;
  std::size_t pos = 0;
  bool in_block_comment = false;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    std::string_view line =
        source.substr(pos, eol == std::string_view::npos ? source.size() - pos
                                                         : eol - pos);
    // Strip comments (good enough for LOC counting of our corpus).
    std::string stripped;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (i + 1 < line.size() && line[i] == '*' && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      if (i + 1 < line.size() && line[i] == '/' && line[i + 1] == '/') break;
      if (i + 1 < line.size() && line[i] == '/' && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      stripped.push_back(line[i]);
    }
    if (stripped.find_first_not_of(" \t\r") != std::string::npos) ++loc;
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return loc;
}

}  // namespace domino
