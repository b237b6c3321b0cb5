// The native AOT loader (banzai/native.{h,cc}) and emitter (core/emit.*):
// fallback behaviour when no toolchain exists, the content-hash .so cache,
// deterministic emission, and the Machine-level degradation ladder
// native > kernel.  The engine differential itself lives in
// tests/kernel_test.cc.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <random>
#include <string>

#include "algorithms/corpus.h"
#include "banzai/native.h"
#include "banzai/native_io.h"
#include "core/compiler.h"
#include "core/emit.h"

namespace {

using banzai::ExecEngine;
using banzai::Machine;
using banzai::Packet;

domino::CompileResult compile_flowlets(const domino::CompileOptions& opts) {
  return domino::compile(algorithms::algorithm("flowlets").source,
                         *atoms::find_target("banzai-praw"), opts);
}

// A per-test cache directory so cache-hit assertions cannot be satisfied by
// another test's (or another run's) leftovers.
std::string fresh_cache_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("domino-native-test-" + tag + "-" +
                    std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<Packet> flowlet_workload(const domino::CompileResult& compiled,
                                     int n) {
  const auto& alg = algorithms::algorithm("flowlets");
  std::mt19937 rng(3);
  std::vector<Packet> out;
  for (int i = 0; i < n; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, i, f);
    Packet p(compiled.machine().fields().size());
    for (const auto& [k, v] : f)
      if (compiled.machine().fields().try_id_of(k).has_value())
        p.set(compiled.machine().fields().id_of(k), v);
    out.push_back(std::move(p));
  }
  return out;
}

bool toolchain_available() {
  domino::CompileOptions opts;
  opts.engine = ExecEngine::kNative;
  static const bool available =
      compile_flowlets(opts).machine().native() != nullptr;
  return available;
}

TEST(NativeEmitTest, EmissionIsDeterministicAndSelfDescribing) {
  domino::CompileOptions opts;  // kernel only: emission needs no toolchain
  auto compiled = compile_flowlets(opts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string once = domino::emit_native_cc(*kernel);
  const std::string twice = domino::emit_native_cc(*kernel);
  EXPECT_EQ(once, twice) << "content-hash caching depends on determinism";
  // The fixed entry point, the per-stage barriers and the state table all
  // appear in the artifact.
  EXPECT_NE(once.find(banzai::kNativeEntrySymbol), std::string::npos);
  EXPECT_NE(once.find("extern \"C\""), std::string::npos);
  for (std::size_t s = 0; s < kernel->num_stages(); ++s)
    EXPECT_NE(once.find("---- stage " + std::to_string(s) + " ----"),
              std::string::npos);
  for (const auto& name : kernel->state_names())
    EXPECT_NE(once.find(name), std::string::npos);
}

TEST(NativeEmitTest, UnsealedProgramsAreRejected) {
  banzai::CompiledPipeline pipe;
  pipe.begin_stage();
  pipe.add_alu(banzai::KOp::kMov, 0, banzai::KSrc::constant(1));
  EXPECT_THROW(domino::emit_native_cc(pipe), std::logic_error);
}

TEST(NativeLoaderTest, MissingToolchainFallsBackWithRecordedReason) {
  domino::CompileOptions opts;
  opts.engine = ExecEngine::kNative;
  opts.native.compiler = "/nonexistent/dominoc-no-such-cxx";
  auto compiled = compile_flowlets(opts);
  Machine& m = compiled.machine();
  // The machine ships without a native pipeline but records why…
  EXPECT_EQ(m.native(), nullptr);
  ASSERT_FALSE(m.native_fallback_reason().empty());
  EXPECT_NE(m.native_fallback_reason().find("not found"), std::string::npos)
      << m.native_fallback_reason();
  // …and a kNative request degrades to the kernel VM, not to a crash: the
  // engine toggle still reads kNative, dispatch resolves to the kernel.
  EXPECT_EQ(m.engine(), ExecEngine::kNative);
  EXPECT_EQ(m.active_native(), nullptr);
  ASSERT_NE(m.active_kernel(), nullptr);
  auto ref = compile_flowlets(domino::CompileOptions{});
  ASSERT_EQ(ref.machine().engine(), ExecEngine::kKernel);
  for (const Packet& p : flowlet_workload(compiled, 500))
    ASSERT_EQ(m.process(p), ref.machine().process(p));
}

TEST(NativeLoaderTest, DisableSwitchFallsBackWithRecordedReason) {
  ::setenv("DOMINO_NATIVE_DISABLE", "1", 1);
  domino::CompileOptions opts;
  opts.engine = ExecEngine::kNative;
  auto compiled = compile_flowlets(opts);
  ::unsetenv("DOMINO_NATIVE_DISABLE");
  EXPECT_EQ(compiled.machine().native(), nullptr);
  EXPECT_NE(
      compiled.machine().native_fallback_reason().find("DOMINO_NATIVE_DISABLE"),
      std::string::npos)
      << compiled.machine().native_fallback_reason();
}

TEST(NativeOptionsTest, FromEnvReadsTheDocumentedKnobs) {
  // The one environment read for the native engine (see the table on
  // NativeOptions): every knob lands in the corresponding field, and
  // clearing the environment restores the documented defaults.
  ::setenv("DOMINO_NATIVE_CXX", "my-cross-cxx", 1);
  ::setenv("DOMINO_NATIVE_CXXFLAGS", "-march=native", 1);
  ::setenv("DOMINO_NATIVE_CACHE", "/tmp/domino-native-env-test", 1);
  ::setenv("DOMINO_NATIVE_DISABLE", "1", 1);
  banzai::NativeOptions o = banzai::NativeOptions::from_env();
  EXPECT_EQ(o.compiler, "my-cross-cxx");
  EXPECT_EQ(o.extra_flags, "-march=native");
  EXPECT_EQ(o.cache_dir, "/tmp/domino-native-env-test");
  EXPECT_TRUE(o.disabled);

  ::unsetenv("DOMINO_NATIVE_CXX");
  ::unsetenv("DOMINO_NATIVE_CXXFLAGS");
  ::unsetenv("DOMINO_NATIVE_CACHE");
  ::unsetenv("DOMINO_NATIVE_DISABLE");
  banzai::NativeOptions d = banzai::NativeOptions::from_env();
  EXPECT_FALSE(d.compiler.has_value());
  EXPECT_FALSE(d.extra_flags.has_value());
  EXPECT_FALSE(d.cache_dir.has_value())
      << "unset variables stay disengaged so the built-in default ("
      << banzai::kDefaultNativeCacheDir << ") applies downstream";
  EXPECT_FALSE(d.disabled);
}

TEST(NativeOptionsTest, EngagedEmptyExtraFlagsOverrideTheEnvironment) {
  // The explicit-presence regression: with DOMINO_NATIVE_CXXFLAGS set to
  // something that breaks every compile, a caller must still be able to
  // force "no extra flags" by engaging the field with an empty value.  The
  // old empty-means-unset merge made that impossible.
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string source = domino::emit_native_cc(*kernel);

  ::setenv("DOMINO_NATIVE_CXXFLAGS", "-fdomino-no-such-flag", 1);
  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("presence");

  // Disengaged extra_flags fall through to the broken environment value…
  auto env_flags =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  EXPECT_EQ(env_flags.pipeline, nullptr);
  EXPECT_NE(env_flags.error.find("host compile failed"), std::string::npos)
      << env_flags.error;

  // …while an engaged-but-empty field overrides it and the compile succeeds.
  nopts.extra_flags = "";
  auto forced =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ::unsetenv("DOMINO_NATIVE_CXXFLAGS");
  EXPECT_NE(forced.pipeline, nullptr) << forced.error;

  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeOptionsTest, EngagedCacheDirWinsOverTheEnvironment) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string source = domino::emit_native_cc(*kernel);

  const std::string env_dir = fresh_cache_dir("cache-env");
  const std::string opt_dir = fresh_cache_dir("cache-opt");
  ::setenv("DOMINO_NATIVE_CACHE", env_dir.c_str(), 1);

  // Disengaged cache_dir resolves through the environment…
  banzai::NativeOptions nopts;
  auto via_env =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ASSERT_NE(via_env.pipeline, nullptr) << via_env.error;
  EXPECT_EQ(via_env.so_path.rfind(env_dir, 0), 0u) << via_env.so_path;

  // …and an engaged option beats the set variable.
  nopts.cache_dir = opt_dir;
  auto via_opt =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ::unsetenv("DOMINO_NATIVE_CACHE");
  ASSERT_NE(via_opt.pipeline, nullptr) << via_opt.error;
  EXPECT_EQ(via_opt.so_path.rfind(opt_dir, 0), 0u) << via_opt.so_path;

  std::filesystem::remove_all(env_dir);
  std::filesystem::remove_all(opt_dir);
}

TEST(NativeLoaderTest, HostTunedFlagsViaEnvProduceADistinctAgreeingObject) {
  // The -march=native tuning recipe from the NativeOptions docs: exporting
  // DOMINO_NATIVE_CXXFLAGS retunes the build without touching code, the
  // retuned object caches under its own hash, and it stays bit-exact with
  // the kernel VM (tuning may change speed, never results).
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string source = domino::emit_native_cc(*kernel);

  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("march");
  auto generic =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ASSERT_NE(generic.pipeline, nullptr) << generic.error;

  ::setenv("DOMINO_NATIVE_CXXFLAGS", "-march=native", 1);
  auto tuned = banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ::unsetenv("DOMINO_NATIVE_CXXFLAGS");
  if (tuned.pipeline == nullptr) {
    std::filesystem::remove_all(*nopts.cache_dir);
    GTEST_SKIP() << "host compiler rejects -march=native: " << tuned.error;
  }
  EXPECT_FALSE(tuned.cache_hit) << "env flags participate in the cache key";
  EXPECT_NE(generic.so_path, tuned.so_path);

  Machine m = compiled.machine().clone();
  m.set_native(tuned.pipeline);
  m.set_engine(ExecEngine::kNative);
  ASSERT_NE(m.active_native(), nullptr);
  Machine ref = compiled.machine().clone();
  ref.set_engine(ExecEngine::kKernel);
  for (const Packet& p : flowlet_workload(compiled, 1000))
    ASSERT_EQ(m.process(p), ref.process(p));
  EXPECT_TRUE(m.state() == ref.state());
  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeLoaderTest, SecondLoadOfTheSameProgramHitsTheSoCache) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string source = domino::emit_native_cc(*kernel);

  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("cachehit");
  auto first = banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ASSERT_NE(first.pipeline, nullptr) << first.error;
  EXPECT_FALSE(first.cache_hit) << "fresh cache dir cannot hit";
  EXPECT_TRUE(std::filesystem::exists(first.so_path));
  EXPECT_TRUE(std::filesystem::exists(first.source_path));

  auto second =
      banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ASSERT_NE(second.pipeline, nullptr) << second.error;
  EXPECT_TRUE(second.cache_hit) << "identical source+flags must reuse the .so";
  EXPECT_EQ(first.so_path, second.so_path);

  // Both handles execute, and agree.
  Machine a = compiled.machine().clone();
  Machine b = compiled.machine().clone();
  a.set_native(first.pipeline);
  b.set_native(second.pipeline);
  a.set_engine(ExecEngine::kNative);
  b.set_engine(ExecEngine::kNative);
  ASSERT_NE(a.active_native(), nullptr);
  for (const Packet& p : flowlet_workload(compiled, 500))
    ASSERT_EQ(a.process(p), b.process(p));
  EXPECT_TRUE(a.state() == b.state());

  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeLoaderTest, FlagChangeMissesTheCache) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  const std::string source =
      domino::emit_native_cc(*compiled.machine().kernel());

  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("flags");
  auto plain = banzai::NativePipeline::compile_and_load(
      *compiled.machine().kernel(), source, nopts);
  ASSERT_NE(plain.pipeline, nullptr) << plain.error;
  nopts.extra_flags = "-O1";
  auto flagged = banzai::NativePipeline::compile_and_load(
      *compiled.machine().kernel(), source, nopts);
  ASSERT_NE(flagged.pipeline, nullptr) << flagged.error;
  EXPECT_FALSE(flagged.cache_hit)
      << "a flag change must produce a distinct cached object";
  EXPECT_NE(plain.so_path, flagged.so_path);
  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeLoaderTest, BrokenSourceReportsTheCompilerError) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  auto compiled = compile_flowlets(opts);
  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("broken");
  auto result = banzai::NativePipeline::compile_and_load(
      *compiled.machine().kernel(), "this is not C++ at all {", nopts);
  EXPECT_EQ(result.pipeline, nullptr);
  EXPECT_NE(result.error.find("host compile failed"), std::string::npos)
      << result.error;
  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeIoTest, ReadFileReportsFailureInsteadOfEmptySuccess) {
  // The regression the loader hit: read_file() used to return "" for both
  // "empty log" and "log unreadable", so compile diagnostics could silently
  // vanish.  Failure is now an explicit false.
  std::string out = "sentinel";
  EXPECT_FALSE(
      banzai::native_io::read_file("/nonexistent/dir/no-such-file", out));
  EXPECT_TRUE(out.empty()) << "failed reads must not leave stale data";
  // A directory is unreadable-as-file, not an empty file.
  EXPECT_FALSE(banzai::native_io::read_file(
      std::filesystem::temp_directory_path().string(), out));
}

TEST(NativeIoTest, WriteReadRoundTripAndWriteFailure) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("domino-native-io-" +
                    std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "blob.bin").string();
  const std::string payload("a\0b\nbinary \xff payload", 19);
  ASSERT_TRUE(banzai::native_io::write_file(path, payload));
  std::string back;
  ASSERT_TRUE(banzai::native_io::read_file(path, back));
  EXPECT_EQ(back, payload);
  // Writing to a path that is a directory must fail loudly, not no-op.
  EXPECT_FALSE(banzai::native_io::write_file(dir.string(), "x"));
  // Zero-byte file: success with an empty result, distinct from failure.
  ASSERT_TRUE(banzai::native_io::write_file(path, ""));
  back = "sentinel";
  EXPECT_TRUE(banzai::native_io::read_file(path, back));
  EXPECT_TRUE(back.empty());
  std::filesystem::remove_all(dir);
}

TEST(NativeIoTest, CompileLogTailKeepsTheEndAndFlagsUnreadableLogs) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("domino-native-log-" +
                    std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "compile.log").string();
  // A log longer than the tail budget: the fatal diagnostic at the end
  // must survive, the preamble is what gets elided.
  std::string log(3 * banzai::native_io::kCompileLogTailBytes, '.');
  log += "\nerror: the actual diagnostic";
  ASSERT_TRUE(banzai::native_io::write_file(path, log));
  const std::string tail = banzai::native_io::compile_log_tail(path);
  EXPECT_LE(tail.size(), banzai::native_io::kCompileLogTailBytes + 64);
  EXPECT_NE(tail.find("error: the actual diagnostic"), std::string::npos);
  EXPECT_EQ(tail.rfind("[...log truncated...]", 0), 0u) << tail.substr(0, 80);
  // Unreadable log: a marker naming the path, never a silent empty string.
  const std::string missing =
      banzai::native_io::compile_log_tail((dir / "no-such.log").string());
  EXPECT_NE(missing.find("compile log unreadable"), std::string::npos);
  EXPECT_NE(missing.find("no-such.log"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cache hygiene: stats / clear / LRU sweep (banzai/native.h).
// ---------------------------------------------------------------------------

// Fabricates one cache entry (<hash>.so + <hash>.cc) with a controlled
// last-use time, so the sweep's atime-keyed LRU order is deterministic.
void make_cache_entry(const std::string& dir, const std::string& hash,
                      std::size_t so_bytes, std::size_t cc_bytes,
                      std::time_t used_at) {
  std::filesystem::create_directories(dir);
  for (const auto& [ext, bytes] :
       {std::pair<const char*, std::size_t>{".so", so_bytes},
        std::pair<const char*, std::size_t>{".cc", cc_bytes}}) {
    const std::string path = dir + "/" + hash + ext;
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    const std::string fill(bytes, 'x');
    std::fwrite(fill.data(), 1, fill.size(), f);
    std::fclose(f);
    timespec times[2];
    times[0].tv_sec = used_at;  // atime: what the sweep keys on
    times[0].tv_nsec = 0;
    times[1].tv_sec = used_at;  // mtime kept equal for tidiness
    times[1].tv_nsec = 0;
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
  }
}

TEST(NativeCacheHygieneTest, StatsCountObjectsSourcesAndBytes) {
  const std::string dir = fresh_cache_dir("hygiene-stats");
  make_cache_entry(dir, "00000000000000aa", 1000, 200, 1000000);
  make_cache_entry(dir, "00000000000000bb", 1000, 200, 1000001);
  const banzai::NativeCacheStats st = banzai::native_cache_stats(dir);
  EXPECT_EQ(st.dir, dir);
  EXPECT_EQ(st.objects, 2u);
  EXPECT_EQ(st.sources, 2u);
  EXPECT_EQ(st.total_bytes, 2u * (1000 + 200));
  std::filesystem::remove_all(dir);
}

TEST(NativeCacheHygieneTest, SweepEvictsOldestUseFirstAndEnforcesTheCap) {
  const std::string dir = fresh_cache_dir("hygiene-sweep");
  // Three entries of 1200 bytes each with strictly ordered last-use times:
  // aa (oldest) < bb < cc (newest).
  make_cache_entry(dir, "00000000000000aa", 1000, 200, 1000000);
  make_cache_entry(dir, "00000000000000bb", 1000, 200, 2000000);
  make_cache_entry(dir, "00000000000000cc", 1000, 200, 3000000);

  // Cap above the total: nothing to do.
  EXPECT_EQ(banzai::native_cache_sweep(10000, dir), 0u);
  EXPECT_EQ(banzai::native_cache_stats(dir).objects, 3u);

  // Cap that two entries fit under: the oldest-used entry goes, .so and .cc
  // together (entries are whole-unit evictions keyed by the hash stem).
  EXPECT_EQ(banzai::native_cache_sweep(2500, dir), 2u);
  banzai::NativeCacheStats st = banzai::native_cache_stats(dir);
  EXPECT_EQ(st.objects, 2u);
  EXPECT_EQ(st.total_bytes, 2u * 1200);
  EXPECT_FALSE(std::filesystem::exists(dir + "/00000000000000aa.so"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/00000000000000bb.so"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/00000000000000cc.so"));

  // Tighten below one entry: everything evictable goes.
  EXPECT_EQ(banzai::native_cache_sweep(100, dir), 4u);
  EXPECT_EQ(banzai::native_cache_stats(dir).total_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(NativeCacheHygieneTest, SweepSparesTheKeepHashEvenWhenOldest) {
  const std::string dir = fresh_cache_dir("hygiene-keep");
  make_cache_entry(dir, "00000000000000aa", 1000, 200, 1000000);  // oldest
  make_cache_entry(dir, "00000000000000bb", 1000, 200, 2000000);
  // keep_hash protects the just-loaded entry no matter its age: the sweep
  // must evict bb (newer) because aa is pinned.
  EXPECT_EQ(banzai::native_cache_sweep(1500, dir, "00000000000000aa"), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/00000000000000aa.so"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/00000000000000bb.so"));
  std::filesystem::remove_all(dir);
}

TEST(NativeCacheHygieneTest, ClearRemovesEverything) {
  const std::string dir = fresh_cache_dir("hygiene-clear");
  make_cache_entry(dir, "00000000000000aa", 100, 50, 1000000);
  make_cache_entry(dir, "00000000000000bb", 100, 50, 1000001);
  EXPECT_EQ(banzai::native_cache_clear(dir), 4u);
  const banzai::NativeCacheStats st = banzai::native_cache_stats(dir);
  EXPECT_EQ(st.objects, 0u);
  EXPECT_EQ(st.sources, 0u);
  EXPECT_EQ(st.total_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(NativeCacheHygieneTest, MaxBytesKnobReadsFromTheEnvironment) {
  ::setenv("DOMINO_NATIVE_CACHE_MAX_BYTES", "123456", 1);
  banzai::NativeOptions o = banzai::NativeOptions::from_env();
  ASSERT_TRUE(o.cache_max_bytes.has_value());
  EXPECT_EQ(*o.cache_max_bytes, 123456u);
  // Garbage stays disengaged rather than engaging a bogus cap.
  ::setenv("DOMINO_NATIVE_CACHE_MAX_BYTES", "12x", 1);
  EXPECT_FALSE(banzai::NativeOptions::from_env().cache_max_bytes.has_value());
  ::unsetenv("DOMINO_NATIVE_CACHE_MAX_BYTES");
  EXPECT_FALSE(banzai::NativeOptions::from_env().cache_max_bytes.has_value());
}

TEST(NativeCacheHygieneTest, LoadWithCapSweepsButSparesTheLoadedEntry) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions copts;
  auto compiled = compile_flowlets(copts);
  const auto* kernel = compiled.machine().kernel();
  ASSERT_NE(kernel, nullptr);
  const std::string source = domino::emit_native_cc(*kernel);

  banzai::NativeOptions nopts;
  nopts.cache_dir = fresh_cache_dir("hygiene-load");
  // Seed a stale decoy entry, then load with a cap far below the combined
  // size: the decoy must be evicted, the entry just compiled must survive
  // (keep_hash pins it even though the sweep runs at load time).
  make_cache_entry(*nopts.cache_dir, "00000000000000dd", 4096, 512, 1000000);
  nopts.cache_max_bytes = 1;
  auto load = banzai::NativePipeline::compile_and_load(*kernel, source, nopts);
  ASSERT_NE(load.pipeline, nullptr) << load.error;
  EXPECT_FALSE(
      std::filesystem::exists(*nopts.cache_dir + "/00000000000000dd.so"));
  const banzai::NativeCacheStats st =
      banzai::native_cache_stats(*nopts.cache_dir);
  EXPECT_EQ(st.objects, 1u) << "the freshly loaded .so must survive its own "
                               "sweep";
  std::filesystem::remove_all(*nopts.cache_dir);
}

TEST(NativeLoaderTest, NativeMachinesShareThePipelineAcrossClones) {
  if (!toolchain_available()) GTEST_SKIP() << "no host C++ compiler";
  domino::CompileOptions opts;
  opts.engine = ExecEngine::kNative;
  auto compiled = compile_flowlets(opts);
  ASSERT_NE(compiled.machine().native(), nullptr)
      << compiled.machine().native_fallback_reason();
  Machine a = compiled.machine().clone();
  Machine b = compiled.machine().clone();
  EXPECT_EQ(a.native(), b.native()) << "clones share the loaded .so";
  // Independent state: interleaved processing must match two independent
  // kernel-VM machines fed the same split.
  Machine ra = compiled.machine().clone();
  Machine rb = compiled.machine().clone();
  ra.set_engine(ExecEngine::kKernel);
  rb.set_engine(ExecEngine::kKernel);
  const auto trace = flowlet_workload(compiled, 1000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i % 2 == 0)
      ASSERT_EQ(a.process(trace[i]), ra.process(trace[i])) << i;
    else
      ASSERT_EQ(b.process(trace[i]), rb.process(trace[i])) << i;
  }
  EXPECT_TRUE(a.state() == ra.state());
  EXPECT_TRUE(b.state() == rb.state());
}

}  // namespace
