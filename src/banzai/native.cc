#include "banzai/native.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <utility>

#include "banzai/native_io.h"

namespace banzai {

namespace {

namespace fs = std::filesystem;

std::optional<std::string> env_opt(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

// Option-over-environment merge with presence semantics: an engaged option
// field wins even when empty; a disengaged one falls through to the
// environment, then to `fallback`.
std::string resolve(const std::optional<std::string>& opt,
                    const std::optional<std::string>& env,
                    const std::string& fallback) {
  if (opt.has_value()) return *opt;
  if (env.has_value()) return *env;
  return fallback;
}

// POSIX-shell single-quoting with embedded quotes escaped ('\''), so paths
// with spaces or apostrophes survive the `system()` round trip.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

// `system("command -v ...")` so PATH lookup matches what the compile step's
// shell will do.
bool on_path(const std::string& exe) {
  if (exe.empty()) return false;
  const std::string probe = "command -v " + shq(exe) + " >/dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

// FNV-1a 64-bit over the source text plus the compile command shape: a flag
// or compiler change must miss the cache, or stale objects would shadow it.
std::string content_hash(const std::string& source, const std::string& cxx,
                         const std::string& flags) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
    h *= 0x100000001b3ull;
  };
  mix(source);
  mix(cxx);
  mix(flags);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The 16-hex-digit content-hash stem of a cache file, or "" when the name
// does not look like a cache entry (sweep treats those — temporaries from
// crashed compiles — as single-file entries under their full name).
std::string entry_stem(const std::string& filename) {
  if (filename.size() < 16) return "";
  const std::string stem = filename.substr(0, 16);
  for (char c : stem)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return "";
  return stem;
}

// Last-use time of a file for LRU ordering: atime, which the loader
// refreshes on every cache hit (see touch_atime), falling back to 0 when the
// file vanished mid-scan.
std::int64_t last_use_ns(const fs::path& p) {
  struct stat st{};
  if (::stat(p.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_atim.tv_sec) * 1000000000 +
         st.st_atim.tv_nsec;
}

// Refreshes only the access time (mtime untouched, so content-based tooling
// still sees a stable artifact).  Best-effort: a read-only cache is fine.
void touch_atime(const fs::path& p) {
  struct timespec ts[2];
  ts[0].tv_sec = 0;
  ts[0].tv_nsec = UTIME_NOW;   // atime := now
  ts[1].tv_sec = 0;
  ts[1].tv_nsec = UTIME_OMIT;  // mtime untouched
  ::utimensat(AT_FDCWD, p.c_str(), ts, 0);
}

std::string resolved_cache_dir(const std::string& dir) {
  if (!dir.empty()) return dir;
  const NativeOptions env = NativeOptions::from_env();
  std::string cache = env.cache_dir.value_or(kDefaultNativeCacheDir);
  if (cache.empty()) cache = kDefaultNativeCacheDir;
  return cache;
}

}  // namespace

NativeOptions NativeOptions::from_env() {
  NativeOptions o;
  o.compiler = env_opt("DOMINO_NATIVE_CXX");
  o.extra_flags = env_opt("DOMINO_NATIVE_CXXFLAGS");
  o.cache_dir = env_opt("DOMINO_NATIVE_CACHE");
  o.disabled = env_opt("DOMINO_NATIVE_DISABLE").has_value();
  if (const auto cap = env_opt("DOMINO_NATIVE_CACHE_MAX_BYTES")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(cap->c_str(), &end, 10);
    if (end != nullptr && *end == '\0') o.cache_max_bytes = v;
  }
  return o;
}

NativeCacheStats native_cache_stats(const std::string& dir) {
  NativeCacheStats out;
  out.dir = resolved_cache_dir(dir);
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(out.dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    const auto sz = e.file_size(ec);
    if (!ec) out.total_bytes += sz;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".so") == 0)
      ++out.objects;
    else if (name.size() > 3 && name.compare(name.size() - 3, 3, ".cc") == 0)
      ++out.sources;
  }
  return out;
}

std::size_t native_cache_clear(const std::string& dir) {
  const std::string cache = resolved_cache_dir(dir);
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cache, ec)) {
    if (!e.is_regular_file(ec)) continue;
    if (fs::remove(e.path(), ec)) ++removed;
  }
  return removed;
}

std::size_t native_cache_sweep(std::uint64_t max_bytes, const std::string& dir,
                               const std::string& keep_hash) {
  const std::string cache = resolved_cache_dir(dir);
  struct Entry {
    std::int64_t last_use = 0;  // newest file of the entry
    std::uint64_t bytes = 0;
    std::vector<fs::path> files;
  };
  std::map<std::string, Entry> entries;  // stem (or full name) → files
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cache, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    std::string stem = entry_stem(name);
    if (stem.empty()) stem = name;
    Entry& ent = entries[stem];
    ent.files.push_back(e.path());
    const auto sz = e.file_size(ec);
    if (!ec) {
      ent.bytes += sz;
      total += sz;
    }
    ent.last_use = std::max(ent.last_use, last_use_ns(e.path()));
  }
  if (total <= max_bytes) return 0;

  std::vector<std::pair<std::string, const Entry*>> order;
  order.reserve(entries.size());
  for (const auto& [stem, ent] : entries)
    if (stem != keep_hash) order.emplace_back(stem, &ent);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second->last_use != b.second->last_use)
      return a.second->last_use < b.second->last_use;  // oldest use first
    return a.first < b.first;                          // deterministic ties
  });

  std::size_t removed = 0;
  for (const auto& [stem, ent] : order) {
    if (total <= max_bytes) break;
    (void)stem;
    for (const fs::path& p : ent->files)
      if (fs::remove(p, ec)) ++removed;
    total -= std::min(total, static_cast<std::uint64_t>(ent->bytes));
  }
  return removed;
}

NativeLoadResult NativePipeline::compile_and_load(const CompiledPipeline& prog,
                                                  const std::string& source,
                                                  const NativeOptions& opts) {
  NativeLoadResult result;
  // Engaged option fields win (even when empty — that is how a caller
  // forces "no extra flags" against a set DOMINO_NATIVE_CXXFLAGS);
  // disengaged fields resolve through the one documented environment read.
  const NativeOptions env = NativeOptions::from_env();
  if (opts.disabled || env.disabled) {
    result.error = "native engine disabled by DOMINO_NATIVE_DISABLE";
    return result;
  }
  if (!prog.sealed()) {
    result.error = "cannot load a native pipeline for an unsealed program";
    return result;
  }

  // Resolve the host compiler: explicit option, then environment, then the
  // first conventional name on PATH (an engaged-but-empty option forces the
  // PATH probe).
  std::string cxx = resolve(opts.compiler, env.compiler, "");
  if (cxx.empty()) {
    for (const char* candidate : {"c++", "g++", "clang++"}) {
      if (on_path(candidate)) {
        cxx = candidate;
        break;
      }
    }
    if (cxx.empty()) {
      result.error =
          "no host C++ compiler found (tried c++, g++, clang++; set "
          "DOMINO_NATIVE_CXX to point at one)";
      return result;
    }
  } else if (!on_path(cxx)) {
    result.error = "host C++ compiler '" + cxx +
                   "' not found on PATH (from DOMINO_NATIVE_CXX or "
                   "NativeOptions::compiler)";
    return result;
  }

  const std::string flags = resolve(opts.extra_flags, env.extra_flags, "");
  std::string cache =
      resolve(opts.cache_dir, env.cache_dir, kDefaultNativeCacheDir);
  if (cache.empty()) cache = kDefaultNativeCacheDir;

  std::error_code ec;
  fs::create_directories(cache, ec);
  if (ec) {
    result.error = "cannot create native cache dir '" + cache +
                   "': " + ec.message();
    return result;
  }

  const std::string hash = content_hash(source, cxx, flags);
  const fs::path src_path = fs::path(cache) / (hash + ".cc");
  const fs::path so_path = fs::path(cache) / (hash + ".so");
  result.source_path = src_path.string();
  result.so_path = so_path.string();

  if (opts.force_recompile || !fs::exists(so_path)) {
    // Write source and compile via process-unique temporaries, then rename
    // into place: two racing cold-cache loads never read each other's torn
    // files, both succeed, and the content hash guarantees the renamed
    // artifacts are interchangeable.
    // Keep the .cc/.so suffixes on the temporaries — the host compiler
    // infers the source language and output kind from them.
    const std::string tmp_tag =
        ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const fs::path tmp_src = fs::path(cache) / (hash + tmp_tag + ".cc");
    if (!native_io::write_file(tmp_src.string(), source)) {
      result.error = "cannot write emitted source to " + tmp_src.string();
      return result;
    }
    const fs::path tmp_so = fs::path(cache) / (hash + tmp_tag + ".so");
    const fs::path log_path = fs::path(tmp_so.string() + ".log");
    // -O3 is the level every object in an existing cache was built at.  The
    // content hash keys on the source, the compiler and the extra flags but
    // not on this level, so changing it would leave one cache holding
    // objects built at two levels.  Host tuning (e.g. -march=native) layers
    // on via `flags`; see the recipe on NativeOptions.
    const std::string cmd = shq(cxx) + " -std=c++17 -O3 -fPIC -shared " +
                            flags + " -o " + shq(tmp_so.string()) + " " +
                            shq(tmp_src.string()) + " > " +
                            shq(log_path.string()) + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (status != 0) {
      // The tail, not the head: the fatal diagnostic is at the end, and a
      // log that cannot be read back says so instead of vanishing.
      const std::string log = native_io::compile_log_tail(log_path.string());
      fs::remove(tmp_src, ec);
      fs::remove(tmp_so, ec);
      fs::remove(log_path, ec);
      result.error = "host compile failed (exit " + std::to_string(status) +
                     "): " + cxx + " -O3 -fPIC -shared\n" + log;
      return result;
    }
    fs::remove(log_path, ec);
    fs::rename(tmp_src, src_path, ec);  // keep the artifact inspectable
    if (ec) fs::remove(tmp_src, ec);
    fs::rename(tmp_so, so_path, ec);
    if (ec) {
      fs::remove(tmp_so, ec);
      result.error = "cannot move compiled object into cache: " +
                     so_path.string();
      return result;
    }
  } else {
    result.cache_hit = true;
    // Record the reuse so an LRU sweep sees this entry as recently used even
    // on mounts where reads alone do not update atime (relatime, noatime).
    touch_atime(so_path);
    touch_atime(src_path);
  }

  // Enforce the size cap, never evicting the entry being loaded.
  const std::optional<std::uint64_t> cap =
      opts.cache_max_bytes.has_value() ? opts.cache_max_bytes
                                       : env.cache_max_bytes;
  if (cap.has_value()) native_cache_sweep(*cap, cache, hash);

  void* handle = ::dlopen(so_path.string().c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* why = ::dlerror();
    result.error = std::string("dlopen failed: ") +
                   (why != nullptr ? why : "(no dlerror)");
    return result;
  }
  auto fn = reinterpret_cast<NativeEntryFn>(
      ::dlsym(handle, kNativeEntrySymbol));
  if (fn == nullptr) {
    ::dlclose(handle);
    result.error = std::string("entry symbol '") + kNativeEntrySymbol +
                   "' missing from " + so_path.string();
    return result;
  }

  auto pipeline = std::shared_ptr<NativePipeline>(new NativePipeline());
  pipeline->handle_ = handle;
  pipeline->fn_ = fn;
  pipeline->num_fields_ = prog.num_fields();
  pipeline->state_names_ = prog.state_names();
  pipeline->so_path_ = so_path.string();
  pipeline->intrinsics_.reserve(prog.intrinsic_pool().size());
  for (const IntrinsicOp& io : prog.intrinsic_pool())
    pipeline->intrinsics_.push_back(io.fn);
  pipeline->luts_.reserve(prog.stateful_pool().size());
  for (const StatefulOp& so : prog.stateful_pool())
    pipeline->luts_.push_back(so.lut);
  result.pipeline = std::move(pipeline);
  return result;
}

NativePipeline::~NativePipeline() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace banzai
