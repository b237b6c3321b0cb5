#include "ir/intrinsics.h"

#include <array>
#include <stdexcept>

namespace domino {
namespace {

// hash_combine-style mixer; cheap, deterministic, well spread.
std::uint32_t mix(std::uint32_t h, std::uint32_t v) {
  h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  return h;
}

std::uint32_t hash_n(std::uint32_t seed, const banzai::Value* args,
                     std::size_t n) {
  std::uint32_t h = seed;
  for (std::size_t i = 0; i < n; ++i)
    h = mix(h, static_cast<std::uint32_t>(args[i]));
  return h & 0x7fffffffu;  // non-negative so `% size` indexes are in range
}

banzai::Value hash2_raw(const banzai::Value* a, std::size_t n) {
  return static_cast<banzai::Value>(hash_n(0xdeadbeefu, a, n));
}
banzai::Value hash3_raw(const banzai::Value* a, std::size_t n) {
  return static_cast<banzai::Value>(hash_n(0xcafef00du, a, n));
}
banzai::Value hash4_raw(const banzai::Value* a, std::size_t n) {
  return static_cast<banzai::Value>(hash_n(0x8badf00du, a, n));
}
banzai::Value isqrt_raw(const banzai::Value* a, std::size_t) {
  return isqrt(a[0]);
}

const std::array<IntrinsicInfo, 5> kIntrinsics = {{
    {"hash2", 2, IntrinsicUnit::kHash},
    {"hash3", 3, IntrinsicUnit::kHash},
    {"hash4", 4, IntrinsicUnit::kHash},
    {"isqrt", 1, IntrinsicUnit::kMath},
    // CoDel's control law INTERVAL / sqrt(count+1) as one table lookup; this
    // is the function a LUT-extended atom would hold in its ROM (§5.3).
    {"sqrt_interval", 1, IntrinsicUnit::kMath},
}};

std::int32_t sqrt_interval_impl(std::int32_t c) {
  constexpr std::int64_t kInterval = 4096;
  if (c < 0) c = 0;
  if (c > (1 << 20)) c = 1 << 20;  // ROM domain clamp
  const std::int64_t scaled = (static_cast<std::int64_t>(c) + 1) << 16;
  // 64-bit digit-by-digit square root: root ~= 256 * sqrt(c + 1).
  std::int64_t root = 0, x = scaled, bit = std::int64_t(1) << 36;
  while (bit > x) bit >>= 2;
  while (bit != 0) {
    if (x >= root + bit) {
      x -= root + bit;
      root = (root >> 1) + bit;
    } else {
      root >>= 1;
    }
    bit >>= 2;
  }
  if (root == 0) root = 1;
  return static_cast<std::int32_t>(kInterval * 256 / root);
}

banzai::Value sqrt_interval_raw(const banzai::Value* a, std::size_t) {
  return sqrt_interval_impl(a[0]);
}

}  // namespace

std::optional<IntrinsicInfo> intrinsic_info(const std::string& name) {
  for (const auto& i : kIntrinsics)
    if (i.name == name) return i;
  return std::nullopt;
}

std::int32_t isqrt(std::int32_t v) {
  if (v <= 0) return 0;
  auto x = static_cast<std::uint32_t>(v);
  std::uint32_t r = 0;
  // Digit-by-digit method: 16 iterations for 32-bit input.
  std::uint32_t bit = 1u << 30;
  while (bit > x) bit >>= 2;
  while (bit != 0) {
    if (x >= r + bit) {
      x -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  return static_cast<std::int32_t>(r);
}

RawIntrinsicFn intrinsic_raw_fn(const std::string& name) {
  if (name == "hash2") return &hash2_raw;
  if (name == "hash3") return &hash3_raw;
  if (name == "hash4") return &hash4_raw;
  if (name == "isqrt") return &isqrt_raw;
  if (name == "sqrt_interval") return &sqrt_interval_raw;
  return nullptr;
}

banzai::Value eval_intrinsic(const std::string& name,
                             const std::vector<banzai::Value>& args) {
  const RawIntrinsicFn fn = intrinsic_raw_fn(name);
  if (fn == nullptr) return 0;
  // Sema enforces arity at compile time; this guards direct callers so a
  // raw body indexing args[0] can never read an empty buffer.  (The info
  // lookup stays inside the error branch — this is the interpreter's and the
  // TAC evaluator's per-packet path.)
  if (args.empty()) {
    const auto info = intrinsic_info(name);
    if (info.has_value() && info->arity > 0)
      throw std::out_of_range("intrinsic '" + name + "': missing argument");
  }
  return fn(args.data(), args.size());
}

}  // namespace domino
