// Steady-state heap allocations of the FleetService byte path.  This binary
// replaces the global operator new with one that counts every call, on
// every thread, so it stands alone: no other suite shares its allocator.
//
// The byte path moves each packet as a reused, fixed-width row (ring slot ->
// worker -> egress cell), so once the rings and the egress window have
// reached their high-water size the only allocation left per frame is the
// byte vector drain_egress_frames() returns it in, plus one outer vector per
// burst.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "banzai/service.h"
#include "core/compiler.h"
#include "wire/codec.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// flowlets on banzai-praw, a default ServiceConfig plus the sport,dport flow
// key: 20 warm-up bursts, then 100 measured bursts of 1024 frames through
// ingest_frame -> flush -> drain_egress_frames.  The measured bursts may
// make at most 1.05 operator new calls per frame: the frame vector itself
// is 1, the outer vector 1/1024.
TEST(ServiceAllocTest, ByteIngestAllocatesOnlyItsEgressFrames) {
  constexpr std::size_t kBurst = 1024;
  constexpr int kWarmup = 20, kMeasured = 100;
  const auto& alg = algorithms::algorithm("flowlets");
  auto compiled =
      domino::compile(alg.source, *atoms::find_target("banzai-praw"));
  const auto& ft = compiled.machine().fields();
  const wire::WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  auto rx = std::make_shared<const wire::WireCodec>(spec, ft);
  auto tx = std::make_shared<const wire::WireCodec>(spec, ft,
                                                    compiled.output_map());

  std::mt19937 rng(1901);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::map<std::string, banzai::Value> f;
    alg.workload(rng, static_cast<int>(i), f);
    banzai::Packet p(ft.size());
    for (const auto& [k, v] : f)
      if (ft.try_id_of(k).has_value()) p.set(ft.id_of(k), v);
    frames.push_back(rx->deparse(p));
  }

  banzai::ServiceConfig cfg;
  cfg.flow_key = {ft.id_of("sport"), ft.id_of("dport")};
  banzai::FleetService svc(compiled.machine(), cfg);
  svc.set_wire(rx, tx);
  svc.start();

  std::size_t refused = 0, egressed = 0;
  std::vector<std::vector<std::uint8_t>> egress;
  auto burst = [&] {
    for (const auto& frame : frames)
      if (!svc.ingest_frame(frame.data(), frame.size()).accepted) ++refused;
    svc.flush();
    egress = svc.drain_egress_frames();
    egressed += egress.size();
  };
  for (int b = 0; b < kWarmup; ++b) burst();
  egressed = 0;
  const std::uint64_t before = g_allocations.load();
  for (int b = 0; b < kMeasured; ++b) burst();
  const std::uint64_t allocations = g_allocations.load() - before;
  svc.stop();

  EXPECT_EQ(refused, 0u);
  ASSERT_EQ(egressed, kMeasured * kBurst);
  const double per_frame =
      static_cast<double>(allocations) / static_cast<double>(egressed);
  EXPECT_LE(per_frame, 1.05) << allocations << " operator new calls for "
                             << egressed << " frames";
}

}  // namespace
