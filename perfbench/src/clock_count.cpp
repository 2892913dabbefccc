// clock_gettime interposer for the traced run: preloaded into the
// benchmark process, it counts calls by clock id and forwards each to the
// C library. The benchmark reads the counts through
// perfbench_clock_reads(), looked up at run time, so untraced runs carry
// no interposition at all.
#include <dlfcn.h>
#include <time.h>

#include <atomic>

namespace {

constexpr int kClocks = 16;
using ClockFn = int (*)(clockid_t, struct timespec*);

struct alignas(64) Slot {
  std::atomic<unsigned long long> n{0};
};
Slot g_counts[kClocks];

ClockFn real_clock_gettime() {
  static const auto fn =
      reinterpret_cast<ClockFn>(dlsym(RTLD_NEXT, "clock_gettime"));
  return fn;
}

}  // namespace

extern "C" int clock_gettime(clockid_t id, struct timespec* ts) {
  if (id >= 0 && id < kClocks) {
    g_counts[id].n.fetch_add(1, std::memory_order_relaxed);
  }
  return real_clock_gettime()(id, ts);
}

extern "C" unsigned long long perfbench_clock_reads(int id) {
  if (id < 0 || id >= kClocks) return 0;
  return g_counts[id].n.load(std::memory_order_relaxed);
}
