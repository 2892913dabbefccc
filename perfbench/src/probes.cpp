#include "probes.hpp"

#include <dlfcn.h>
#include <time.h>

#include <vector>

#include "jhpc/minijvm/bytebuffer.hpp"

namespace perfbench {

namespace mj = jhpc::minijvm;

ClockCounts clock_counts() {
  using Fn = unsigned long long (*)(int);
  static const auto fn =
      reinterpret_cast<Fn>(dlsym(RTLD_DEFAULT, "perfbench_clock_reads"));
  ClockCounts c;
  if (fn == nullptr) return c;
  c.available = true;
  c.thread_cpu = fn(CLOCK_THREAD_CPUTIME_ID);
  c.monotonic = fn(CLOCK_MONOTONIC);
  return c;
}

void probe_support(Metrics& m) {
  volatile std::int64_t sink = 0;
  const double cpu_ns =
      time_per_call_ns([&] { sink = sink + jhpc::thread_cpu_ns(); }, 2000);
  const double now_ns =
      time_per_call_ns([&] { sink = sink + jhpc::now_ns(); }, 2000);
  m["support.clock.thread_cpu_read_ns"] = {cpu_ns, "ns", 15};
  m["support.clock.now_read_ns"] = {now_ns, "ns", 15};

  // burn_ns's error, measured from outside: thread-CPU ns spent over the
  // ns requested, at the modelled JNI crossing of 400 ns. The first call
  // pays the lazy calibration and is not counted.
  constexpr std::int64_t kBurn = 400;
  jhpc::burn_ns(kBurn);
  std::vector<double> ratios;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = jhpc::thread_cpu_ns();
    for (int k = 0; k < 20; ++k) jhpc::burn_ns(kBurn);
    const std::int64_t dt = jhpc::thread_cpu_ns() - t0;
    ratios.push_back(static_cast<double>(dt) / (20.0 * kBurn));
  }
  m["support.burn_ratio"] = {median(ratios), "ratio", ratios.size()};
}

void probe_jvm_and_pool(Metrics& m, const std::vector<std::size_t>& sizes) {
  mj::Jvm jvm(bench_jvm(64));
  jhpc::mpjbuf::BufferFactory pool{jhpc::mpjbuf::FactoryConfig{}};

  // ByteBuffer absolute accessors: one put_double plus one get_double.
  mj::ByteBuffer bb = mj::ByteBuffer::allocate_direct(4096);
  double acc = 0.0;
  std::size_t idx = 0;
  const double pair_ns = time_per_call_ns(
      [&] {
        bb.put_double(idx, acc);
        acc += bb.get_double(idx);
        idx = (idx + 8) & 4095;
      },
      4000);
  m["minijvm.bytebuffer.accessor_ns"] = {pair_ns / 2.0, "ns", 15};

  double jni_ns = 0.0, stage_ns = 0.0, kib = 0.0;
  std::vector<double> get_release;
  for (const std::size_t bytes : sizes) {
    auto arr = jvm.new_array<mj::jbyte>(bytes);
    std::vector<mj::jbyte> tmp(bytes);
    const int reps = bytes >= (1u << 20) ? 8 : bytes >= 65536 ? 64 : 2000;
    const int batches = bytes >= (1u << 20) ? 5 : 15;
    jni_ns += time_per_call_ns(jni_call(jvm.jni(), arr, tmp, bytes), reps,
                               batches);
    stage_ns += time_per_call_ns(stage_call(pool, arr, bytes), reps, batches);
    get_release.push_back(time_per_call_ns(
        [&] {
          jhpc::mpjbuf::Buffer b = pool.get(bytes);
          b.free();
        },
        2000));
    kib += static_cast<double>(bytes) / 1024.0;
  }
  m["minijvm.jni.array_copy_ns_per_kib"] = {kib > 0 ? jni_ns / kib : 0.0,
                                            "ns/KiB", sizes.size()};
  m["mpjbuf.stage_ns_per_kib"] = {kib > 0 ? stage_ns / kib : 0.0, "ns/KiB",
                                  sizes.size()};
  m["mpjbuf.get_release_ns"] = {median(get_release), "ns",
                                get_release.size()};
}

mj::JvmConfig bench_jvm(std::size_t heap_mib) {
  mj::JvmConfig cfg;
  cfg.heap_bytes = heap_mib << 20;
  cfg.jni_crossing_ns = 0;
  return cfg;
}

}  // namespace perfbench
