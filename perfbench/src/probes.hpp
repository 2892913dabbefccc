// Layer probes of the traced run: each times a loop of calls into one
// layer's public entry point on the calling thread and reports the median
// over batches, so one descheduling does not move the figure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/support/clock.hpp"

namespace perfbench {

/// Median over `batches` of the mean ns per call of `f` in a batch of
/// `reps` calls.
template <class F>
double time_per_call_ns(F&& f, int reps, int batches = 15) {
  std::vector<double> per;
  per.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = jhpc::now_ns();
    for (int i = 0; i < reps; ++i) f();
    per.push_back(static_cast<double>(jhpc::now_ns() - t0) / reps);
  }
  return median(per);
}

/// The mpjbuf boundary of one array message, as the bindings stage it: a
/// pooled get, the bulk copy from the array and a give-back on the
/// sending end; a get, the copy into the array and a give-back on the
/// receiving end. `arr` and `pool` must outlive the returned callable.
template <class T>
auto stage_call(jhpc::mpjbuf::BufferFactory& pool,
                jhpc::minijvm::JArray<T>& arr, std::size_t els) {
  return [&pool, &arr, els] {
    const std::size_t bytes = els * sizeof(T);
    jhpc::mpjbuf::Buffer out = pool.get(bytes);
    out.write(arr, 0, els);
    out.commit();
    out.free();
    jhpc::mpjbuf::Buffer in = pool.get(bytes);
    in.notify_native_write(bytes);
    in.read(arr, 0, els);
    in.free();
  };
}

/// The JNI boundary of one array message: a region copy out of the array
/// and one back in, through `tmp` (at least `els` long).
template <class T>
auto jni_call(jhpc::minijvm::JniEnv& jni, jhpc::minijvm::JArray<T>& arr,
              std::vector<T>& tmp, std::size_t els) {
  return [&jni, &arr, &tmp, els] {
    jni.get_array_region(arr, 0, els, tmp.data());
    jni.set_array_region(arr, 0, els, tmp.data());
  };
}

/// Cumulative clock_gettime calls by clock id, as counted by the
/// interposer library the traced run preloads. `available` is false when
/// the interposer is not loaded.
struct ClockCounts {
  bool available = false;
  std::uint64_t thread_cpu = 0;  ///< CLOCK_THREAD_CPUTIME_ID
  std::uint64_t monotonic = 0;   ///< CLOCK_MONOTONIC
};
ClockCounts clock_counts();

/// support.clock.* and support.burn_ratio.
void probe_support(Metrics& m);

/// minijvm.jni.array_copy_ns_per_kib, minijvm.bytebuffer.accessor_ns,
/// mpjbuf.get_release_ns and mpjbuf.stage_ns_per_kib at the workload's
/// array payload sizes.
void probe_jvm_and_pool(Metrics& m, const std::vector<std::size_t>& sizes);

/// The set-up-free JVM configuration every workload uses: the modelled
/// JNI crossing is off (see BENCHMARK.md, "burn_ns") and nothing is read
/// from the environment.
jhpc::minijvm::JvmConfig bench_jvm(std::size_t heap_mib);

}  // namespace perfbench
