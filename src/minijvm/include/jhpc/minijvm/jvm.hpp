// The Jvm facade: one simulated Java virtual machine per rank thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "jhpc/minijvm/heap.hpp"
#include "jhpc/minijvm/jarray.hpp"
#include "jhpc/minijvm/jtypes.hpp"

namespace jhpc::minijvm {

class JniEnv;

/// JVM-level configuration (JHPC_HEAP_MB / JHPC_JNI_CROSS_NS).
struct JvmConfig {
  /// Managed heap reservation in bytes (split into two semispaces).
  std::size_t heap_bytes = 64 * 1024 * 1024;
  /// Modelled cost of one Java->native (JNI) method transition,
  /// nanoseconds: argument marshalling, local-reference frame setup and
  /// the JIT->native call sequence. The paper's Figure 11 overhead
  /// ("in the ballpark of 1 microsecond" per one-way message, i.e. two
  /// crossings) emerges from this plus the real C++-layer work per call.
  std::int64_t jni_crossing_ns = 400;
};

/// One simulated JVM: a managed heap plus its JNI environment. In the
/// paper's deployment every MPI rank is a separate JVM process; here every
/// rank thread constructs its own Jvm. Not thread-safe across ranks by
/// design.
class Jvm {
 public:
  explicit Jvm(JvmConfig config = {});
  ~Jvm();
  Jvm(const Jvm&) = delete;
  Jvm& operator=(const Jvm&) = delete;

  /// Allocate a managed array of `n` elements (zero-initialised, like
  /// Java `new T[n]`).
  template <JavaPrimitive T>
  JArray<T> new_array(std::size_t n) {
    const int h = heap_->allocate(n * sizeof(T));
    return JArray<T>(heap_.get(), h, n);
  }

  /// Force a collection (System.gc() with -XX:+ExplicitGCInvokesFull, in
  /// effect). Returns false when active critical sections block it.
  bool gc() { return heap_->collect(); }

  ManagedHeap& heap() { return *heap_; }
  const GcStats& stats() const { return heap_->stats(); }
  JniEnv& jni() { return *jni_; }
  const JvmConfig& config() const { return config_; }

 private:
  JvmConfig config_;
  std::unique_ptr<ManagedHeap> heap_;
  std::unique_ptr<JniEnv> jni_;
};

}  // namespace jhpc::minijvm
