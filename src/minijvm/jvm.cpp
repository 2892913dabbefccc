#include "jhpc/minijvm/jvm.hpp"

#include "jhpc/minijvm/jni.hpp"

namespace jhpc::minijvm {

Jvm::Jvm(JvmConfig config)
    : config_(config),
      heap_(std::make_unique<ManagedHeap>(config.heap_bytes)),
      jni_(std::make_unique<JniEnv>(*this, config.jni_crossing_ns)) {}

Jvm::~Jvm() = default;

JniEnv::~JniEnv() {
  // Leaked Get<Type>ArrayElements copies are reclaimed here; tests check
  // outstanding_copies() to catch the leak itself.
  for (auto& [ptr, copy] : copies_) ::operator delete(ptr);
}

}  // namespace jhpc::minijvm
