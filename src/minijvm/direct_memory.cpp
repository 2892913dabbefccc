#include "jhpc/minijvm/direct_memory.hpp"

#include "jhpc/minijvm/heap.hpp"
#include "jhpc/support/knobs.hpp"

namespace jhpc::minijvm {

DirectMemory& DirectMemory::instance() {
  static DirectMemory dm;
  return dm;
}

DirectMemory::DirectMemory() {
  KnobEnv().get("JHPC_MAX_DIRECT_MB", limit_);
  limit_ <<= 20;
}

void DirectMemory::set_limit(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  limit_ = bytes;
}

std::size_t DirectMemory::limit() const {
  std::lock_guard<std::mutex> lk(mu_);
  return limit_;
}

void DirectMemory::reserve(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (limit_ != 0 && stats_.live_bytes + bytes > limit_) {
    throw OutOfMemoryError(
        "Direct buffer memory: " + std::to_string(bytes) +
        " bytes requested, " + std::to_string(stats_.live_bytes) +
        " live, limit " + std::to_string(limit_));
  }
  ++stats_.allocations;
  stats_.allocated_bytes += bytes;
  stats_.live_bytes += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.live_bytes);
}

void DirectMemory::release(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.live_bytes -= bytes;
}

DirectMemoryStats DirectMemory::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void DirectMemory::reset_peak() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.peak_bytes = stats_.live_bytes;
}

}  // namespace jhpc::minijvm
