#include "jhpc/mpjbuf/buffer_factory.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "jhpc/support/error.hpp"

namespace jhpc::mpjbuf {

BufferFactory::BufferFactory(FactoryConfig config) : config_(config) {
  JHPC_REQUIRE(config_.min_capacity >= 64, "pool min_capacity too small");
}

std::size_t BufferFactory::class_index(std::size_t bytes,
                                       std::size_t min_capacity) {
  if (bytes <= min_capacity) return 0;
  // Doublings of min_capacity needed to reach bytes: ceil(log2(q)) for
  // q = ceil(bytes / min_capacity). min_capacity need not be a power of
  // two, so work on the quotient rather than bit_ceil(bytes).
  const std::size_t q = (bytes - 1) / min_capacity + 1;
  const auto k = static_cast<std::size_t>(std::bit_width(q - 1));
  // min_capacity << k must be representable (the seed's doubling loop
  // simply never terminated here).
  JHPC_REQUIRE(
      k < std::numeric_limits<std::size_t>::digits &&
          min_capacity <= (std::numeric_limits<std::size_t>::max() >> k),
      "buffer request too large for any size class");
  return k;
}

std::size_t BufferFactory::size_class(std::size_t bytes,
                                      std::size_t min_capacity) {
  return min_capacity << class_index(bytes, min_capacity);
}

Buffer BufferFactory::get(std::size_t min_bytes) {
  const std::size_t cls = class_index(min_bytes, config_.min_capacity);
  const std::size_t want = config_.min_capacity << cls;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.requests;
    if (pvar_registry_ != nullptr)
      pvar_registry_->add(pv_requests_, pvar_rank_, 1);
    if (cls < classes_.size() && !classes_[cls].empty()) {
      ++stats_.pool_hits;
      if (pvar_registry_ != nullptr)
        pvar_registry_->add(pv_hits_, pvar_rank_, 1);
      minijvm::ByteBuffer storage = std::move(classes_[cls].back());
      classes_[cls].pop_back();
      --stats_.pooled_now;
      return Buffer(this, std::move(storage));
    }
    ++stats_.pool_misses;
    if (pvar_registry_ != nullptr)
      pvar_registry_->add(pv_misses_, pvar_rank_, 1);
  }
  // Miss: create a fresh direct buffer (outside the lock — creation is
  // the expensive part the pool exists to avoid).
  return Buffer(this, minijvm::ByteBuffer::allocate_direct(want));
}

void BufferFactory::give_back(minijvm::ByteBuffer storage) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.returned;
  if (pvar_registry_ != nullptr)
    pvar_registry_->add(pv_returned_, pvar_rank_, 1);
  if (stats_.pooled_now >= config_.max_pooled_buffers) {
    ++stats_.dropped;
    if (pvar_registry_ != nullptr)
      pvar_registry_->add(pv_dropped_, pvar_rank_, 1);
    return;  // storage destroyed here (direct memory released)
  }
  // Every pooled buffer came out of get(), so its capacity is exactly
  // min_capacity << k for some k and maps back to its own free list.
  const std::size_t cls =
      class_index(storage.capacity(), config_.min_capacity);
  if (cls >= classes_.size()) classes_.resize(cls + 1);
  classes_[cls].push_back(std::move(storage));
  ++stats_.pooled_now;
  if (pvar_registry_ != nullptr) {
    pvar_registry_->raise(pv_pooled_, pvar_rank_,
                          static_cast<std::int64_t>(stats_.pooled_now));
  }
}

void BufferFactory::bind_pvars(obs::PvarRegistry& registry, int rank) {
  using obs::PvarClass;
  std::lock_guard<std::mutex> lk(mu_);
  const bool rebind = pvar_registry_ == &registry && pvar_rank_ == rank;
  pvar_registry_ = &registry;
  pvar_rank_ = rank;
  pv_requests_ = registry.register_pvar("mpjbuf.pool.requests",
                                        PvarClass::kCounter,
                                        "staging-buffer requests");
  pv_hits_ = registry.register_pvar("mpjbuf.pool.hits", PvarClass::kCounter,
                                    "requests served from the pool");
  pv_misses_ = registry.register_pvar("mpjbuf.pool.misses",
                                      PvarClass::kCounter,
                                      "fresh direct-buffer allocations");
  pv_returned_ = registry.register_pvar("mpjbuf.pool.returned",
                                        PvarClass::kCounter,
                                        "buffers returned to the pool");
  pv_dropped_ = registry.register_pvar("mpjbuf.pool.dropped",
                                       PvarClass::kCounter,
                                       "buffers freed past the retention cap");
  pv_pooled_ = registry.register_pvar("mpjbuf.pool.pooled", PvarClass::kLevel,
                                      "pooled-buffer count high-water mark");
  // Seed with whatever this pool already counted so registry readbacks
  // match stats() regardless of when the binding happened. A re-bind to
  // the same (registry, rank) must not seed again: the live counts are
  // already there.
  if (rebind) return;
  registry.add(pv_requests_, rank, static_cast<std::int64_t>(stats_.requests));
  registry.add(pv_hits_, rank, static_cast<std::int64_t>(stats_.pool_hits));
  registry.add(pv_misses_, rank,
               static_cast<std::int64_t>(stats_.pool_misses));
  registry.add(pv_returned_, rank,
               static_cast<std::int64_t>(stats_.returned));
  registry.add(pv_dropped_, rank, static_cast<std::int64_t>(stats_.dropped));
  registry.raise(pv_pooled_, rank,
                 static_cast<std::int64_t>(stats_.pooled_now));
}

BufferFactory::Stats BufferFactory::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace jhpc::mpjbuf
