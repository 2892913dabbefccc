// The pool behind the buffering layer.
//
// "The buffering layer dynamically maintains a pool of direct ByteBuffers
//  ... The proposed buffering layer avoids the overhead of creating a
//  ByteBuffer every time a message comprising of Java arrays is
//  communicated." (paper, Section IV-A)
//
// Buffers are size-classed to powers of two and pooled in one free list
// per class: get() pops the request's class in O(1) (or allocates a fresh
// direct buffer on a miss) and give_back() pushes in O(1), instead of the
// previous linear scan of one mixed pool under the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/mpjbuf/buffer.hpp"
#include "jhpc/obs/pvar.hpp"

namespace jhpc::mpjbuf {

/// Pool configuration (JHPC_POOL_MIN_CAPACITY / JHPC_POOL_MAX_BUFFERS).
struct FactoryConfig {
  /// Smallest buffer the pool hands out; requests below are rounded up.
  std::size_t min_capacity = 16 * 1024;
  /// Pool retention cap; buffers freed beyond this are dropped (their
  /// direct storage is released).
  std::size_t max_pooled_buffers = 64;
};

/// Factory + pool of direct staging buffers.
///
/// Thread-safe: in the bindings each rank owns one factory, but nothing
/// prevents sharing. Buffers must not outlive their factory.
class BufferFactory {
 public:
  explicit BufferFactory(FactoryConfig config = {});

  /// Obtain a staging buffer with capacity >= min_bytes. Pool hit: reuse
  /// (O(1) pop from the request's size class); miss: allocate a fresh
  /// direct ByteBuffer (costly, by design). Throws jhpc::Error when the
  /// rounded-up capacity would overflow std::size_t.
  Buffer get(std::size_t min_bytes);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;  ///< fresh direct allocations
    std::uint64_t returned = 0;
    std::uint64_t dropped = 0;      ///< freed past the retention cap
    std::size_t pooled_now = 0;
  };
  Stats stats() const;

  /// Mirror this pool's stats into the MPI_T-style pvar registry under
  /// mpjbuf.pool.* with values accounted to `rank`. Counts accumulated
  /// before binding are seeded so registry and stats() always agree.
  /// Find-or-create registration makes per-rank binding idempotent.
  void bind_pvars(obs::PvarRegistry& registry, int rank);

  const FactoryConfig& config() const { return config_; }

 private:
  friend class Buffer;
  /// Called by Buffer::free()/~Buffer to return storage to the pool.
  void give_back(minijvm::ByteBuffer storage);

  /// Capacity of the size class serving `bytes`: min_capacity doubled
  /// until it fits, computed in O(1). Throws on std::size_t overflow.
  static std::size_t size_class(std::size_t bytes, std::size_t min_capacity);

  /// Free-list index of that class (its number of doublings).
  static std::size_t class_index(std::size_t bytes, std::size_t min_capacity);

  FactoryConfig config_;
  mutable std::mutex mu_;
  /// classes_[k] holds idle buffers of capacity min_capacity << k.
  std::vector<std::vector<minijvm::ByteBuffer>> classes_;
  Stats stats_;

  // Pvar mirroring (null until bind_pvars; mutated under mu_).
  obs::PvarRegistry* pvar_registry_ = nullptr;
  int pvar_rank_ = -1;
  obs::PvarId pv_requests_, pv_hits_, pv_misses_;
  obs::PvarId pv_returned_, pv_dropped_, pv_pooled_;
};

}  // namespace jhpc::mpjbuf
