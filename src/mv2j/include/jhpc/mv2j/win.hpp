// mpi.Win of the binding core: one-sided communication over direct
// ByteBuffers, for both vendors.
//
// Same Figure-4 pipeline as the two-sided ByteBuffer paths — reference
// in, one JNI crossing, GetDirectBufferAddress, native call on the raw
// pointer. The native library underneath is the substrate's
// RDMA-emulating window engine (docs/API.md "One-sided communication"):
// puts and gets move payload straight between the origin buffer and the
// exposed window memory, no mailbox bounce, which is exactly why the
// paper-era Java bindings wanted direct buffers for RMA in the first
// place. Java arrays are deliberately NOT bound here: a staged array
// would reintroduce the copy RMA exists to avoid.
//
// Epoch discipline, completion semantics and the error taxonomy are the
// substrate's (jhpc/minimpi/win.hpp); these bindings add only the JNI
// crossing accounting (plus Open MPI-J's per-call marshalling on every
// origin, VendorPolicy::marshal_per_call) and ByteBuffer capacity
// validation.
#pragma once

#include <cstddef>
#include <span>

#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/minimpi/win.hpp"
#include "jhpc/mv2j/comm.hpp"
#include "jhpc/mv2j/types.hpp"

namespace jhpc::bindings {

/// mpi.Win: a window of directly-accessible memory on every rank of the
/// communicator it was created from. Obtain one with Comm::winCreate
/// (expose an existing direct ByteBuffer) or Comm::winAllocate (the
/// library allocates zeroed memory).
template <VendorPolicy P>
class Win {
 public:
  Win() = default;

  bool valid() const { return native_.valid(); }
  int getRank() const { return native_.rank(); }
  int getSize() const { return native_.size(); }
  /// Bytes exposed by `targetRank` (windows may be heterogeneous).
  std::size_t getBytes(int targetRank) const {
    return native_.bytes(targetRank);
  }

  // --- One-sided data movement (direct ByteBuffer origins) -----------------
  /// Put `count` elements of `type` from the origin buffer (index 0)
  /// into the target window at byte offset `targetOffset`.
  void put(const ByteBuffer& origin, int count, const Datatype& type,
           int targetRank, std::size_t targetOffset) const;
  /// Same, scattering into the target through `targetType`'s layout
  /// (count*type payload bytes must be whole targetType elements).
  void put(const ByteBuffer& origin, int count, const Datatype& type,
           int targetRank, std::size_t targetOffset,
           const Datatype& targetType) const;
  void get(ByteBuffer& origin, int count, const Datatype& type,
           int targetRank, std::size_t targetOffset) const;
  void get(ByteBuffer& origin, int count, const Datatype& type,
           int targetRank, std::size_t targetOffset,
           const Datatype& targetType) const;
  /// Element-wise `target op= origin`, applied atomically per element at
  /// the target. `type` must have a uniform basic leaf.
  void accumulate(const ByteBuffer& origin, int count, const Datatype& type,
                  const Op& op, int targetRank,
                  std::size_t targetOffset) const;
  /// Atomic read-modify-write of ONE `type` element: `result` receives
  /// the pre-op target value (valid on return). `type` must be basic.
  void fetchOp(const ByteBuffer& value, ByteBuffer& result,
               const Datatype& type, const Op& op, int targetRank,
               std::size_t targetOffset) const;

  // --- Synchronization ------------------------------------------------------
  void fence() const;
  void post(std::span<const int> group) const;
  void start(std::span<const int> group) const;
  void complete() const;
  /// Closes the exposure epoch opened by post() (MPI_Win_wait; named for
  /// the Java bindings' Request::waitFor idiom).
  void waitFor() const;
  void lock(minimpi::LockType type, int targetRank) const;
  void unlock(int targetRank) const;
  void lockAll() const;
  void unlockAll() const;

  /// Collective teardown; the handle becomes invalid.
  void free();

  const minimpi::Win& native() const { return native_; }

 private:
  friend class Comm<P>;
  Win(Comm<P> comm, minimpi::Win native)
      : comm_(std::move(comm)), native_(std::move(native)) {}

  /// Entry of a bound window method: validity check plus the crossing.
  minijvm::JniEnv& enter(const char* what) const;

  /// Origin pointer for `count` elements of `type`, through the JNI
  /// layer (crossing accounted, direct-ness and capacity validated).
  std::byte* origin_address(const ByteBuffer& buf, int count,
                            const Datatype& type, const char* what) const;

  Comm<P> comm_;
  minimpi::Win native_;
};

}  // namespace jhpc::bindings

namespace jhpc::mv2j {

/// Passive-target lock modes, re-exported under their Java names.
using LockType = minimpi::LockType;
inline constexpr LockType LOCK_EXCLUSIVE = minimpi::LockType::kExclusive;
inline constexpr LockType LOCK_SHARED = minimpi::LockType::kShared;

/// mpi.Win of the MVAPICH2-J bindings.
using Win = bindings::Win<bindings::kMv2j>;

}  // namespace jhpc::mv2j
