// The communicator of the binding core: the paper's contribution, in API
// form, written once for both vendors (policy.hpp).
//
// Two families of entry points, as in the Open MPI Java bindings API the
// paper adopts:
//
//   * direct NIO ByteBuffers — passed by reference through the "JNI"
//     layer; the native side obtains the stable storage pointer with
//     GetDirectBufferAddress and hands it straight to the native library
//     (paper Figure 4; zero copy). Identical for both vendors, except for
//     the per-call marshalling of VendorPolicy::marshal_per_call.
//
//   * Java arrays — staged per VendorPolicy::staging. MVAPICH2-J acquires
//     a pooled direct buffer, bulk-copies the array onto it and passes
//     that buffer through JNI (paper Figure 3; one copy each side, no
//     per-message allocation); the staging buffer lives until a request
//     completes, so this works for non-blocking point-to-point too.
//     Open MPI-J copies through a fresh native buffer on every call and
//     refuses arrays on non-blocking point-to-point.
//
// The adopted API has no `offset` argument on communication primitives;
// because the buffering layer supports sub-range staging natively, the
// pooled binding also ships the offset overloads the paper suggests
// re-introducing (Section IV-B) — see "API extension" below.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/minijvm/jarray.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/minimpi/comm.hpp"
#include "jhpc/mv2j/policy.hpp"
#include "jhpc/mv2j/request.hpp"
#include "jhpc/mv2j/types.hpp"

namespace jhpc::bindings {

using minijvm::ByteBuffer;
using minijvm::JArray;
using minijvm::JavaPrimitive;
using mv2j::Datatype;
using mv2j::Errhandler;
using mv2j::Op;
using mv2j::Request;
using mv2j::Status;

template <VendorPolicy P>
class Env;
template <VendorPolicy P>
class Win;

/// mpi.Comm / mpi.Intracomm of the Java bindings.
template <VendorPolicy P>
class Comm {
 public:
  Comm() = default;

  bool valid() const { return env_ != nullptr && native_.valid(); }
  int getRank() const { return native_.rank(); }
  int getSize() const { return native_.size(); }

  // --- Point-to-point: direct ByteBuffer API ------------------------------
  /// Send `count` elements of `type` starting at buffer index 0.
  void send(const ByteBuffer& buf, int count, const Datatype& type, int dest,
            int tag) const;
  Status recv(ByteBuffer& buf, int count, const Datatype& type, int source,
              int tag) const;
  Request iSend(const ByteBuffer& buf, int count, const Datatype& type,
                int dest, int tag) const;
  Request iRecv(ByteBuffer& buf, int count, const Datatype& type, int source,
                int tag) const;

  // --- Point-to-point: Java array API -------------------------------------
  template <JavaPrimitive T>
  void send(const JArray<T>& buf, int count, const Datatype& type, int dest,
            int tag) const {
    send_at(buf, 0, count, type, dest, tag);
  }
  template <JavaPrimitive T>
  Status recv(JArray<T>& buf, int count, const Datatype& type, int source,
              int tag) const {
    return recv_at(buf, 0, count, type, source, tag);
  }
  /// Pooled staging: the staging buffer lives inside the returned Request.
  /// Per-call staging: throws UnsupportedOperationError — the array copy
  /// cannot outlive the call.
  template <JavaPrimitive T>
  Request iSend(const JArray<T>& buf, int count, const Datatype& type,
                int dest, int tag) const {
    return isend_at(buf, 0, count, type, dest, tag);
  }
  template <JavaPrimitive T>
  Request iRecv(JArray<T>& buf, int count, const Datatype& type, int source,
                int tag) const {
    return irecv_at(buf, 0, count, type, source, tag);
  }

  // --- API extension: sub-range ("offset") array communication -------------
  // The mpiJava 1.2 / MPJ APIs had an `offset` argument that the Open MPI
  // Java API dropped; the paper (Section IV-B) notes the buffering layer
  // supports it for free and suggests re-introducing it — these overloads
  // do exactly that, on the pooled binding. `offset` is in elements of T.
  template <JavaPrimitive T>
  void send(const JArray<T>& buf, int offset, int count,
            const Datatype& type, int dest, int tag) const
    requires kPooled<P>
  {
    send_at(buf, offset, count, type, dest, tag);
  }
  template <JavaPrimitive T>
  Status recv(JArray<T>& buf, int offset, int count, const Datatype& type,
              int source, int tag) const
    requires kPooled<P>
  {
    return recv_at(buf, offset, count, type, source, tag);
  }
  template <JavaPrimitive T>
  Request iSend(const JArray<T>& buf, int offset, int count,
                const Datatype& type, int dest, int tag) const
    requires kPooled<P>
  {
    return isend_at(buf, offset, count, type, dest, tag);
  }
  template <JavaPrimitive T>
  Request iRecv(JArray<T>& buf, int offset, int count, const Datatype& type,
                int source, int tag) const
    requires kPooled<P>
  {
    return irecv_at(buf, offset, count, type, source, tag);
  }

  // --- Probing -------------------------------------------------------------
  /// Block until a matching message is pending; returns its envelope.
  Status probe(int source, int tag) const;
  /// Non-blocking probe: true + filled `status` when a message is pending.
  bool iProbe(int source, int tag, Status* status) const;

  /// Combined send/recv (buffers); an MVAPICH2-J extension the Open MPI
  /// Java API does not have.
  Status sendRecv(const ByteBuffer& sendbuf, int sendcount,
                  const Datatype& sendtype, int dest, int sendtag,
                  ByteBuffer& recvbuf, int recvcount,
                  const Datatype& recvtype, int source, int recvtag) const
    requires kPooled<P>;

  // --- Blocking collectives: ByteBuffer API --------------------------------
  void barrier() const;
  void bcast(ByteBuffer& buf, int count, const Datatype& type,
             int root) const;
  void reduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
              const Datatype& type, const Op& op, int root) const;
  void allReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
                 const Datatype& type, const Op& op) const;
  /// Reduction of size()*recvcount elements; rank i receives block i
  /// (MPI_Reduce_scatter_block).
  void reduceScatterBlock(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                          int recvcount, const Datatype& type,
                          const Op& op) const;
  /// Inclusive prefix reduction (MPI_Scan).
  void scan(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
            const Datatype& type, const Op& op) const;
  void gather(const ByteBuffer& sendbuf, int count, const Datatype& type,
              ByteBuffer& recvbuf, int root) const;
  void scatter(const ByteBuffer& sendbuf, int count, const Datatype& type,
               ByteBuffer& recvbuf, int root) const;
  void allGather(const ByteBuffer& sendbuf, int count, const Datatype& type,
                 ByteBuffer& recvbuf) const;
  void allToAll(const ByteBuffer& sendbuf, int count, const Datatype& type,
                ByteBuffer& recvbuf) const;

  // --- Nonblocking collectives: ByteBuffer API -----------------------------
  // Backed by the minimpi schedule engine: the operation is posted here
  // and progresses inside the returned Request's test()/waitFor(). The
  // buffers must stay alive and untouched until the request completes.
  // Direct-buffer only: array payloads would need request-held staging,
  // and the zero-copy path is what a nonblocking collective is for.
  Request iBarrier() const;
  Request iBcast(ByteBuffer& buf, int count, const Datatype& type,
                 int root) const;
  Request iReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
                  const Datatype& type, const Op& op, int root) const;
  Request iAllReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                     int count, const Datatype& type, const Op& op) const;
  Request iGather(const ByteBuffer& sendbuf, int count, const Datatype& type,
                  ByteBuffer& recvbuf, int root) const;
  Request iScatter(const ByteBuffer& sendbuf, int count,
                   const Datatype& type, ByteBuffer& recvbuf, int root) const;
  Request iAllGather(const ByteBuffer& sendbuf, int count,
                     const Datatype& type, ByteBuffer& recvbuf) const;
  Request iAllToAll(const ByteBuffer& sendbuf, int count,
                    const Datatype& type, ByteBuffer& recvbuf) const;

  // --- Blocking collectives: Java array API (basic datatypes only) ---------
  template <JavaPrimitive T>
  void bcast(JArray<T>& buf, int count, const Datatype& type,
             int root) const;
  template <JavaPrimitive T>
  void reduce(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
              const Datatype& type, const Op& op, int root) const;
  template <JavaPrimitive T>
  void allReduce(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                 const Datatype& type, const Op& op) const;
  template <JavaPrimitive T>
  void reduceScatterBlock(const JArray<T>& sendbuf, JArray<T>& recvbuf,
                          int recvcount, const Datatype& type,
                          const Op& op) const;
  template <JavaPrimitive T>
  void scan(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
            const Datatype& type, const Op& op) const;
  template <JavaPrimitive T>
  void gather(const JArray<T>& sendbuf, int count, const Datatype& type,
              JArray<T>& recvbuf, int root) const;
  template <JavaPrimitive T>
  void scatter(const JArray<T>& sendbuf, int count, const Datatype& type,
               JArray<T>& recvbuf, int root) const;
  template <JavaPrimitive T>
  void allGather(const JArray<T>& sendbuf, int count, const Datatype& type,
                 JArray<T>& recvbuf) const;
  template <JavaPrimitive T>
  void allToAll(const JArray<T>& sendbuf, int count, const Datatype& type,
                JArray<T>& recvbuf) const;

  // --- Vectored blocking collectives (counts/displs in elements) -----------
  // Basic datatypes only; counts/displs need one entry per rank and no
  // negative value (read on the root for gatherv/scatterv, everywhere
  // for allGatherv/allToAllv).
  void gatherv(const ByteBuffer& sendbuf, int sendcount,
               const Datatype& type, ByteBuffer& recvbuf,
               std::span<const int> recvcounts, std::span<const int> displs,
               int root) const;
  void scatterv(const ByteBuffer& sendbuf, std::span<const int> sendcounts,
                std::span<const int> displs, const Datatype& type,
                ByteBuffer& recvbuf, int recvcount, int root) const;
  void allGatherv(const ByteBuffer& sendbuf, int sendcount,
                  const Datatype& type, ByteBuffer& recvbuf,
                  std::span<const int> recvcounts,
                  std::span<const int> displs) const;
  void allToAllv(const ByteBuffer& sendbuf, std::span<const int> sendcounts,
                 std::span<const int> sdispls, const Datatype& type,
                 ByteBuffer& recvbuf, std::span<const int> recvcounts,
                 std::span<const int> rdispls) const;

  template <JavaPrimitive T>
  void gatherv(const JArray<T>& sendbuf, int sendcount, const Datatype& type,
               JArray<T>& recvbuf, std::span<const int> recvcounts,
               std::span<const int> displs, int root) const;
  template <JavaPrimitive T>
  void scatterv(const JArray<T>& sendbuf, std::span<const int> sendcounts,
                std::span<const int> displs, const Datatype& type,
                JArray<T>& recvbuf, int recvcount, int root) const;
  template <JavaPrimitive T>
  void allGatherv(const JArray<T>& sendbuf, int sendcount,
                  const Datatype& type, JArray<T>& recvbuf,
                  std::span<const int> recvcounts,
                  std::span<const int> displs) const;
  template <JavaPrimitive T>
  void allToAllv(const JArray<T>& sendbuf, std::span<const int> sendcounts,
                 std::span<const int> sdispls, const Datatype& type,
                 JArray<T>& recvbuf, std::span<const int> recvcounts,
                 std::span<const int> rdispls) const;

  // --- One-sided communication (mpi.Win) ------------------------------------
  /// Expose `bytes` of a direct ByteBuffer as this rank's window slice
  /// (collective over the communicator). Heap buffers are rejected: RMA
  /// needs a stable native address.
  Win<P> winCreate(ByteBuffer& buf, std::size_t bytes) const;
  /// Collectively allocate a zero-initialised window of `bytes`.
  Win<P> winAllocate(std::size_t bytes) const;

  // --- Communicator management ----------------------------------------------
  Comm dup() const;
  Comm split(int color, int key) const;

  // --- Fault tolerance (the MPIX/ULFM extension surface) --------------------
  /// Error-handling policy for rank failures on this communicator
  /// (default ERRORS_ARE_FATAL); inherited by dup/split/shrink results.
  void setErrhandler(Errhandler eh) const;
  Errhandler getErrhandler() const;
  /// MPIX_Comm_revoke: interrupt every pending and future operation on
  /// this communicator, on every rank, with CommRevokedError.
  void revoke() const;
  /// MPIX_Comm_shrink: agree on the failed set and return a survivors-only
  /// communicator with dense re-ranking.
  Comm shrink() const;
  /// MPIX_Comm_agree: fault-tolerant agreement — the bitwise AND of `flag`
  /// across survivors, identical on every rank even under failures.
  int agree(int flag) const;
  /// World ranks of this communicator known to have failed (sorted).
  std::vector<int> getFailedRanks() const;

  /// The underlying native communicator (library-internal + benches).
  const minimpi::Comm& native() const { return native_; }

 private:
  friend class Env<P>;
  friend class Win<P>;  // one-sided paths reuse enter/buffer_address
  Comm(Env<P>* env, minimpi::Comm native) : env_(env), native_(native) {}

  /// Entry of a bound native method: the validity check, then one JNI
  /// crossing. Returns the rank's JNI environment.
  minijvm::JniEnv& enter(const char* what) const;

  /// A request with no staging state to complete (the ByteBuffer paths).
  static Request no_staging(minimpi::Request r) {
    return Request(std::move(r), nullptr);
  }

  /// Native pointer of a direct buffer, via the JNI layer; validates
  /// direct-ness and capacity for `bytes`.
  std::byte* buffer_address(const ByteBuffer& buf, std::size_t bytes,
                            const char* what) const;

  // The array point-to-point bodies behind both the plain and the offset
  // overloads.
  template <JavaPrimitive T>
  void send_at(const JArray<T>& buf, int offset, int count,
               const Datatype& type, int dest, int tag) const;
  template <JavaPrimitive T>
  Status recv_at(JArray<T>& buf, int offset, int count, const Datatype& type,
                 int source, int tag) const;
  template <JavaPrimitive T>
  Request isend_at(const JArray<T>& buf, int offset, int count,
                   const Datatype& type, int dest, int tag) const;
  template <JavaPrimitive T>
  Request irecv_at(JArray<T>& buf, int offset, int count,
                   const Datatype& type, int source, int tag) const;

  Env<P>* env_ = nullptr;
  minimpi::Comm native_;
};

}  // namespace jhpc::bindings

namespace jhpc::mv2j {

using minijvm::ByteBuffer;
using minijvm::JArray;
using minijvm::JavaPrimitive;

/// mpi.Comm of the MVAPICH2-J bindings.
using Comm = bindings::Comm<bindings::kMv2j>;

}  // namespace jhpc::mv2j
