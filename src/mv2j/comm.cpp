// ByteBuffer paths and communicator management of the binding core. This
// is the paper's Figure 4 pipeline: reference in, one JNI crossing,
// GetDirectBufferAddress, native MPI call on the raw pointer.
#include "jhpc/mv2j/comm.hpp"

#include "detail.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/mv2j/win.hpp"

namespace jhpc::bindings {

namespace {

using detail::basic_only;
using detail::count_of;
using detail::Layout;

std::size_t payload_bytes(int count, const Datatype& type) {
  return static_cast<std::size_t>(count) * type.size();
}

// Memory span `count` elements of `type` occupy in a buffer: blocks laid
// out extent() apart. The capacity check must cover this for derived
// types — size() undercounts the stride gaps. Layouts reaching below the
// buffer start (negative lower bound) cannot be addressed through a
// ByteBuffer handed over by its base pointer.
std::size_t span_bytes(int count, const Datatype& type, const char* what) {
  const std::size_t n = count_of(count, what);
  if (type.isBasic()) return n * type.size();
  JHPC_REQUIRE(type.native().true_lb() >= 0,
               std::string(what) +
                   ": datatypes with a negative lower bound are not "
                   "addressable through a ByteBuffer");
  return n * type.extent();
}

// Call `f` with the native form of `count` elements of `type`: the byte
// count for a basic type, (count, layout) for a derived one, which the
// substrate gathers/scatters in place.
template <class F>
decltype(auto) with_bytes(int count, const Datatype& type, F&& f) {
  if (type.isBasic()) return f(payload_bytes(count, type));
  return f(count, type.native());
}

// The same for reductions: (elements, kind) for a basic type.
template <class F>
decltype(auto) with_elems(int count, const Datatype& type, F&& f) {
  if (type.isBasic()) return f(static_cast<std::size_t>(count), type.kind());
  return f(count, type.native());
}

}  // namespace

template <VendorPolicy P>
minijvm::JniEnv& Comm<P>::enter(const char* what) const {
  JHPC_REQUIRE(valid(), std::string(what) + " on invalid communicator");
  minijvm::JniEnv& jni = env_->jvm_->jni();
  jni.crossing();
  return jni;
}

template <VendorPolicy P>
std::byte* Comm<P>::buffer_address(const ByteBuffer& buf, std::size_t bytes,
                                   const char* what) const {
  minijvm::JniEnv& jni = env_->jvm_->jni();
  void* p = jni.get_direct_buffer_address(buf);
  if (p == nullptr) {
    throw UnsupportedOperationError(
        std::string(what) +
        ": the bindings require a direct ByteBuffer (heap buffers have no "
        "stable native address)");
  }
  JHPC_REQUIRE(bytes <= jni.get_direct_buffer_capacity(buf),
               std::string(what) + ": count exceeds buffer capacity");
  return static_cast<std::byte*>(p);
}

// --- Point-to-point: ByteBuffer ------------------------------------------------

template <VendorPolicy P>
void Comm<P>::send(const ByteBuffer& buf, int count, const Datatype& type,
                   int dest, int tag) const {
  minijvm::JniEnv& jni = enter("send");
  // Open MPI-J marshals a Datatype/Comm object graph per call (a couple
  // of extra JNI field accesses); MVAPICH2-J's thinner layer avoids it —
  // the small but visible gap in the paper's Figure 11.
  if constexpr (P.marshal_per_call) jni.handle_check();
  const std::byte* p = buffer_address(buf, span_bytes(count, type, "send"),
                                      "send");
  with_bytes(count, type,
             [&](auto&&... n) { native_.send(p, n..., dest, tag); });
}

template <VendorPolicy P>
Status Comm<P>::recv(ByteBuffer& buf, int count, const Datatype& type,
                     int source, int tag) const {
  minijvm::JniEnv& jni = enter("recv");
  // Per-call Status object construction + field marshalling (see send()).
  if constexpr (P.marshal_per_call) jni.handle_check();
  std::byte* p = buffer_address(buf, span_bytes(count, type, "recv"), "recv");
  minimpi::Status st;
  with_bytes(count, type,
             [&](auto&&... n) { native_.recv(p, n..., source, tag, &st); });
  return Status(st);
}

template <VendorPolicy P>
Request Comm<P>::iSend(const ByteBuffer& buf, int count, const Datatype& type,
                       int dest, int tag) const {
  enter("iSend");
  const std::byte* p = buffer_address(buf, span_bytes(count, type, "iSend"),
                                      "iSend");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.isend(p, n..., dest, tag);
  }));
}

template <VendorPolicy P>
Request Comm<P>::iRecv(ByteBuffer& buf, int count, const Datatype& type,
                       int source, int tag) const {
  enter("iRecv");
  std::byte* p = buffer_address(buf, span_bytes(count, type, "iRecv"),
                                "iRecv");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.irecv(p, n..., source, tag);
  }));
}

template <VendorPolicy P>
Status Comm<P>::sendRecv(const ByteBuffer& sendbuf, int sendcount,
                         const Datatype& sendtype, int dest, int sendtag,
                         ByteBuffer& recvbuf, int recvcount,
                         const Datatype& recvtype, int source,
                         int recvtag) const
  requires kPooled<P>
{
  enter("sendRecv");
  const std::byte* sp = buffer_address(
      sendbuf, span_bytes(sendcount, sendtype, "sendRecv"), "sendRecv");
  std::byte* rp = buffer_address(
      recvbuf, span_bytes(recvcount, recvtype, "sendRecv"), "sendRecv");
  minimpi::Status st;
  if (sendtype.isBasic() && recvtype.isBasic()) {
    native_.sendrecv(sp, payload_bytes(sendcount, sendtype), dest, sendtag,
                     rp, payload_bytes(recvcount, recvtype), source, recvtag,
                     &st);
  } else {
    native_.sendrecv(sp, sendcount, sendtype.native(), dest, sendtag, rp,
                     recvcount, recvtype.native(), source, recvtag, &st);
  }
  return Status(st);
}

template <VendorPolicy P>
Status Comm<P>::probe(int source, int tag) const {
  enter("probe");
  return Status(native_.probe(source, tag));
}

template <VendorPolicy P>
bool Comm<P>::iProbe(int source, int tag, Status* status) const {
  enter("iProbe");
  minimpi::Status st;
  if (!native_.iprobe(source, tag, &st)) return false;
  if (status != nullptr) *status = Status(st);
  return true;
}

// --- Blocking collectives: ByteBuffer ------------------------------------------

template <VendorPolicy P>
void Comm<P>::barrier() const {
  enter("barrier");
  native_.barrier();
}

template <VendorPolicy P>
void Comm<P>::bcast(ByteBuffer& buf, int count, const Datatype& type,
                    int root) const {
  enter("bcast");
  std::byte* p = buffer_address(buf, span_bytes(count, type, "bcast"),
                                "bcast");
  with_bytes(count, type, [&](auto&&... n) { native_.bcast(p, n..., root); });
}

template <VendorPolicy P>
void Comm<P>::reduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                     int count, const Datatype& type, const Op& op,
                     int root) const {
  enter("reduce");
  const std::size_t span = span_bytes(count, type, "reduce");
  const std::byte* sp = buffer_address(sendbuf, span, "reduce");
  // Non-root ranks may pass any recv buffer; only the root's is written.
  std::byte* rp =
      buffer_address(recvbuf, getRank() == root ? span : 0, "reduce");
  with_elems(count, type, [&](auto&&... n) {
    native_.reduce(sp, rp, n..., op.native(), root);
  });
}

template <VendorPolicy P>
void Comm<P>::allReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                        int count, const Datatype& type, const Op& op) const {
  enter("allReduce");
  const std::size_t span = span_bytes(count, type, "allReduce");
  const std::byte* sp = buffer_address(sendbuf, span, "allReduce");
  std::byte* rp = buffer_address(recvbuf, span, "allReduce");
  with_elems(count, type, [&](auto&&... n) {
    native_.allreduce(sp, rp, n..., op.native());
  });
}

template <VendorPolicy P>
void Comm<P>::reduceScatterBlock(const ByteBuffer& sendbuf,
                                 ByteBuffer& recvbuf, int recvcount,
                                 const Datatype& type, const Op& op) const {
  enter("reduceScatterBlock");
  basic_only(type, "reduceScatterBlock");
  const std::size_t block = span_bytes(recvcount, type, "reduceScatterBlock");
  const std::byte* sp = buffer_address(
      sendbuf, block * static_cast<std::size_t>(getSize()),
      "reduceScatterBlock");
  std::byte* rp = buffer_address(recvbuf, block, "reduceScatterBlock");
  native_.reduce_scatter_block(sp, rp, static_cast<std::size_t>(recvcount),
                               type.kind(), op.native());
}

template <VendorPolicy P>
void Comm<P>::scan(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
                   const Datatype& type, const Op& op) const {
  enter("scan");
  basic_only(type, "scan");
  const std::size_t bytes = span_bytes(count, type, "scan");
  const std::byte* sp = buffer_address(sendbuf, bytes, "scan");
  std::byte* rp = buffer_address(recvbuf, bytes, "scan");
  native_.scan(sp, rp, static_cast<std::size_t>(count), type.kind(),
               op.native());
}

template <VendorPolicy P>
void Comm<P>::gather(const ByteBuffer& sendbuf, int count,
                     const Datatype& type, ByteBuffer& recvbuf,
                     int root) const {
  enter("gather");
  const std::size_t span = span_bytes(count, type, "gather");
  const std::byte* sp = buffer_address(sendbuf, span, "gather");
  std::byte* rp = getRank() == root
                      ? buffer_address(recvbuf,
                                       span * static_cast<std::size_t>(getSize()),
                                       "gather")
                      : nullptr;
  with_bytes(count, type,
             [&](auto&&... n) { native_.gather(sp, n..., rp, root); });
}

template <VendorPolicy P>
void Comm<P>::scatter(const ByteBuffer& sendbuf, int count,
                      const Datatype& type, ByteBuffer& recvbuf,
                      int root) const {
  enter("scatter");
  const std::size_t span = span_bytes(count, type, "scatter");
  const std::byte* sp =
      getRank() == root
          ? buffer_address(sendbuf, span * static_cast<std::size_t>(getSize()),
                           "scatter")
          : nullptr;
  std::byte* rp = buffer_address(recvbuf, span, "scatter");
  with_bytes(count, type,
             [&](auto&&... n) { native_.scatter(sp, n..., rp, root); });
}

template <VendorPolicy P>
void Comm<P>::allGather(const ByteBuffer& sendbuf, int count,
                        const Datatype& type, ByteBuffer& recvbuf) const {
  enter("allGather");
  const std::size_t span = span_bytes(count, type, "allGather");
  const std::byte* sp = buffer_address(sendbuf, span, "allGather");
  std::byte* rp = buffer_address(
      recvbuf, span * static_cast<std::size_t>(getSize()), "allGather");
  with_bytes(count, type,
             [&](auto&&... n) { native_.allgather(sp, n..., rp); });
}

template <VendorPolicy P>
void Comm<P>::allToAll(const ByteBuffer& sendbuf, int count,
                       const Datatype& type, ByteBuffer& recvbuf) const {
  enter("allToAll");
  const std::size_t total = span_bytes(count, type, "allToAll") *
                            static_cast<std::size_t>(getSize());
  const std::byte* sp = buffer_address(sendbuf, total, "allToAll");
  std::byte* rp = buffer_address(recvbuf, total, "allToAll");
  with_bytes(count, type,
             [&](auto&&... n) { native_.alltoall(sp, n..., rp); });
}

// --- Nonblocking collectives: ByteBuffer ----------------------------------------

template <VendorPolicy P>
Request Comm<P>::iBarrier() const {
  enter("iBarrier");
  return no_staging(native_.ibarrier());
}

template <VendorPolicy P>
Request Comm<P>::iBcast(ByteBuffer& buf, int count, const Datatype& type,
                        int root) const {
  enter("iBcast");
  std::byte* p = buffer_address(buf, span_bytes(count, type, "iBcast"),
                                "iBcast");
  return no_staging(with_bytes(
      count, type, [&](auto&&... n) { return native_.ibcast(p, n..., root); }));
}

template <VendorPolicy P>
Request Comm<P>::iReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                         int count, const Datatype& type, const Op& op,
                         int root) const {
  enter("iReduce");
  const std::size_t span = span_bytes(count, type, "iReduce");
  const std::byte* sp = buffer_address(sendbuf, span, "iReduce");
  // Non-root ranks may pass any recv buffer; only the root's is written.
  std::byte* rp =
      buffer_address(recvbuf, getRank() == root ? span : 0, "iReduce");
  return no_staging(with_elems(count, type, [&](auto&&... n) {
    return native_.ireduce(sp, rp, n..., op.native(), root);
  }));
}

template <VendorPolicy P>
Request Comm<P>::iAllReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                            int count, const Datatype& type,
                            const Op& op) const {
  enter("iAllReduce");
  const std::size_t span = span_bytes(count, type, "iAllReduce");
  const std::byte* sp = buffer_address(sendbuf, span, "iAllReduce");
  std::byte* rp = buffer_address(recvbuf, span, "iAllReduce");
  return no_staging(with_elems(count, type, [&](auto&&... n) {
    return native_.iallreduce(sp, rp, n..., op.native());
  }));
}

template <VendorPolicy P>
Request Comm<P>::iGather(const ByteBuffer& sendbuf, int count,
                         const Datatype& type, ByteBuffer& recvbuf,
                         int root) const {
  enter("iGather");
  const std::size_t span = span_bytes(count, type, "iGather");
  const std::byte* sp = buffer_address(sendbuf, span, "iGather");
  std::byte* rp = buffer_address(
      recvbuf,
      getRank() == root ? span * static_cast<std::size_t>(getSize()) : 0,
      "iGather");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.igather(sp, n..., rp, root);
  }));
}

template <VendorPolicy P>
Request Comm<P>::iScatter(const ByteBuffer& sendbuf, int count,
                          const Datatype& type, ByteBuffer& recvbuf,
                          int root) const {
  enter("iScatter");
  const std::size_t span = span_bytes(count, type, "iScatter");
  const std::byte* sp = buffer_address(
      sendbuf,
      getRank() == root ? span * static_cast<std::size_t>(getSize()) : 0,
      "iScatter");
  std::byte* rp = buffer_address(recvbuf, span, "iScatter");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.iscatter(sp, n..., rp, root);
  }));
}

template <VendorPolicy P>
Request Comm<P>::iAllGather(const ByteBuffer& sendbuf, int count,
                            const Datatype& type, ByteBuffer& recvbuf) const {
  enter("iAllGather");
  const std::size_t span = span_bytes(count, type, "iAllGather");
  const std::byte* sp = buffer_address(sendbuf, span, "iAllGather");
  std::byte* rp = buffer_address(
      recvbuf, span * static_cast<std::size_t>(getSize()), "iAllGather");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.iallgather(sp, n..., rp);
  }));
}

template <VendorPolicy P>
Request Comm<P>::iAllToAll(const ByteBuffer& sendbuf, int count,
                           const Datatype& type, ByteBuffer& recvbuf) const {
  enter("iAllToAll");
  const std::size_t total = span_bytes(count, type, "iAllToAll") *
                            static_cast<std::size_t>(getSize());
  const std::byte* sp = buffer_address(sendbuf, total, "iAllToAll");
  std::byte* rp = buffer_address(recvbuf, total, "iAllToAll");
  return no_staging(with_bytes(count, type, [&](auto&&... n) {
    return native_.ialltoall(sp, n..., rp);
  }));
}

// --- Vectored collectives: ByteBuffer -------------------------------------------

template <VendorPolicy P>
void Comm<P>::gatherv(const ByteBuffer& sendbuf, int sendcount,
                      const Datatype& type, ByteBuffer& recvbuf,
                      std::span<const int> recvcounts,
                      std::span<const int> displs, int root) const {
  enter("gatherv");
  basic_only(type, "gatherv");
  const std::size_t sbytes = count_of(sendcount, "gatherv") * type.size();
  const bool is_root = getRank() == root;
  const Layout recv = is_root ? Layout(recvcounts, displs, type.size(),
                                       getSize(), "gatherv")
                              : Layout();
  const std::byte* sp = buffer_address(sendbuf, sbytes, "gatherv");
  std::byte* rp =
      is_root ? buffer_address(recvbuf, recv.end, "gatherv") : nullptr;
  native_.gatherv(sp, sbytes, rp, recv.counts, recv.displs, root);
}

template <VendorPolicy P>
void Comm<P>::scatterv(const ByteBuffer& sendbuf,
                       std::span<const int> sendcounts,
                       std::span<const int> displs, const Datatype& type,
                       ByteBuffer& recvbuf, int recvcount, int root) const {
  enter("scatterv");
  basic_only(type, "scatterv");
  const std::size_t rbytes = count_of(recvcount, "scatterv") * type.size();
  const bool is_root = getRank() == root;
  const Layout send = is_root ? Layout(sendcounts, displs, type.size(),
                                       getSize(), "scatterv")
                              : Layout();
  const std::byte* sp =
      is_root ? buffer_address(sendbuf, send.end, "scatterv") : nullptr;
  std::byte* rp = buffer_address(recvbuf, rbytes, "scatterv");
  native_.scatterv(sp, send.counts, send.displs, rp, rbytes, root);
}

template <VendorPolicy P>
void Comm<P>::allGatherv(const ByteBuffer& sendbuf, int sendcount,
                         const Datatype& type, ByteBuffer& recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const int> displs) const {
  enter("allGatherv");
  basic_only(type, "allGatherv");
  const std::size_t sbytes = count_of(sendcount, "allGatherv") * type.size();
  const Layout recv(recvcounts, displs, type.size(), getSize(), "allGatherv");
  const std::byte* sp = buffer_address(sendbuf, sbytes, "allGatherv");
  std::byte* rp = buffer_address(recvbuf, recv.end, "allGatherv");
  native_.allgatherv(sp, sbytes, rp, recv.counts, recv.displs);
}

template <VendorPolicy P>
void Comm<P>::allToAllv(const ByteBuffer& sendbuf,
                        std::span<const int> sendcounts,
                        std::span<const int> sdispls, const Datatype& type,
                        ByteBuffer& recvbuf, std::span<const int> recvcounts,
                        std::span<const int> rdispls) const {
  enter("allToAllv");
  basic_only(type, "allToAllv");
  const Layout send(sendcounts, sdispls, type.size(), getSize(), "allToAllv");
  const Layout recv(recvcounts, rdispls, type.size(), getSize(), "allToAllv");
  const std::byte* sp = buffer_address(sendbuf, send.end, "allToAllv");
  std::byte* rp = buffer_address(recvbuf, recv.end, "allToAllv");
  native_.alltoallv(sp, send.counts, send.displs, rp, recv.counts,
                    recv.displs);
}

// --- One-sided window construction ----------------------------------------------

template <VendorPolicy P>
Win<P> Comm<P>::winCreate(ByteBuffer& buf, std::size_t bytes) const {
  enter("winCreate");
  std::byte* base = buffer_address(buf, bytes, "winCreate");
  return Win<P>(*this, native_.win_create(base, bytes));
}

template <VendorPolicy P>
Win<P> Comm<P>::winAllocate(std::size_t bytes) const {
  enter("winAllocate");
  return Win<P>(*this, native_.win_allocate(bytes));
}

// --- Communicator management ------------------------------------------------------

template <VendorPolicy P>
Comm<P> Comm<P>::dup() const {
  enter("dup");
  return Comm(env_, native_.dup());
}

template <VendorPolicy P>
Comm<P> Comm<P>::split(int color, int key) const {
  enter("split");
  minimpi::Comm sub = native_.split(color, key);
  if (!sub.valid()) return Comm{};
  return Comm(env_, sub);
}

// --- Fault tolerance (ULFM) --------------------------------------------------

template <VendorPolicy P>
void Comm<P>::setErrhandler(Errhandler eh) const {
  enter("setErrhandler");
  native_.set_errhandler(eh);
}

template <VendorPolicy P>
Errhandler Comm<P>::getErrhandler() const {
  JHPC_REQUIRE(valid(), "getErrhandler on invalid communicator");
  return native_.errhandler();
}

template <VendorPolicy P>
void Comm<P>::revoke() const {
  enter("revoke");
  native_.revoke();
}

template <VendorPolicy P>
Comm<P> Comm<P>::shrink() const {
  enter("shrink");
  return Comm(env_, native_.shrink());
}

template <VendorPolicy P>
int Comm<P>::agree(int flag) const {
  enter("agree");
  return native_.agree(flag);
}

template <VendorPolicy P>
std::vector<int> Comm<P>::getFailedRanks() const {
  JHPC_REQUIRE(valid(), "getFailedRanks on invalid communicator");
  return native_.failed_ranks();
}

template class Comm<kMv2j>;
template class Comm<kOmpij>;

}  // namespace jhpc::bindings
