// Java-array paths of the binding core. Every call follows one pipeline:
// check the arguments, one JNI crossing, stage each array operand in
// native memory, the native call on the staged pointers, and land what
// the native side wrote back in the receiving array. Only the staging
// step depends on the vendor (VendorPolicy::staging):
//
//   kPooled  — the paper's Figure 3, built on the mpjbuf buffering layer:
//              a pooled direct buffer, bulk-copied for a send, read back
//              after a receive. Because the staging buffer can outlive
//              the call inside a Request, the same pipeline supports
//              non-blocking operations, derived datatypes and offsets.
//   kPerCall — what the Open MPI Java bindings do on every call: a
//              message-sized native copy through Get<Type>ArrayRegion
//              (always, even for a pure receive) and Set<Type>ArrayRegion
//              back. Non-blocking array operations are refused.
#include <algorithm>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "detail.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/comm.hpp"
#include "jhpc/mv2j/env.hpp"

namespace jhpc::bindings {

namespace {

using detail::basic_only;
using detail::count_of;
using detail::Layout;
using mv2j::kind_of;

/// How an array operand is used by one native call.
enum class Use {
  kIn,       ///< read by the native side (send buffers)
  kOut,      ///< written by the native side (receive buffers)
  kScratch,  ///< native memory the array never sees (non-root reduce)
  kNone,     ///< not significant on this rank: no staging, null pointer
};

/// The native staging of one array operand for one call: `count`
/// elements of `type` from element `offset` of the array.
template <VendorPolicy P, JavaPrimitive T>
class Stage {
 public:
  Stage(Env<P>& env, const JArray<T>& array, std::size_t offset,
        std::size_t count, const Datatype& type, Use use)
      : jni_(env.jvm().jni()), offset_(offset), use_(use) {
    if (use == Use::kNone) return;
    const std::size_t bytes = count * type.size();
    if constexpr (kPooled<P>) {
      staged_ = env.pool().get(bytes);
      if (use != Use::kIn) return;
      if (type.isBasic()) {
        staged_.write(array, offset, count);
      } else {
        // Derived types are packed element by element: the gather the
        // buffering layer exists for.
        type.native().pack(array.raw_address() + offset * sizeof(T),
                           staged_.reserve(bytes), static_cast<int>(count));
      }
      staged_.commit();
    } else {
      staged_.resize(bytes / sizeof(T));
      // Copied in unconditionally: the binding cannot know whether the
      // native routine reads the buffer.
      if (use != Use::kScratch)
        jni_.get_array_region(array, offset, staged_.size(), staged_.data());
    }
  }

  void* data() {
    if (use_ == Use::kNone) return nullptr;
    if constexpr (kPooled<P>) {
      return staged_.native_address();
    } else {
      return staged_.data();
    }
  }

  /// After the native call: land the `bytes` it wrote in `array` (kOut
  /// only). Per-call staging copies the whole region back.
  void finish(JArray<T>& array, std::size_t bytes, const Datatype& type) {
    if (use_ != Use::kOut) return;
    if constexpr (kPooled<P>) {
      staged_.notify_native_write(bytes);
      if (type.isBasic()) {
        staged_.read(array, offset_, bytes / sizeof(T));
      } else {
        type.native().unpack(staged_.consume(bytes),
                             array.raw_address() + offset_ * sizeof(T),
                             static_cast<int>(bytes / type.size()));
      }
    } else {
      jni_.set_array_region(array, offset_, staged_.size(), staged_.data());
    }
  }

  /// finish() for a vectored receive of basic elements: land only the
  /// blocks of `recv`, so the elements between them keep their values.
  /// (Per-call staging copied the whole region in, gaps included.)
  void finish_blocks(JArray<T>& array, const Layout& recv) {
    if (use_ != Use::kOut) return;
    if constexpr (kPooled<P>) {
      staged_.notify_native_write(recv.end);
      std::vector<std::size_t> order(recv.counts.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return recv.displs[a] < recv.displs[b];
      });
      std::size_t at = 0;  // the read cursor, in bytes
      for (const std::size_t i : order) {
        if (recv.displs[i] < at) continue;  // overlapping blocks: erroneous
        staged_.consume(recv.displs[i] - at);
        staged_.read(array, offset_ + recv.displs[i] / sizeof(T),
                     recv.counts[i] / sizeof(T));
        at = recv.displs[i] + recv.counts[i];
      }
    } else {
      jni_.set_array_region(array, offset_, staged_.size(), staged_.data());
    }
  }

 private:
  minijvm::JniEnv& jni_;
  std::size_t offset_;
  Use use_;
  /// A pooled direct buffer, or the per-call native copy.
  std::conditional_t<kPooled<P>, mpjbuf::Buffer, std::vector<T>> staged_;
};

/// Validate `count` elements of `type` at element `offset` of `buf`. The
/// span check uses the type's extent (slightly conservative for trailing
/// strided gaps).
template <JavaPrimitive T>
void check_array(const JArray<T>& buf, std::size_t offset, std::size_t count,
                 const Datatype& type, const char* what) {
  JHPC_REQUIRE(kind_of<T>() == type.leafKind(),
               std::string(what) + ": datatype does not match array type");
  JHPC_REQUIRE(offset * sizeof(T) + count * type.extent() <=
                   buf.length() * sizeof(T),
               std::string(what) + ": offset+count exceeds array length");
}

/// A point-to-point operand. Derived datatypes need pooled staging; the
/// per-call baseline only accepts the array's own basic type.
template <VendorPolicy P, JavaPrimitive T>
void check_p2p(const JArray<T>& buf, int offset, int count,
               const Datatype& type, const char* what) {
  JHPC_REQUIRE(offset >= 0, std::string(what) + ": negative offset");
  if constexpr (!kPooled<P>) {
    JHPC_REQUIRE(type.isBasic(),
                 std::string(what) + ": datatype does not match array type");
  }
  check_array(buf, static_cast<std::size_t>(offset), count_of(count, what),
              type, what);
}

/// A collective operand: basic datatypes only (see detail::basic_only).
template <JavaPrimitive T>
void check_coll(const JArray<T>& buf, std::size_t count,
                const Datatype& type, const char* what) {
  basic_only(type, what);
  check_array(buf, 0, count, type, what);
}

constexpr const char* kNoNonblockingArrays =
    "Open MPI-J does not support Java arrays with non-blocking "
    "point-to-point operations (use a direct ByteBuffer)";

}  // namespace

// --- Point-to-point ----------------------------------------------------------

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::send_at(const JArray<T>& buf, int offset, int count,
                      const Datatype& type, int dest, int tag) const {
  enter("send");
  check_p2p<P>(buf, offset, count, type, "send");
  Stage<P, T> s(*env_, buf, static_cast<std::size_t>(offset),
                static_cast<std::size_t>(count), type, Use::kIn);
  native_.send(s.data(), static_cast<std::size_t>(count) * type.size(), dest,
               tag);
}

template <VendorPolicy P>
template <JavaPrimitive T>
Status Comm<P>::recv_at(JArray<T>& buf, int offset, int count,
                        const Datatype& type, int source, int tag) const {
  enter("recv");
  check_p2p<P>(buf, offset, count, type, "recv");
  Stage<P, T> s(*env_, buf, static_cast<std::size_t>(offset),
                static_cast<std::size_t>(count), type, Use::kOut);
  minimpi::Status st;
  native_.recv(s.data(), static_cast<std::size_t>(count) * type.size(),
               source, tag, &st);
  s.finish(buf, st.count_bytes, type);
  return Status(st);
}

template <VendorPolicy P>
template <JavaPrimitive T>
Request Comm<P>::isend_at(const JArray<T>& buf, int offset, int count,
                          const Datatype& type, int dest, int tag) const {
  if constexpr (!kPooled<P>) {
    throw UnsupportedOperationError(kNoNonblockingArrays);
  } else {
    enter("iSend");
    check_p2p<P>(buf, offset, count, type, "iSend");
    auto s = std::make_shared<Stage<P, T>>(
        *env_, buf, static_cast<std::size_t>(offset),
        static_cast<std::size_t>(count), type, Use::kIn);
    minimpi::Request r = native_.isend(
        s->data(), static_cast<std::size_t>(count) * type.size(), dest, tag);
    auto completion = std::make_shared<Request::CompletionState>();
    // Nothing to copy back; the completion merely keeps the staging
    // buffer alive until the native send no longer needs it.
    completion->on_complete = [s](const minimpi::Status&) {};
    return Request(std::move(r), std::move(completion));
  }
}

template <VendorPolicy P>
template <JavaPrimitive T>
Request Comm<P>::irecv_at(JArray<T>& buf, int offset, int count,
                          const Datatype& type, int source, int tag) const {
  if constexpr (!kPooled<P>) {
    throw UnsupportedOperationError(kNoNonblockingArrays);
  } else {
    enter("iRecv");
    check_p2p<P>(buf, offset, count, type, "iRecv");
    auto s = std::make_shared<Stage<P, T>>(
        *env_, buf, static_cast<std::size_t>(offset),
        static_cast<std::size_t>(count), type, Use::kOut);
    minimpi::Request r = native_.irecv(
        s->data(), static_cast<std::size_t>(count) * type.size(), source, tag);
    auto completion = std::make_shared<Request::CompletionState>();
    // The array handle is shared: it keeps the array alive until then.
    completion->on_complete = [s, target = buf,
                               type](const minimpi::Status& st) mutable {
      s->finish(target, st.count_bytes, type);
    };
    return Request(std::move(r), std::move(completion));
  }
}

// --- Blocking collectives -------------------------------------------------------

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::bcast(JArray<T>& buf, int count, const Datatype& type,
                    int root) const {
  enter("bcast");
  const std::size_t n = count_of(count, "bcast");
  check_coll(buf, n, type, "bcast");
  Stage<P, T> s(*env_, buf, 0, n, type,
                getRank() == root ? Use::kIn : Use::kOut);
  native_.bcast(s.data(), n * sizeof(T), root);
  s.finish(buf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::reduce(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                     const Datatype& type, const Op& op, int root) const {
  enter("reduce");
  const std::size_t n = count_of(count, "reduce");
  const bool is_root = getRank() == root;
  check_coll(sendbuf, n, type, "reduce");
  if (is_root) check_coll(recvbuf, n, type, "reduce(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, n, type,
                is_root ? Use::kOut : Use::kScratch);
  native_.reduce(s.data(), r.data(), n, type.kind(), op.native(), root);
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::allReduce(const JArray<T>& sendbuf, JArray<T>& recvbuf,
                        int count, const Datatype& type, const Op& op) const {
  enter("allReduce");
  const std::size_t n = count_of(count, "allReduce");
  check_coll(sendbuf, n, type, "allReduce");
  check_coll(recvbuf, n, type, "allReduce(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, n, type, Use::kOut);
  native_.allreduce(s.data(), r.data(), n, type.kind(), op.native());
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::reduceScatterBlock(const JArray<T>& sendbuf, JArray<T>& recvbuf,
                                 int recvcount, const Datatype& type,
                                 const Op& op) const {
  enter("reduceScatterBlock");
  const std::size_t n = count_of(recvcount, "reduceScatterBlock");
  const std::size_t total = n * static_cast<std::size_t>(getSize());
  check_coll(recvbuf, n, type, "reduceScatterBlock(recv)");
  check_coll(sendbuf, total, type, "reduceScatterBlock");
  Stage<P, T> s(*env_, sendbuf, 0, total, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, n, type, Use::kOut);
  native_.reduce_scatter_block(s.data(), r.data(), n, type.kind(),
                               op.native());
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::scan(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                   const Datatype& type, const Op& op) const {
  enter("scan");
  const std::size_t n = count_of(count, "scan");
  check_coll(sendbuf, n, type, "scan");
  check_coll(recvbuf, n, type, "scan(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, n, type, Use::kOut);
  native_.scan(s.data(), r.data(), n, type.kind(), op.native());
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::gather(const JArray<T>& sendbuf, int count, const Datatype& type,
                     JArray<T>& recvbuf, int root) const {
  enter("gather");
  const std::size_t n = count_of(count, "gather");
  const std::size_t total = n * static_cast<std::size_t>(getSize());
  const bool is_root = getRank() == root;
  check_coll(sendbuf, n, type, "gather");
  if (is_root) check_coll(recvbuf, total, type, "gather(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, total, type,
                is_root ? Use::kOut : Use::kNone);
  native_.gather(s.data(), n * sizeof(T), r.data(), root);
  r.finish(recvbuf, total * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::scatter(const JArray<T>& sendbuf, int count,
                      const Datatype& type, JArray<T>& recvbuf,
                      int root) const {
  enter("scatter");
  const std::size_t n = count_of(count, "scatter");
  const std::size_t total = n * static_cast<std::size_t>(getSize());
  const bool is_root = getRank() == root;
  check_coll(recvbuf, n, type, "scatter(recv)");
  if (is_root) check_coll(sendbuf, total, type, "scatter");
  Stage<P, T> s(*env_, sendbuf, 0, total, type,
                is_root ? Use::kIn : Use::kNone);
  Stage<P, T> r(*env_, recvbuf, 0, n, type, Use::kOut);
  native_.scatter(s.data(), n * sizeof(T), r.data(), root);
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::allGather(const JArray<T>& sendbuf, int count,
                        const Datatype& type, JArray<T>& recvbuf) const {
  enter("allGather");
  const std::size_t n = count_of(count, "allGather");
  const std::size_t total = n * static_cast<std::size_t>(getSize());
  check_coll(sendbuf, n, type, "allGather");
  check_coll(recvbuf, total, type, "allGather(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, total, type, Use::kOut);
  native_.allgather(s.data(), n * sizeof(T), r.data());
  r.finish(recvbuf, total * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::allToAll(const JArray<T>& sendbuf, int count,
                       const Datatype& type, JArray<T>& recvbuf) const {
  enter("allToAll");
  const std::size_t n = count_of(count, "allToAll");
  const std::size_t total = n * static_cast<std::size_t>(getSize());
  check_coll(sendbuf, total, type, "allToAll");
  check_coll(recvbuf, total, type, "allToAll(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, total, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, total, type, Use::kOut);
  native_.alltoall(s.data(), n * sizeof(T), r.data());
  r.finish(recvbuf, total * sizeof(T), type);
}

// --- Vectored collectives ----------------------------------------------------------

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::gatherv(const JArray<T>& sendbuf, int sendcount,
                      const Datatype& type, JArray<T>& recvbuf,
                      std::span<const int> recvcounts,
                      std::span<const int> displs, int root) const {
  enter("gatherv");
  const std::size_t n = count_of(sendcount, "gatherv");
  const bool is_root = getRank() == root;
  check_coll(sendbuf, n, type, "gatherv");
  const Layout recv =
      is_root ? Layout(recvcounts, displs, sizeof(T), getSize(), "gatherv")
              : Layout();
  if (is_root) check_coll(recvbuf, recv.end / sizeof(T), type, "gatherv");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, recv.end / sizeof(T), type,
                is_root ? Use::kOut : Use::kNone);
  native_.gatherv(s.data(), n * sizeof(T), r.data(), recv.counts,
                  recv.displs, root);
  r.finish_blocks(recvbuf, recv);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::scatterv(const JArray<T>& sendbuf,
                       std::span<const int> sendcounts,
                       std::span<const int> displs, const Datatype& type,
                       JArray<T>& recvbuf, int recvcount, int root) const {
  enter("scatterv");
  const std::size_t n = count_of(recvcount, "scatterv");
  const bool is_root = getRank() == root;
  check_coll(recvbuf, n, type, "scatterv(recv)");
  const Layout send =
      is_root ? Layout(sendcounts, displs, sizeof(T), getSize(), "scatterv")
              : Layout();
  if (is_root) check_coll(sendbuf, send.end / sizeof(T), type, "scatterv");
  Stage<P, T> s(*env_, sendbuf, 0, send.end / sizeof(T), type,
                is_root ? Use::kIn : Use::kNone);
  Stage<P, T> r(*env_, recvbuf, 0, n, type, Use::kOut);
  native_.scatterv(s.data(), send.counts, send.displs, r.data(),
                   n * sizeof(T), root);
  r.finish(recvbuf, n * sizeof(T), type);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::allGatherv(const JArray<T>& sendbuf, int sendcount,
                         const Datatype& type, JArray<T>& recvbuf,
                         std::span<const int> recvcounts,
                         std::span<const int> displs) const {
  enter("allGatherv");
  const std::size_t n = count_of(sendcount, "allGatherv");
  check_coll(sendbuf, n, type, "allGatherv");
  const Layout recv(recvcounts, displs, sizeof(T), getSize(), "allGatherv");
  check_coll(recvbuf, recv.end / sizeof(T), type, "allGatherv(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, n, type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, recv.end / sizeof(T), type, Use::kOut);
  native_.allgatherv(s.data(), n * sizeof(T), r.data(), recv.counts,
                     recv.displs);
  r.finish_blocks(recvbuf, recv);
}

template <VendorPolicy P>
template <JavaPrimitive T>
void Comm<P>::allToAllv(const JArray<T>& sendbuf,
                        std::span<const int> sendcounts,
                        std::span<const int> sdispls, const Datatype& type,
                        JArray<T>& recvbuf, std::span<const int> recvcounts,
                        std::span<const int> rdispls) const {
  enter("allToAllv");
  basic_only(type, "allToAllv");
  const Layout send(sendcounts, sdispls, sizeof(T), getSize(), "allToAllv");
  const Layout recv(recvcounts, rdispls, sizeof(T), getSize(), "allToAllv");
  check_coll(sendbuf, send.end / sizeof(T), type, "allToAllv");
  check_coll(recvbuf, recv.end / sizeof(T), type, "allToAllv(recv)");
  Stage<P, T> s(*env_, sendbuf, 0, send.end / sizeof(T), type, Use::kIn);
  Stage<P, T> r(*env_, recvbuf, 0, recv.end / sizeof(T), type, Use::kOut);
  native_.alltoallv(s.data(), send.counts, send.displs, r.data(), recv.counts,
                    recv.displs);
  r.finish_blocks(recvbuf, recv);
}

// --- Explicit instantiations: both vendors x the eight Java primitives -------

#define JHPC_BINDINGS_INSTANTIATE(P, T)                                       \
  template void Comm<P>::send_at<T>(const JArray<T>&, int, int,               \
                                    const Datatype&, int, int) const;         \
  template Status Comm<P>::recv_at<T>(JArray<T>&, int, int, const Datatype&,  \
                                      int, int) const;                        \
  template Request Comm<P>::isend_at<T>(const JArray<T>&, int, int,           \
                                        const Datatype&, int, int) const;     \
  template Request Comm<P>::irecv_at<T>(JArray<T>&, int, int,                 \
                                        const Datatype&, int, int) const;     \
  template void Comm<P>::bcast<T>(JArray<T>&, int, const Datatype&, int)      \
      const;                                                                  \
  template void Comm<P>::reduce<T>(const JArray<T>&, JArray<T>&, int,         \
                                   const Datatype&, const Op&, int) const;    \
  template void Comm<P>::allReduce<T>(const JArray<T>&, JArray<T>&, int,      \
                                      const Datatype&, const Op&) const;      \
  template void Comm<P>::reduceScatterBlock<T>(                               \
      const JArray<T>&, JArray<T>&, int, const Datatype&, const Op&) const;   \
  template void Comm<P>::scan<T>(const JArray<T>&, JArray<T>&, int,           \
                                 const Datatype&, const Op&) const;           \
  template void Comm<P>::gather<T>(const JArray<T>&, int, const Datatype&,    \
                                   JArray<T>&, int) const;                    \
  template void Comm<P>::scatter<T>(const JArray<T>&, int, const Datatype&,   \
                                    JArray<T>&, int) const;                   \
  template void Comm<P>::allGather<T>(const JArray<T>&, int, const Datatype&, \
                                      JArray<T>&) const;                      \
  template void Comm<P>::allToAll<T>(const JArray<T>&, int, const Datatype&,  \
                                     JArray<T>&) const;                       \
  template void Comm<P>::gatherv<T>(const JArray<T>&, int, const Datatype&,   \
                                    JArray<T>&, std::span<const int>,         \
                                    std::span<const int>, int) const;         \
  template void Comm<P>::scatterv<T>(const JArray<T>&, std::span<const int>,  \
                                     std::span<const int>, const Datatype&,   \
                                     JArray<T>&, int, int) const;             \
  template void Comm<P>::allGatherv<T>(                                       \
      const JArray<T>&, int, const Datatype&, JArray<T>&,                     \
      std::span<const int>, std::span<const int>) const;                      \
  template void Comm<P>::allToAllv<T>(                                        \
      const JArray<T>&, std::span<const int>, std::span<const int>,           \
      const Datatype&, JArray<T>&, std::span<const int>,                      \
      std::span<const int>) const;

#define JHPC_BINDINGS_INSTANTIATE_ALL(P)            \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jbyte)      \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jboolean)   \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jchar)      \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jshort)     \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jint)       \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jlong)      \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jfloat)     \
  JHPC_BINDINGS_INSTANTIATE(P, minijvm::jdouble)

JHPC_BINDINGS_INSTANTIATE_ALL(kMv2j)
JHPC_BINDINGS_INSTANTIATE_ALL(kOmpij)
#undef JHPC_BINDINGS_INSTANTIATE_ALL
#undef JHPC_BINDINGS_INSTANTIATE

}  // namespace jhpc::bindings
