// One-sided (mpi.Win) paths of the binding core: the Figure-4 pipeline
// applied to RMA — one JNI crossing per call, the direct buffer's stable
// pointer handed straight to the native window engine.
#include "jhpc/mv2j/win.hpp"

#include <vector>

#include "detail.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/env.hpp"

namespace jhpc::bindings {

template <VendorPolicy P>
minijvm::JniEnv& Win<P>::enter(const char* what) const {
  JHPC_REQUIRE(valid(), std::string(what) + " on invalid window");
  minijvm::JniEnv& jni = comm_.env_->jvm().jni();
  jni.crossing();
  return jni;
}

template <VendorPolicy P>
std::byte* Win<P>::origin_address(const ByteBuffer& buf, int count,
                                  const Datatype& type,
                                  const char* what) const {
  minijvm::JniEnv& jni = enter(what);
  // Open MPI-J walks a Datatype/Win object graph on every call.
  if constexpr (P.marshal_per_call) jni.handle_check();
  // Origins are always packed payloads (the window engine packs/scatters
  // derived layouts on the target side), so capacity checks use size().
  return comm_.buffer_address(
      buf, detail::count_of(count, what) * type.size(), what);
}

template <VendorPolicy P>
void Win<P>::put(const ByteBuffer& origin, int count, const Datatype& type,
                 int targetRank, std::size_t targetOffset) const {
  const std::byte* p = origin_address(origin, count, type, "Win.put");
  if (type.isBasic()) {
    native_.put(p, static_cast<std::size_t>(count) * type.size(), targetRank,
                targetOffset);
  } else {
    native_.put(p, count, type.native(), targetRank, targetOffset,
                type.native());
  }
}

template <VendorPolicy P>
void Win<P>::put(const ByteBuffer& origin, int count, const Datatype& type,
                 int targetRank, std::size_t targetOffset,
                 const Datatype& targetType) const {
  const std::byte* p = origin_address(origin, count, type, "Win.put");
  native_.put(p, count, type.native(), targetRank, targetOffset,
              targetType.native());
}

template <VendorPolicy P>
void Win<P>::get(ByteBuffer& origin, int count, const Datatype& type,
                 int targetRank, std::size_t targetOffset) const {
  std::byte* p = origin_address(origin, count, type, "Win.get");
  if (type.isBasic()) {
    native_.get(p, static_cast<std::size_t>(count) * type.size(), targetRank,
                targetOffset);
  } else {
    native_.get(p, count, type.native(), targetRank, targetOffset,
                type.native());
  }
}

template <VendorPolicy P>
void Win<P>::get(ByteBuffer& origin, int count, const Datatype& type,
                 int targetRank, std::size_t targetOffset,
                 const Datatype& targetType) const {
  std::byte* p = origin_address(origin, count, type, "Win.get");
  native_.get(p, count, type.native(), targetRank, targetOffset,
              targetType.native());
}

template <VendorPolicy P>
void Win<P>::accumulate(const ByteBuffer& origin, int count,
                        const Datatype& type, const Op& op, int targetRank,
                        std::size_t targetOffset) const {
  const std::byte* p = origin_address(origin, count, type, "Win.accumulate");
  native_.accumulate(p, count, type.native(), op.native(), targetRank,
                     targetOffset);
}

template <VendorPolicy P>
void Win<P>::fetchOp(const ByteBuffer& value, ByteBuffer& result,
                     const Datatype& type, const Op& op, int targetRank,
                     std::size_t targetOffset) const {
  JHPC_REQUIRE(type.isBasic(), "Win.fetchOp requires a basic datatype");
  const std::byte* v = origin_address(value, 1, type, "Win.fetchOp");
  std::byte* r = comm_.buffer_address(result, type.size(), "Win.fetchOp");
  native_.fetch_op(v, r, type.kind(), op.native(), targetRank, targetOffset);
}

template <VendorPolicy P>
void Win<P>::fence() const {
  enter("fence");
  native_.fence();
}

template <VendorPolicy P>
void Win<P>::post(std::span<const int> group) const {
  enter("post");
  native_.post(std::vector<int>(group.begin(), group.end()));
}

template <VendorPolicy P>
void Win<P>::start(std::span<const int> group) const {
  enter("start");
  native_.start(std::vector<int>(group.begin(), group.end()));
}

template <VendorPolicy P>
void Win<P>::complete() const {
  enter("complete");
  native_.complete();
}

template <VendorPolicy P>
void Win<P>::waitFor() const {
  enter("waitFor");
  native_.wait();
}

template <VendorPolicy P>
void Win<P>::lock(minimpi::LockType type, int targetRank) const {
  enter("lock");
  native_.lock(type, targetRank);
}

template <VendorPolicy P>
void Win<P>::unlock(int targetRank) const {
  enter("unlock");
  native_.unlock(targetRank);
}

template <VendorPolicy P>
void Win<P>::lockAll() const {
  enter("lockAll");
  native_.lock_all();
}

template <VendorPolicy P>
void Win<P>::unlockAll() const {
  enter("unlockAll");
  native_.unlock_all();
}

template <VendorPolicy P>
void Win<P>::free() {
  enter("free");
  native_.free();
  comm_ = Comm<P>();
}

template class Win<kMv2j>;
template class Win<kOmpij>;

}  // namespace jhpc::bindings
