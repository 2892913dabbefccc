// The native environment: the part of the binding Env/Comm surface that
// the OMB bodies call, over minimpi::Comm directly. The same bodies then
// measure the native library with no JVM, JNI or staging underneath —
// the paper's Figure 11 baseline and the native series of every figure.
//
// Each method is one inline forward into minimpi::Comm: no allocation,
// virtual call or std::function on a timed path, so the native series
// pays nothing that would shrink the binding overhead Figure 11 reports.
// Payloads are plain vectors; a Datatype argument gives the element size
// (and, for reductions, the kind), as it does for a direct ByteBuffer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/mv2j/types.hpp"

namespace jhpc::ombj {

/// A minimpi request under the binding's completion name.
struct NativeRequest {
  minimpi::Request native;
  void waitFor() { native.wait(); }
};

/// The binding Comm surface the OMB bodies use, over minimpi::Comm.
class NativeComm {
 public:
  explicit NativeComm(minimpi::Comm comm) : comm_(std::move(comm)) {}

  int getRank() const { return comm_.rank(); }
  int getSize() const { return comm_.size(); }
  const minimpi::Comm& native() const { return comm_; }

  template <typename T>
  void send(const std::vector<T>& buf, int count, const mv2j::Datatype& type,
            int dest, int tag) const {
    comm_.send(buf.data(), bytes(count, type), dest, tag);
  }
  template <typename T>
  void recv(std::vector<T>& buf, int count, const mv2j::Datatype& type,
            int source, int tag) const {
    comm_.recv(buf.data(), bytes(count, type), source, tag);
  }
  template <typename T>
  NativeRequest iSend(const std::vector<T>& buf, int count,
                      const mv2j::Datatype& type, int dest, int tag) const {
    return {comm_.isend(buf.data(), bytes(count, type), dest, tag)};
  }
  template <typename T>
  NativeRequest iRecv(std::vector<T>& buf, int count,
                      const mv2j::Datatype& type, int source, int tag) const {
    return {comm_.irecv(buf.data(), bytes(count, type), source, tag)};
  }

  void barrier() const { comm_.barrier(); }
  template <typename T>
  void bcast(std::vector<T>& buf, int count, const mv2j::Datatype& type,
             int root) const {
    comm_.bcast(buf.data(), bytes(count, type), root);
  }
  template <typename T>
  void reduce(const std::vector<T>& sendbuf, std::vector<T>& recvbuf,
              int count, const mv2j::Datatype& type, const mv2j::Op& op,
              int root) const {
    comm_.reduce(sendbuf.data(), recvbuf.data(), elems(count), type.kind(),
                 op.native(), root);
  }
  template <typename T>
  void allReduce(const std::vector<T>& sendbuf, std::vector<T>& recvbuf,
                 int count, const mv2j::Datatype& type,
                 const mv2j::Op& op) const {
    comm_.allreduce(sendbuf.data(), recvbuf.data(), elems(count),
                    type.kind(), op.native());
  }
  template <typename T>
  void gather(const std::vector<T>& sendbuf, int count,
              const mv2j::Datatype& type, std::vector<T>& recvbuf,
              int root) const {
    comm_.gather(sendbuf.data(), bytes(count, type), recvbuf.data(), root);
  }
  template <typename T>
  void scatter(const std::vector<T>& sendbuf, int count,
               const mv2j::Datatype& type, std::vector<T>& recvbuf,
               int root) const {
    comm_.scatter(sendbuf.data(), bytes(count, type), recvbuf.data(), root);
  }
  template <typename T>
  void allGather(const std::vector<T>& sendbuf, int count,
                 const mv2j::Datatype& type, std::vector<T>& recvbuf) const {
    comm_.allgather(sendbuf.data(), bytes(count, type), recvbuf.data());
  }
  template <typename T>
  void allToAll(const std::vector<T>& sendbuf, int count,
                const mv2j::Datatype& type, std::vector<T>& recvbuf) const {
    comm_.alltoall(sendbuf.data(), bytes(count, type), recvbuf.data());
  }
  template <typename T>
  NativeRequest iBcast(std::vector<T>& buf, int count,
                       const mv2j::Datatype& type, int root) const {
    return {comm_.ibcast(buf.data(), bytes(count, type), root)};
  }
  template <typename T>
  NativeRequest iAllReduce(const std::vector<T>& sendbuf,
                           std::vector<T>& recvbuf, int count,
                           const mv2j::Datatype& type,
                           const mv2j::Op& op) const {
    return {comm_.iallreduce(sendbuf.data(), recvbuf.data(), elems(count),
                             type.kind(), op.native())};
  }

  // ULFM, for the resilient sweep.
  void setErrhandler(minimpi::Errhandler eh) const {
    comm_.set_errhandler(eh);
  }
  NativeComm shrink() const { return NativeComm(comm_.shrink()); }

 private:
  static std::size_t elems(int count) {
    return static_cast<std::size_t>(count);
  }
  static std::size_t bytes(int count, const mv2j::Datatype& type) {
    return elems(count) * type.size();
  }

  minimpi::Comm comm_;
};

/// One rank's native environment: COMM_WORLD and plain-memory payloads.
class NativeEnv {
 public:
  explicit NativeEnv(const minimpi::Comm& world) : world_(world) {}

  NativeComm& COMM_WORLD() { return world_; }
  std::vector<std::byte> newDirectBuffer(std::size_t bytes) {
    return std::vector<std::byte>(bytes);
  }
  template <typename T>
  std::vector<T> newArray(std::size_t n) {
    return std::vector<T>(n);
  }

 private:
  NativeComm world_;
};

}  // namespace jhpc::ombj
