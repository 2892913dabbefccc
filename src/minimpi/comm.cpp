#include "jhpc/minimpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "detail/coll.hpp"
#include "detail/coll_hier.hpp"
#include "detail/transport.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {

namespace {

void check_valid(const detail::UniverseImpl* impl) {
  JHPC_REQUIRE(impl != nullptr, "operation on an invalid communicator");
}

void check_peer(int peer, int size, const char* what) {
  JHPC_REQUIRE(peer >= 0 && peer < size,
               std::string(what) + ": peer rank out of range");
}

void check_tag_send(int tag) {
  // Tags at and above kTagBase (2^28) are reserved for the collective
  // algorithms; letting user traffic in there could cross-match with an
  // in-flight collective on the same communicator. Internal callers hold
  // an InternalTagScope.
  JHPC_REQUIRE(tag >= 0, "send tag must be non-negative");
  JHPC_REQUIRE(tag <= kMaxUserTag || detail::internal_tags_allowed(),
               "send tag must be <= kMaxUserTag (2^28 - 1): tags above it "
               "are reserved for collectives");
}

void check_tag_recv(int tag) {
  JHPC_REQUIRE(tag >= 0 || tag == kAnyTag,
               "recv tag must be non-negative or kAnyTag");
  JHPC_REQUIRE(tag <= kMaxUserTag || detail::internal_tags_allowed(),
               "recv tag must be <= kMaxUserTag (2^28 - 1): tags above it "
               "are reserved for collectives");
}

thread_local int internal_tag_depth = 0;

std::size_t typed_bytes(int count, const Datatype& type, const char* what) {
  JHPC_REQUIRE(count >= 0,
               std::string(what) + ": negative element count");
  return type.size() * static_cast<std::size_t>(count);
}

// RAII scratch drawn from the transport slab recycler for the typed
// collective pack shim: steady state is a free-list pop, no allocation.
// Acquire and release both run on the owning rank's thread (true for
// every blocking collective, which runs start to finish on its rank).
class SlabScratch {
 public:
  SlabScratch(detail::UniverseImpl* impl, int world, std::size_t bytes)
      : impl_(impl), world_(world),
        slab_(impl->slab.acquire(bytes, world)) {}
  ~SlabScratch() { impl_->slab.release(std::move(slab_), world_); }
  SlabScratch(const SlabScratch&) = delete;
  SlabScratch& operator=(const SlabScratch&) = delete;

  std::byte* data() { return slab_.data(); }

 private:
  detail::UniverseImpl* impl_;
  int world_;
  detail::Slab slab_;
};

// A blocking collective that loses a rank mid-algorithm leaves peers
// parked in later rounds of the pattern with nobody left to wake them.
// Auto-revoking the communicator on the first RankFailedError (as ULFM
// implementations do for collectives) sweeps those parked operations, so
// every rank gets a prompt RankFailedError or CommRevokedError instead of
// a hang. Point-to-point deliberately does not auto-revoke: a dead peer
// there concerns only the caller.
template <typename Fn>
void revoke_on_failure(detail::UniverseImpl* impl, int cid, int my_world,
                       Fn&& fn) {
  try {
    fn();
  } catch (const RankFailedError&) {
    impl->revoke_comm(cid, my_world);
    throw;
  }
}

}  // namespace

namespace detail {

InternalTagScope::InternalTagScope() { ++internal_tag_depth; }
InternalTagScope::~InternalTagScope() { --internal_tag_depth; }

bool internal_tags_allowed() { return internal_tag_depth > 0; }

}  // namespace detail

namespace detail {

ObsAccess obs_access(const Comm& c) {
  check_valid(c.impl_);
  const int me = c.my_world();
  return ObsAccess{c.impl_->obs.get(), me,
                   &c.impl_->clocks[static_cast<std::size_t>(me)],
                   c.context_id_, c.impl_};
}

}  // namespace detail

obs::PvarRegistry* Comm::pvars() const {
  check_valid(impl_);
  detail::UniverseObs* o = impl_->obs.get();
  return o != nullptr ? &o->rec.pvars() : nullptr;
}

obs::Recorder* Comm::recorder() const {
  check_valid(impl_);
  detail::UniverseObs* o = impl_->obs.get();
  return o != nullptr ? &o->rec : nullptr;
}

CollectiveSuite Comm::suite() const {
  check_valid(impl_);
  return impl_->config.suite;
}

const UniverseConfig& Comm::universe_config() const {
  check_valid(impl_);
  return impl_->config;
}

Comm::Comm(detail::UniverseImpl* impl, Group group, int my_rank,
           int context_id)
    : impl_(impl),
      group_(std::move(group)),
      my_rank_(my_rank),
      context_id_(context_id) {
  // Every rank registers the same mapping; the registry keeps the first.
  impl_->register_comm(context_id_, group_.ranks());
}

// --- Fault tolerance (ULFM) -------------------------------------------------
// revoke/shrink/agree live in resilience.cpp with the agreement protocol.

void Comm::set_errhandler(Errhandler eh) const {
  check_valid(impl_);
  impl_->set_errhandler(context_id_, eh);
}

Errhandler Comm::errhandler() const {
  check_valid(impl_);
  return impl_->errhandler(context_id_);
}

std::vector<int> Comm::failed_ranks() const {
  check_valid(impl_);
  return impl_->dead_in_comm(context_id_);
}

// --- Point-to-point ---------------------------------------------------------

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "send");
  check_tag_send(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "send",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  auto pending = impl_->deliver(me, world_of(dst), context_id_, my_rank_,
                                tag, buf, bytes);
  if (pending) detail::wait_request(*pending);
}

void Comm::recv(void* buf, std::size_t capacity, int src, int tag,
                Status* status) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv");
  check_tag_recv(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "recv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  const Status st =
      impl_->blocking_recv(me, context_id_, src, tag, buf, capacity);
  if (status != nullptr) *status = st;
}

Request Comm::isend(const void* buf, std::size_t bytes, int dst,
                    int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "isend");
  check_tag_send(tag);
  auto pending = impl_->deliver(my_world(), world_of(dst), context_id_,
                                my_rank_, tag, buf, bytes);
  if (!pending) return Request{};  // completed locally: null request
  return Request{std::move(pending)};
}

Request Comm::irecv(void* buf, std::size_t capacity, int src,
                    int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "irecv");
  check_tag_recv(tag);
  return Request{
      impl_->post_recv(my_world(), context_id_, src, tag, buf, capacity)};
}

void Comm::sendrecv(const void* send_buf, std::size_t send_bytes, int dst,
                    int send_tag, void* recv_buf, std::size_t recv_capacity,
                    int src, int recv_tag, Status* status) const {
  // Post the receive first, then run the (possibly blocking) send: the
  // mirror-image pattern cannot deadlock because every party's receive is
  // visible before anyone blocks in a rendezvous send.
  check_valid(impl_);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "sendrecv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  Request r = irecv(recv_buf, recv_capacity, src, recv_tag);
  try {
    send(send_buf, send_bytes, dst, send_tag);
    r.wait(status);
  } catch (...) {
    // The send half surfaced a failure (dead peer, revoked comm) with the
    // receive still posted: recv_buf unwinds with the caller, so the
    // request must stop being matchable first (see cancel_recv).
    if (r.state_ != nullptr) impl_->cancel_recv(*r.state_);
    throw;
  }
}

// --- Typed point-to-point ---------------------------------------------------
// Dense layouts route to the byte path unchanged; strided layouts hand
// the datatype to the transport, whose copy sites gather/scatter through
// the flattened runs (one copy end to end, no staging buffer).

void Comm::send(const void* buf, int count, const Datatype& type, int dst,
                int tag) const {
  const std::size_t bytes = typed_bytes(count, type, "send");
  if (type.contiguous_layout()) {
    send(buf, bytes, dst, tag);
    return;
  }
  check_valid(impl_);
  check_peer(dst, size(), "send");
  check_tag_send(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "send",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  auto pending = impl_->deliver(me, world_of(dst), context_id_, my_rank_,
                                tag, buf, bytes, &type, count);
  if (pending) detail::wait_request(*pending);
}

void Comm::recv(void* buf, int count, const Datatype& type, int src, int tag,
                Status* status) const {
  const std::size_t bytes = typed_bytes(count, type, "recv");
  if (type.contiguous_layout()) {
    recv(buf, bytes, src, tag, status);
    return;
  }
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv");
  check_tag_recv(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "recv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  const Status st = impl_->blocking_recv(me, context_id_, src, tag, buf,
                                         bytes, &type, count);
  if (status != nullptr) *status = st;
}

Request Comm::isend(const void* buf, int count, const Datatype& type,
                    int dst, int tag) const {
  const std::size_t bytes = typed_bytes(count, type, "isend");
  if (type.contiguous_layout()) return isend(buf, bytes, dst, tag);
  check_valid(impl_);
  check_peer(dst, size(), "isend");
  check_tag_send(tag);
  auto pending = impl_->deliver(my_world(), world_of(dst), context_id_,
                                my_rank_, tag, buf, bytes, &type, count);
  if (!pending) return Request{};  // completed locally: null request
  return Request{std::move(pending)};
}

Request Comm::irecv(void* buf, int count, const Datatype& type, int src,
                    int tag) const {
  const std::size_t bytes = typed_bytes(count, type, "irecv");
  if (type.contiguous_layout()) return irecv(buf, bytes, src, tag);
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "irecv");
  check_tag_recv(tag);
  return Request{impl_->post_recv(my_world(), context_id_, src, tag, buf,
                                  bytes, &type, count)};
}

void Comm::sendrecv(const void* send_buf, int send_count,
                    const Datatype& send_type, int dst, int send_tag,
                    void* recv_buf, int recv_count,
                    const Datatype& recv_type, int src, int recv_tag,
                    Status* status) const {
  // Same shape as the byte sendrecv: post the receive first so the
  // mirror-image pattern cannot deadlock in a rendezvous send.
  check_valid(impl_);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "sendrecv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  Request r = irecv(recv_buf, recv_count, recv_type, src, recv_tag);
  try {
    send(send_buf, send_count, send_type, dst, send_tag);
    r.wait(status);
  } catch (...) {
    if (r.state_ != nullptr) impl_->cancel_recv(*r.state_);
    throw;
  }
}

Prequest Comm::send_init(const void* buf, std::size_t bytes, int dst,
                         int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "send_init");
  check_tag_send(tag);
  return Prequest(*this, Prequest::Kind::kSend, const_cast<void*>(buf),
                  bytes, dst, tag);
}

Prequest Comm::recv_init(void* buf, std::size_t capacity, int src,
                         int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv_init");
  check_tag_recv(tag);
  return Prequest(*this, Prequest::Kind::kRecv, buf, capacity, src, tag);
}

void Prequest::start() {
  JHPC_REQUIRE(valid(), "start() on an invalid persistent request");
  JHPC_REQUIRE(!active(), "start() while the previous instance is active");
  current_ = kind_ == Kind::kSend
                 ? comm_.isend(buf_, bytes_, peer_, tag_)
                 : comm_.irecv(buf_, bytes_, peer_, tag_);
}

void Prequest::wait(Status* status) {
  // A persistent send may have completed locally at start() (eager), in
  // which case current_ is the null request and wait is a no-op.
  current_.wait(status);
}

bool Prequest::test(Status* status) { return current_.test(status); }

void Prequest::start_all(std::span<Prequest> requests) {
  for (Prequest& r : requests) r.start();
}

Status Comm::probe(int src, int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "probe");
  check_tag_recv(tag);
  Status st;
  impl_->probe_match(my_world(), context_id_, src, tag, /*blocking=*/true,
                     &st);
  return st;
}

bool Comm::iprobe(int src, int tag, Status* status) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "iprobe");
  check_tag_recv(tag);
  return impl_->probe_match(my_world(), context_id_, src, tag,
                            /*blocking=*/false, status);
}

// --- Collectives -------------------------------------------------------------
// Every blocking collective is one schedule (detail/coll.hpp): the suite's
// selector picks the builder, run_schedule runs it on this rank. hier runs
// barrier/bcast/reduce/allreduce/gather itself (coll_hier.cpp) and selects
// like mv2 for every other collective.

namespace {

using detail::coll_args;
using detail::reduce_args;

void run_coll(const Comm& c, const detail::CollArgs& a, const void* in,
              void* out) {
  const detail::ObsAccess acc = detail::obs_access(c);
  const detail::InternalTagScope tags;
  revoke_on_failure(acc.uni, acc.context_id, acc.world_rank, [&] {
    if (c.suite() == CollectiveSuite::kHier && detail::hier::run(c, a, in, out))
      return;
    const detail::CollAlg alg =
        detail::select_alg(c.suite(), a, c.universe_config());
    detail::Schedule s;
    detail::build(s, alg, a);
    detail::run_schedule(c, s, in, out, a.kind, a.rop, alg);
  });
}

void check_layout(const Comm& c, std::span<const std::size_t> counts,
                  std::span<const std::size_t> displs, const char* what) {
  const auto n = static_cast<std::size_t>(c.size());
  JHPC_REQUIRE(counts.size() == n && displs.size() == n,
               std::string(what) + " counts/displs must have comm-size entries");
}

}  // namespace

void Comm::barrier() const {
  check_valid(impl_);
  run_coll(*this, coll_args(*this, detail::CollOp::kBarrier), nullptr,
           nullptr);
}

void Comm::bcast(void* buf, std::size_t bytes, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "bcast");
  run_coll(*this, coll_args(*this, detail::CollOp::kBcast, bytes, root), buf,
           buf);
}

void Comm::reduce(const void* send_buf, void* recv_buf, std::size_t count,
                  BasicKind kind, ReduceOp op, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "reduce");
  run_coll(*this,
           reduce_args(*this, detail::CollOp::kReduce, count, kind, op, root),
           send_buf, recv_buf);
}

void Comm::allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     BasicKind kind, ReduceOp op) const {
  check_valid(impl_);
  run_coll(*this,
           reduce_args(*this, detail::CollOp::kAllreduce, count, kind, op),
           send_buf, recv_buf);
}

void Comm::reduce_scatter_block(const void* send_buf, void* recv_buf,
                                std::size_t count_per_rank, BasicKind kind,
                                ReduceOp op) const {
  check_valid(impl_);
  run_coll(*this,
           reduce_args(*this, detail::CollOp::kReduceScatter, count_per_rank,
                       kind, op),
           send_buf, recv_buf);
}

void Comm::scan(const void* send_buf, void* recv_buf, std::size_t count,
                BasicKind kind, ReduceOp op) const {
  check_valid(impl_);
  run_coll(*this, reduce_args(*this, detail::CollOp::kScan, count, kind, op),
           send_buf, recv_buf);
}

void Comm::gather(const void* send_buf, std::size_t bytes_per_rank,
                  void* recv_buf, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "gather");
  run_coll(*this,
           coll_args(*this, detail::CollOp::kGather, bytes_per_rank, root),
           send_buf, recv_buf);
}

void Comm::scatter(const void* send_buf, std::size_t bytes_per_rank,
                   void* recv_buf, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "scatter");
  run_coll(*this,
           coll_args(*this, detail::CollOp::kScatter, bytes_per_rank, root),
           send_buf, recv_buf);
}

void Comm::allgather(const void* send_buf, std::size_t bytes_per_rank,
                     void* recv_buf) const {
  check_valid(impl_);
  run_coll(*this, coll_args(*this, detail::CollOp::kAllgather, bytes_per_rank),
           send_buf, recv_buf);
}

void Comm::alltoall(const void* send_buf, std::size_t bytes_per_pair,
                    void* recv_buf) const {
  check_valid(impl_);
  run_coll(*this, coll_args(*this, detail::CollOp::kAlltoall, bytes_per_pair),
           send_buf, recv_buf);
}

// --- Typed (derived-datatype) blocking collectives --------------------------
// Strided layouts are packed through slab-drawn scratch and run the byte
// engines unchanged — every suite (basic/mv2/nbc/hier) executes the
// identical wire algorithm for typed and untyped payloads, which is what
// lets the differential oracle cross-check them. Dense layouts skip the
// shim entirely. The shim adds no communication of its own.

namespace {

void typed_coll(const Comm& c, detail::CollOp what, const void* send_buf,
                void* recv_buf, int count, const Datatype& type, ReduceOp op,
                int root) {
  const detail::CollArgs args =
      detail::typed_args(c, what, count, type, op, root);
  if (type.contiguous_layout()) {
    run_coll(c, args, send_buf, recv_buf);
    return;
  }
  const detail::TypedPlan plan =
      detail::typed_plan(what, count, c.size(), c.rank() == root);
  const detail::ObsAccess acc = detail::obs_access(c);
  SlabScratch in(acc.uni, acc.world_rank,
                 type.size() * static_cast<std::size_t>(plan.in));
  SlabScratch out(acc.uni, acc.world_rank,
                  type.size() * static_cast<std::size_t>(plan.out));
  if (plan.in > 0) type.pack(send_buf, in.data(), plan.in);
  if (plan.pack_out) type.pack(recv_buf, out.data(), plan.out);
  run_coll(c, args, in.data(), out.data());
  if (plan.unpack) type.unpack(out.data(), recv_buf, plan.out);
}

}  // namespace

void Comm::bcast(void* buf, int count, const Datatype& type,
                 int root) const {
  check_valid(impl_);
  check_peer(root, size(), "bcast");
  typed_coll(*this, detail::CollOp::kBcast, buf, buf, count, type,
             ReduceOp::kSum, root);
}

void Comm::reduce(const void* send_buf, void* recv_buf, int count,
                  const Datatype& type, ReduceOp op, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "reduce");
  typed_coll(*this, detail::CollOp::kReduce, send_buf, recv_buf, count, type,
             op, root);
}

void Comm::allreduce(const void* send_buf, void* recv_buf, int count,
                     const Datatype& type, ReduceOp op) const {
  check_valid(impl_);
  typed_coll(*this, detail::CollOp::kAllreduce, send_buf, recv_buf, count,
             type, op, 0);
}

void Comm::gather(const void* send_buf, int count, const Datatype& type,
                  void* recv_buf, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "gather");
  typed_coll(*this, detail::CollOp::kGather, send_buf, recv_buf, count, type,
             ReduceOp::kSum, root);
}

void Comm::scatter(const void* send_buf, int count, const Datatype& type,
                   void* recv_buf, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "scatter");
  typed_coll(*this, detail::CollOp::kScatter, send_buf, recv_buf, count,
             type, ReduceOp::kSum, root);
}

void Comm::allgather(const void* send_buf, int count, const Datatype& type,
                     void* recv_buf) const {
  check_valid(impl_);
  typed_coll(*this, detail::CollOp::kAllgather, send_buf, recv_buf, count,
             type, ReduceOp::kSum, 0);
}

void Comm::alltoall(const void* send_buf, int count, const Datatype& type,
                    void* recv_buf) const {
  check_valid(impl_);
  typed_coll(*this, detail::CollOp::kAlltoall, send_buf, recv_buf, count,
             type, ReduceOp::kSum, 0);
}

void Comm::gatherv(const void* send_buf, std::size_t send_bytes,
                   void* recv_buf, std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "gatherv");
  if (my_rank_ == root) {
    check_layout(*this, counts, displs, "gatherv");
    JHPC_REQUIRE(send_bytes == counts[static_cast<std::size_t>(root)],
                 "gatherv: root send size must equal its count");
  }
  detail::CollArgs a =
      coll_args(*this, detail::CollOp::kGatherv, send_bytes, root);
  a.counts = counts;
  a.displs = displs;
  run_coll(*this, a, send_buf, recv_buf);
}

void Comm::scatterv(const void* send_buf,
                    std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs, void* recv_buf,
                    std::size_t recv_bytes, int root) const {
  check_valid(impl_);
  check_peer(root, size(), "scatterv");
  if (my_rank_ == root) {
    check_layout(*this, counts, displs, "scatterv");
    JHPC_REQUIRE(recv_bytes >= counts[static_cast<std::size_t>(root)],
                 "scatterv: root receive buffer too small");
  }
  detail::CollArgs a =
      coll_args(*this, detail::CollOp::kScatterv, recv_bytes, root);
  a.counts = counts;
  a.displs = displs;
  run_coll(*this, a, send_buf, recv_buf);
}

void Comm::allgatherv(const void* send_buf, std::size_t send_bytes,
                      void* recv_buf, std::span<const std::size_t> counts,
                      std::span<const std::size_t> displs) const {
  check_valid(impl_);
  check_layout(*this, counts, displs, "allgatherv");
  JHPC_REQUIRE(send_bytes == counts[static_cast<std::size_t>(my_rank_)],
               "allgatherv send size must equal my count");
  detail::CollArgs a =
      coll_args(*this, detail::CollOp::kAllgatherv, send_bytes);
  a.counts = counts;
  a.displs = displs;
  run_coll(*this, a, send_buf, recv_buf);
}

void Comm::alltoallv(const void* send_buf,
                     std::span<const std::size_t> send_counts,
                     std::span<const std::size_t> send_displs,
                     void* recv_buf,
                     std::span<const std::size_t> recv_counts,
                     std::span<const std::size_t> recv_displs) const {
  check_valid(impl_);
  detail::CollArgs a = coll_args(*this, detail::CollOp::kAlltoallv);
  a.scounts = send_counts;
  a.sdispls = send_displs;
  a.counts = recv_counts;
  a.displs = recv_displs;
  run_coll(*this, a, send_buf, recv_buf);
}

// --- Communicator management ---------------------------------------------------

Comm Comm::dup() const {
  check_valid(impl_);
  // Rank 0 allocates a fresh context id and broadcasts it over *this*
  // communicator (safe: dup is collective).
  int new_cid = 0;
  if (my_rank_ == 0)
    new_cid = impl_->next_context_id.fetch_add(1, std::memory_order_relaxed);
  bcast_cid(&new_cid);
  // New communicators inherit the parent's error handler (MPI semantics).
  impl_->set_errhandler(new_cid, impl_->errhandler(context_id_));
  return Comm(impl_, group_, my_rank_, new_cid);
}

Comm Comm::split(int color, int key) const {
  check_valid(impl_);
  const int size = this->size();

  // Gather (color, key) from everyone.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(size));
  const Entry mine{color, key, my_rank_};
  allgather(&mine, sizeof(Entry), entries.data());

  // Allocate one context id per distinct non-negative color, from rank 0,
  // deterministically (colors in ascending order).
  std::vector<int> colors;
  for (const Entry& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  int base_cid = 0;
  if (my_rank_ == 0 && !colors.empty()) {
    base_cid = impl_->next_context_id.fetch_add(
        static_cast<int>(colors.size()), std::memory_order_relaxed);
  }
  bcast_cid(&base_cid);

  if (color < 0) return Comm{};  // MPI_UNDEFINED

  // My color group, ordered by (key, old rank).
  std::vector<Entry> members;
  for (const Entry& e : entries)
    if (e.color == color) members.push_back(e);
  std::stable_sort(members.begin(), members.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> world_ranks;
  world_ranks.reserve(members.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    world_ranks.push_back(group_.world_rank(members[i].rank));
    if (members[i].rank == my_rank_) my_new_rank = static_cast<int>(i);
  }
  const auto color_it = std::find(colors.begin(), colors.end(), color);
  const int cid =
      base_cid + static_cast<int>(color_it - colors.begin());
  impl_->set_errhandler(cid, impl_->errhandler(context_id_));
  return Comm(impl_, Group(std::move(world_ranks)), my_new_rank, cid);
}

Comm Comm::create(const Group& subgroup) const {
  check_valid(impl_);
  // Agree on a fresh context id over the parent.
  int new_cid = 0;
  if (my_rank_ == 0)
    new_cid = impl_->next_context_id.fetch_add(1, std::memory_order_relaxed);
  bcast_cid(&new_cid);

  const int my_pos = subgroup.rank_of(my_world());
  if (my_pos < 0) return Comm{};
  impl_->set_errhandler(new_cid, impl_->errhandler(context_id_));
  return Comm(impl_, subgroup, my_pos, new_cid);
}

double Comm::wtime() {
  return static_cast<double>(now_ns()) / 1e9;
}

std::int64_t Comm::vtime_ns() const {
  check_valid(impl_);
  detail::RankClock& clock =
      impl_->clocks[static_cast<std::size_t>(my_world())];
  clock.advance_cpu();
  return clock.vclock;
}

// Binomial broadcast of one int from rank 0 on the management tag; used by
// the context-id agreement above. It cannot go through bcast(): the suite
// may be "basic", and the agreement must not consume user-visible
// collective semantics (no span, no coll.* count).
void Comm::bcast_cid(int* value) const {
  const detail::InternalTagScope tags;
  detail::Schedule s;
  detail::build(s, detail::CollAlg::kBcastBinomial,
                coll_args(*this, detail::CollOp::kBcast, sizeof(int)));
  detail::run_schedule(*this, s, value, value, BasicKind::kByte,
                       ReduceOp::kSum, detail::CollAlg::kCount,
                       detail::kTagCommMgmt);
}

}  // namespace jhpc::minimpi
