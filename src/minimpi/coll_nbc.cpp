// The nonblocking-collective schedule engine (see detail/coll_nbc.hpp):
// the PROGRESS machinery that drives every active schedule of a rank from
// inside wait()/test(), and the i-collective entry points. The schedules
// themselves come from the shared builders (coll_sched.cpp).

#include "detail/coll_nbc.hpp"

#include <chrono>
#include <utility>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail {

using namespace std::chrono_literals;

namespace {

// --- Progress machinery ----------------------------------------------------

/// The round's copies and reductions, uncharged: the rank's next
/// advance_cpu (the next round's post, or its caller's next transport
/// call) folds their CPU in exactly once.
void run_local_steps(NbcState& st) {
  const NbcRound& rd = st.sched.rounds[st.round];
  const SchedBufs b = st.bufs();
  for (std::size_t i = rd.first; i < rd.last; ++i)
    run_local_step(st.sched.steps[i], b, st.kind, st.op);
}

void post_round(NbcState& st, int world, RankClock& clock, UniverseObs* o) {
  const NbcRound& rd = st.sched.rounds[st.round];
  const SchedBufs b = st.bufs();
  clock.advance_cpu();
  st.round_start_v = clock.vclock;
  if (o != nullptr) o->rec.begin(world, "nbc.round", clock.vclock);
  // Receives first, then sends: every peer's receive is visible before
  // any send might park as an unexpected rendezvous.
  for (std::size_t i = rd.first; i < rd.last; ++i) {
    const NbcStep& s = st.sched.steps[i];
    if (s.kind != NbcStepKind::kRecv) continue;
    st.pending.push_back(st.impl->post_recv(world, st.context_id, s.peer,
                                            st.tag, b.at(s.dst), s.bytes));
  }
  for (std::size_t i = rd.first; i < rd.last; ++i) {
    const NbcStep& s = st.sched.steps[i];
    if (s.kind != NbcStepKind::kSend) continue;
    auto p = st.impl->deliver(world, st.group.world_rank(s.peer),
                              st.context_id, st.my_rank, st.tag, b.at(s.src),
                              s.bytes);
    if (p) st.pending.push_back(std::move(p));
  }
  st.posted = true;
}

bool round_requests_complete(NbcState& st) {
  for (const auto& rs : st.pending) {
    std::lock_guard<std::mutex> lk(rs->mu);
    if (!rs->complete) return false;
  }
  return true;
}

/// Poison a schedule whose round failed (rank death, revocation,
/// timeout): cancel its still-parked receives, record the exception for
/// every subsequent wait/test, and mark it done so the progress set
/// prunes it. A rank failure also revokes the communicator — the other
/// ranks of the operation are parked in rounds that now have no
/// counterpart, and only a revocation sweep turns those hangs into
/// CommRevokedError.
void fail_schedule(NbcState& st, int world, RankClock& clock, UniverseObs* o,
                   std::exception_ptr ep) {
  // Cancel parked receives FIRST: their targets point into this
  // schedule's scratch, and a late match would write through a dangling
  // buffer once the state is pruned.
  MatchBucket& bk =
      st.impl->endpoints[static_cast<std::size_t>(world)]->bucket(
          st.context_id);
  {
    std::lock_guard<std::mutex> lk(bk.mu);
    for (const auto& rs : st.pending) {
      if (rs->is_recv) std::erase(bk.posted, rs);
    }
  }
  st.pending.clear();
  st.failed = true;
  st.failure = ep;
  st.done = true;
  try {
    std::rethrow_exception(ep);
  } catch (const RankFailedError&) {
    st.impl->revoke_comm(st.context_id, world);
  } catch (...) {
    // Timeouts and other transport failures poison only this schedule.
  }
  if (o != nullptr) {
    clock.advance_cpu();
    if (st.posted) o->rec.end(world, "nbc.round", clock.vclock);
    o->rec.end(world, coll_alg_trace_name(st.alg), clock.vclock);
  }
  st.posted = false;
}

/// Completion hook for typed schedules: scatter the dense result into
/// the user's strided buffer. Idempotent — nbc_start_typed also calls it
/// when a schedule completes inside initiation, before the staging
/// fields were set.
void finish_typed(NbcState& st) {
  if (!st.unpack_dt) return;
  st.unpack_dt->unpack(st.typed_out.data(), st.unpack_dst, st.unpack_count);
  st.unpack_dt.reset();
}

/// Drive one schedule as far as it can go without blocking; returns true
/// once it is done.
bool try_advance(NbcState& st) {
  if (st.done) return true;
  const int world = st.group.world_rank(st.my_rank);
  RankClock& clock = st.impl->clocks[static_cast<std::size_t>(world)];
  UniverseObs* o = st.impl->obs.get();
  try {
    for (;;) {
      if (!st.posted) {
        if (st.round >= st.sched.rounds.size()) {
          finish_typed(st);
          st.done = true;
          if (o != nullptr) {
            clock.advance_cpu();
            o->rec.end(world, coll_alg_trace_name(st.alg), clock.vclock);
          }
          return true;
        }
        post_round(st, world, clock, o);
      }
      if (!round_requests_complete(st)) return false;
      // Finalize in posting order: wait_request returns immediately on a
      // completed request but still observes its delivery time (the rank's
      // clock jumps to the round's critical path) and charges the wait
      // pvars — identical accounting to the blocking suites.
      for (const auto& rs : st.pending) wait_request(*rs);
      st.pending.clear();
      run_local_steps(st);
      if (o != nullptr) {
        o->rec.end(world, "nbc.round", clock.vclock);
        o->rec.pvars().record(o->hist_nbc_round, world,
                              clock.vclock - st.round_start_v);
      }
      ++st.round;
      st.posted = false;
    }
  } catch (const AbortError&) {
    throw;  // job is aborting: unwind the rank thread, don't poison
  } catch (const RankKilledError&) {
    throw;  // this rank's own planned death: unwind
  } catch (...) {
    fail_schedule(st, world, clock, o, std::current_exception());
    return true;
  }
}

/// The coll.nbc.<op> pvar of a nonblocking operation.
CollAlg nbc_alg(CollOp what) {
  switch (what) {
    case CollOp::kBarrier:
      return CollAlg::kNbcBarrier;
    case CollOp::kBcast:
      return CollAlg::kNbcBcast;
    case CollOp::kReduce:
      return CollAlg::kNbcReduce;
    case CollOp::kAllreduce:
      return CollAlg::kNbcAllreduce;
    case CollOp::kGather:
      return CollAlg::kNbcGather;
    case CollOp::kScatter:
      return CollAlg::kNbcScatter;
    case CollOp::kAllgather:
      return CollAlg::kNbcAllgather;
    default:
      return CollAlg::kNbcAlltoall;
  }
}

/// Park briefly on an incomplete request; wakes on completion, abort, or
/// timeout (so the caller can progress its other schedules).
void park_on(RequestState& rs, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(rs.mu);
  if (rs.complete) return;
  rs.cv.wait_for(lk, timeout);
  if (!rs.complete && rs.abort != nullptr &&
      rs.abort->load(std::memory_order_relaxed)) {
    throw AbortError();
  }
}

}  // namespace

void nbc_progress_rank(UniverseImpl& impl, int world_rank) {
  NbcRank& nr = impl.nbc[static_cast<std::size_t>(world_rank)];
  bool any_done = false;
  for (const auto& st : nr.active) {
    if (try_advance(*st)) any_done = true;
  }
  if (any_done) {
    std::erase_if(nr.active,
                  [](const std::shared_ptr<NbcState>& s) { return s->done; });
  }
}

Status nbc_wait(NbcState& st) {
  const int world = st.group.world_rank(st.my_rank);
  UniverseImpl& impl = *st.impl;
  for (;;) {
    nbc_progress_rank(impl, world);
    if (st.done) {
      if (st.failed) std::rethrow_exception(st.failure);
      return Status{};
    }
    // Blocked on this round: park on its first incomplete request. With
    // a single active schedule the park can be long (completion notifies
    // the condvar); with siblings outstanding it stays short so their
    // rounds keep advancing while we wait out of order.
    const std::size_t live = impl.nbc[static_cast<std::size_t>(world)]
                                 .active.size();
    std::shared_ptr<RequestState> first;
    for (const auto& rs : st.pending) {
      std::lock_guard<std::mutex> lk(rs->mu);
      if (!rs->complete) {
        first = rs;
        break;
      }
    }
    if (first) park_on(*first, live > 1 ? 1ms : 20ms);
    impl.throw_if_aborted();
  }
}

bool nbc_test(NbcState& st, Status* out) {
  nbc_progress_rank(*st.impl, st.group.world_rank(st.my_rank));
  if (!st.done) return false;
  if (st.failed) std::rethrow_exception(st.failure);
  if (out != nullptr) *out = Status{};
  return true;
}

std::shared_ptr<NbcState> nbc_start(const Comm& c, const CollArgs& a,
                                    const void* in, void* out) {
  const ObsAccess acc = obs_access(c);
  UniverseImpl* impl = acc.uni;
  const int world = acc.world_rank;
  auto st = std::make_shared<NbcState>();
  st->impl = impl;
  st->group = c.group();
  st->my_rank = c.rank();
  st->context_id = acc.context_id;
  st->user_in = static_cast<const std::byte*>(in);
  st->user_out = static_cast<std::byte*>(out);
  st->kind = a.kind;
  st->op = a.rop;

  NbcRank& nr = impl->nbc[static_cast<std::size_t>(world)];
  const std::uint32_t seq = nr.seq[st->context_id]++;
  st->tag = kTagNbcBase + static_cast<int>(seq % kNbcTagSpan);

  // The communicator's suite picks the algorithm, as for the blocking
  // call; hier selects like mv2.
  st->alg = nbc_alg(a.op);
  build(st->sched, select_alg(impl->config.suite, a, impl->config), a);
  st->scratch.resize(st->sched.scratch_bytes);

  RankClock& clock = *acc.clock;
  clock.advance_cpu();
  if (UniverseObs* o = impl->obs.get()) {
    o->rec.pvars().add(o->coll[static_cast<std::size_t>(st->alg)], world, 1);
    o->rec.begin(world, coll_alg_trace_name(st->alg), clock.vclock);
  }

  nr.active.push_back(st);
  // Post round 0 now — the overlap window opens at initiation, not at
  // the first wait/test.
  nbc_progress_rank(*impl, world);
  return st;
}

std::shared_ptr<NbcState> nbc_start_typed(const Comm& c, CollOp what,
                                          const void* send_buf,
                                          void* recv_buf, int count,
                                          const Datatype& type, ReduceOp op,
                                          int root) {
  const CollArgs args = typed_args(c, what, count, type, op, root);
  // Dense layouts run the byte schedule on the user's buffers.
  if (type.contiguous_layout()) return nbc_start(c, args, send_buf, recv_buf);

  // Pack into staging the schedule will own. The vectors are moved into
  // the state after nbc_start — a move transfers the heap storage, so the
  // user_in/user_out pointers captured by the already-posted round 0 stay
  // valid.
  const TypedPlan plan = typed_plan(what, count, c.size(), c.rank() == root);
  std::vector<std::byte> tin(type.size() * static_cast<std::size_t>(plan.in));
  std::vector<std::byte> tout(type.size() *
                              static_cast<std::size_t>(plan.out));
  if (plan.in > 0) type.pack(send_buf, tin.data(), plan.in);
  if (plan.pack_out) type.pack(recv_buf, tout.data(), plan.out);
  auto st = nbc_start(c, args, tin.empty() ? nullptr : tin.data(),
                      tout.empty() ? nullptr : tout.data());
  st->typed_in = std::move(tin);
  st->typed_out = std::move(tout);
  if (plan.unpack) {
    st->unpack_dt = type;
    st->unpack_count = plan.out;
    st->unpack_dst = recv_buf;
    // The schedule may have drained entirely inside nbc_start (all-eager
    // round 0 on a small comm): the completion hook ran before the
    // staging fields existed, so run it now.
    if (st->done && !st->failed) finish_typed(*st);
  }
  return st;
}

}  // namespace jhpc::minimpi::detail

namespace jhpc::minimpi {

namespace {

using detail::coll_args;
using detail::CollOp;
using detail::nbc_start;
using detail::nbc_start_typed;
using detail::reduce_args;

void check_comm(const Comm& c, const char* what) {
  JHPC_REQUIRE(c.valid(), std::string(what) + " on an invalid communicator");
}

void check_root(const Comm& c, int root, const char* what) {
  check_comm(c, what);
  JHPC_REQUIRE(root >= 0 && root < c.size(),
               std::string(what) + ": root rank out of range");
}

}  // namespace

Request Comm::ibarrier() const {
  check_comm(*this, "ibarrier");
  return Request{
      nbc_start(*this, coll_args(*this, CollOp::kBarrier), nullptr, nullptr)};
}

Request Comm::ibcast(void* buf, std::size_t bytes, int root) const {
  check_root(*this, root, "ibcast");
  return Request{nbc_start(
      *this, coll_args(*this, CollOp::kBcast, bytes, root), buf, buf)};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, std::size_t count,
                      BasicKind kind, ReduceOp op, int root) const {
  check_root(*this, root, "ireduce");
  return Request{nbc_start(
      *this, reduce_args(*this, CollOp::kReduce, count, kind, op, root),
      send_buf, recv_buf)};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf,
                         std::size_t count, BasicKind kind,
                         ReduceOp op) const {
  check_comm(*this, "iallreduce");
  return Request{
      nbc_start(*this, reduce_args(*this, CollOp::kAllreduce, count, kind, op),
                send_buf, recv_buf)};
}

Request Comm::igather(const void* send_buf, std::size_t bytes_per_rank,
                      void* recv_buf, int root) const {
  check_root(*this, root, "igather");
  return Request{nbc_start(
      *this, coll_args(*this, CollOp::kGather, bytes_per_rank, root),
      send_buf, recv_buf)};
}

Request Comm::iscatter(const void* send_buf, std::size_t bytes_per_rank,
                       void* recv_buf, int root) const {
  check_root(*this, root, "iscatter");
  return Request{nbc_start(
      *this, coll_args(*this, CollOp::kScatter, bytes_per_rank, root),
      send_buf, recv_buf)};
}

Request Comm::iallgather(const void* send_buf, std::size_t bytes_per_rank,
                         void* recv_buf) const {
  check_comm(*this, "iallgather");
  return Request{
      nbc_start(*this, coll_args(*this, CollOp::kAllgather, bytes_per_rank),
                send_buf, recv_buf)};
}

Request Comm::ialltoall(const void* send_buf, std::size_t bytes_per_pair,
                        void* recv_buf) const {
  check_comm(*this, "ialltoall");
  return Request{
      nbc_start(*this, coll_args(*this, CollOp::kAlltoall, bytes_per_pair),
                send_buf, recv_buf)};
}

// --- Typed (derived-datatype) nonblocking collectives -----------------------

Request Comm::ibcast(void* buf, int count, const Datatype& type,
                     int root) const {
  check_root(*this, root, "ibcast");
  return Request{nbc_start_typed(*this, CollOp::kBcast, buf, buf, count, type,
                                 ReduceOp::kSum, root)};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, int count,
                      const Datatype& type, ReduceOp op, int root) const {
  check_root(*this, root, "ireduce");
  return Request{nbc_start_typed(*this, CollOp::kReduce, send_buf, recv_buf,
                                 count, type, op, root)};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf, int count,
                         const Datatype& type, ReduceOp op) const {
  check_comm(*this, "iallreduce");
  return Request{nbc_start_typed(*this, CollOp::kAllreduce, send_buf,
                                 recv_buf, count, type, op, 0)};
}

Request Comm::igather(const void* send_buf, int count, const Datatype& type,
                      void* recv_buf, int root) const {
  check_root(*this, root, "igather");
  return Request{nbc_start_typed(*this, CollOp::kGather, send_buf, recv_buf,
                                 count, type, ReduceOp::kSum, root)};
}

Request Comm::iscatter(const void* send_buf, int count, const Datatype& type,
                       void* recv_buf, int root) const {
  check_root(*this, root, "iscatter");
  return Request{nbc_start_typed(*this, CollOp::kScatter, send_buf, recv_buf,
                                 count, type, ReduceOp::kSum, root)};
}

Request Comm::iallgather(const void* send_buf, int count,
                         const Datatype& type, void* recv_buf) const {
  check_comm(*this, "iallgather");
  return Request{nbc_start_typed(*this, CollOp::kAllgather, send_buf,
                                 recv_buf, count, type, ReduceOp::kSum, 0)};
}

Request Comm::ialltoall(const void* send_buf, int count, const Datatype& type,
                        void* recv_buf) const {
  check_comm(*this, "ialltoall");
  return Request{nbc_start_typed(*this, CollOp::kAlltoall, send_buf, recv_buf,
                                 count, type, ReduceOp::kSum, 0)};
}

}  // namespace jhpc::minimpi
