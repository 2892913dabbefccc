// Schedule-based nonblocking collectives.
//
// Each i-collective picks its algorithm through the same selector as the
// blocking call on the communicator's suite (hier selects like mv2) and
// compiles it, at call time, into this rank's schedule (detail/coll.hpp):
// the communication steps of a round are posted together (recvs first),
// completed together, and only then do the round's local steps run and
// the next round post.
//
// Progress model (MPI weak progress): the transport is push-based — a
// posted receive is completed by the sender's deliver() and an eager
// send completes locally — so a schedule needs no progress thread. It
// advances whenever its rank enters wait()/test() on ANY nonblocking-
// collective request (all of the rank's active schedules are driven
// together, so out-of-order waits across ranks cannot starve each
// other). Compute between the initiation and the wait genuinely
// overlaps: round 0 is posted at initiation and peer deliveries land in
// parallel virtual time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "detail/coll.hpp"
#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/minimpi/group.hpp"
#include "jhpc/minimpi/op.hpp"

namespace jhpc::minimpi::detail {

/// The whole in-flight operation; shared between the user's Request
/// handle and the owning rank's active-schedule registry. Only the
/// owning rank thread ever touches it.
struct NbcState {
  UniverseImpl* impl = nullptr;
  Group group;
  int my_rank = -1;
  int context_id = 0;
  int tag = 0;
  CollAlg alg = CollAlg::kNbcBarrier;

  const std::byte* user_in = nullptr;
  std::byte* user_out = nullptr;
  BasicKind kind = BasicKind::kByte;  ///< element kind of reduce steps
  ReduceOp op = ReduceOp::kSum;
  std::vector<std::byte> scratch;

  // Typed (derived-datatype) staging: for a schedule started through
  // nbc_start_typed, user_in/user_out point into these packed copies for
  // the schedule's lifetime; on completion the dense result is scattered
  // into `unpack_dst` through `unpack_dt` (see finish_typed).
  std::vector<std::byte> typed_in;
  std::vector<std::byte> typed_out;
  std::optional<Datatype> unpack_dt;
  int unpack_count = 0;
  void* unpack_dst = nullptr;

  Schedule sched;
  std::size_t round = 0;  ///< index of the round being progressed
  bool posted = false;    ///< current round's comm steps are in flight
  /// Virtual time the current round was posted (hist.nbc_round sample).
  std::int64_t round_start_v = 0;
  std::vector<std::shared_ptr<RequestState>> pending;
  bool done = false;
  /// A round failed (rank death, revocation, timeout): the schedule is
  /// poisoned — no further round posts — and every wait/test on it
  /// rethrows `failure`. Set with done so the progress set prunes it.
  bool failed = false;
  std::exception_ptr failure;

  SchedBufs bufs() { return {user_in, user_out, scratch.data()}; }
};

/// Compile `a`'s schedule on `c`, register it with the rank's progress
/// set, post round 0 (and any rounds that complete immediately). `a.op`
/// is one of barrier, bcast, reduce, allreduce, gather, scatter,
/// allgather and alltoall.
std::shared_ptr<NbcState> nbc_start(const Comm& c, const CollArgs& a,
                                    const void* in, void* out);

/// Typed nbc_start: a dense layout runs the byte schedule directly. A
/// strided one packs the send-side payload into schedule-owned staging at
/// initiation — so, unlike the byte forms, the send buffer may be reused
/// as soon as the call returns — runs the byte schedule unchanged (all
/// engines stay bit-identical), and scatters the dense result into the
/// user's strided receive buffer when the schedule completes. `op` is
/// meaningful for reduce/allreduce only, which also require
/// type.uniform_leaf().
std::shared_ptr<NbcState> nbc_start_typed(const Comm& c, CollOp what,
                                          const void* send_buf,
                                          void* recv_buf, int count,
                                          const Datatype& type, ReduceOp op,
                                          int root);

/// Drive every active schedule of `world_rank` as far as it can go
/// without blocking; prune the finished ones. Must run on the rank's
/// own thread.
void nbc_progress_rank(UniverseImpl& impl, int world_rank);

/// Block until `st` completes, progressing all of the rank's schedules
/// meanwhile. Returns the (empty) collective Status.
Status nbc_wait(NbcState& st);

/// Non-blocking completion check; progresses the rank's schedules.
bool nbc_test(NbcState& st, Status* out);

}  // namespace jhpc::minimpi::detail
