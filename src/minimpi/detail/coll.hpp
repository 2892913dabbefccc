// Collective algorithms as schedules.
//
// Every collective algorithm is written once, as a BUILDER that compiles
// one call into this rank's schedule: rounds whose send/recv steps are
// posted together and whose local copy/reduce steps run once all of the
// round's communication has completed (libNBC's schedule design, Hoefler
// et al., SC'07). One selector picks the builder from (suite, op, comm
// size, bytes); two executors run the result:
//   run_schedule (coll_sched.cpp) — to completion, inline on the calling
//       rank: every blocking collective, hier's inter-node leader phase
//       and communicator creation;
//   the nonblocking engine (coll_nbc.cpp) — progressed from wait()/test().
//
// Two suites model the two native libraries of the paper's evaluation:
//   mv2   — tuned algorithms in the style of MVAPICH2/MPICH: binomial
//           trees, scatter + ring-allgather broadcast, recursive doubling,
//           ring reduce-scatter/allgather (and their composition, the ring
//           allreduce), dissemination barrier, pairwise alltoall.
//   basic — flat linear algorithms in the style of an untuned baseline:
//           root-sequential fan-out/fan-in everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "detail/transport.hpp"
#include "jhpc/minimpi/comm.hpp"

namespace jhpc::minimpi::detail {

// Reserved tag space for collectives (user tags are < 2^28). The
// reservation is enforced: Comm::send/recv & co. reject tags >= kTagBase
// unless the calling thread is inside an InternalTagScope.
inline constexpr int kTagBase = 1 << 28;

/// RAII: marks the current thread as running inside collective (or other
/// internal) code, so the reserved tag space passes the user-tag checks.
/// Nestable; collectives run entirely on the calling rank's thread, so a
/// thread-local depth is exactly the right scope.
class InternalTagScope {
 public:
  InternalTagScope();
  ~InternalTagScope();
  InternalTagScope(const InternalTagScope&) = delete;
  InternalTagScope& operator=(const InternalTagScope&) = delete;
};

/// True while the calling thread holds at least one InternalTagScope.
bool internal_tags_allowed();

/// Fixed tags of the blocking collectives.
enum CollTag : int {
  kTagBarrier = kTagBase,
  kTagBcast,
  kTagBcastScatter,
  kTagBcastRing,
  kTagReduce,
  kTagAllreduce,
  kTagAllreduceRs,
  kTagAllreduceAg,
  kTagGather,
  kTagScatter,
  kTagAllgather,
  kTagAlltoall,
  kTagGatherv,
  kTagScatterv,
  kTagAllgatherv,
  kTagAlltoallv,
  kTagReduceScatter,
  kTagScan,
  kTagCommMgmt,
  // hier suite: inter-node traffic among node leaders (coll_hier.cpp).
  kTagHierBarrier,
  kTagHierBcast,
  kTagHierReduce,
  kTagHierAllreduce,
  kTagHierGather,
  kTagHierRootXfer,
};

// Tag block of the nonblocking engine, above the fixed tags. Each
// operation instance takes one tag from a per-(rank, context) sequence
// counter — ranks agree because collectives are initiated in the same
// order per communicator — so concurrent operations on one communicator
// never cross-match. Within one operation, MPI's per-(src, comm)
// non-overtaking order keeps the rounds apart.
inline constexpr int kTagNbcBase = kTagBase + (1 << 12);
inline constexpr int kNbcTagSpan = 1 << 20;

// One-sided sync tokens (win.cpp): window `w` uses kTagWinSync + 2*w for
// post->start tokens and kTagWinSync + 2*w + 1 for complete->wait tokens.
// The window id scales the offset open-endedly, so this block comes last.
inline constexpr int kTagWinSync = kTagNbcBase + kNbcTagSpan;

/// The collective operations.
enum class CollOp : std::uint8_t {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kReduceScatter,
  kScan,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kGatherv,
  kScatterv,
  kAllgatherv,
  kAlltoallv,
};

// --- The schedule IR ---------------------------------------------------------

/// Which buffer a step addresses.
enum class NbcBuf : std::uint8_t { kUserIn, kUserOut, kScratch };

/// A location in one of a schedule's buffers.
struct BufRef {
  NbcBuf buf = NbcBuf::kUserOut;
  std::size_t off = 0;
  BufRef at(std::size_t delta) const { return {buf, off + delta}; }
};

enum class NbcStepKind : std::uint8_t { kSend, kRecv, kReduce, kCopy };

struct NbcStep {
  NbcStepKind kind = NbcStepKind::kCopy;
  int peer = -1;  ///< comm rank (send/recv)
  int tag = 0;    ///< the algorithm's CollTag (send/recv)
  BufRef src;     ///< send payload / reduce input / copy source
  BufRef dst;     ///< recv target / reduce accumulator / copy destination
  std::size_t bytes = 0;  ///< payload bytes; element count for a reduce
};

/// One round: steps [first, last). Its send/recv steps are posted together
/// and must all complete before its copy/reduce steps run, in order.
struct NbcRound {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Start of a nested algorithm inside a composed one (basic allreduce is
/// a linear reduce then a linear bcast): its rounds begin at step `first`.
struct NbcPhase {
  CollAlg alg = CollAlg::kCount;
  std::size_t first = 0;
};

/// One rank's schedule, as a builder writes it.
struct Schedule {
  std::vector<NbcStep> steps;
  std::vector<NbcRound> rounds;
  std::vector<NbcPhase> phases;
  std::size_t scratch_bytes = 0;

  /// Close the current round; later steps go to a new one.
  void round();
  void send(int peer, BufRef src, std::size_t bytes, int tag);
  void recv(int peer, BufRef dst, std::size_t bytes, int tag);
  void copy(BufRef src, BufRef dst, std::size_t bytes);
  void reduce(BufRef src, BufRef acc, std::size_t count);
  /// `bytes` of zeroed scratch, never aliasing an earlier allocation.
  BufRef scratch(std::size_t bytes);
  /// Later rounds belong to nested algorithm `alg`.
  void phase(CollAlg alg);

 private:
  void add(const NbcStep& s);
};

/// The buffers one schedule runs over.
struct SchedBufs {
  const std::byte* in = nullptr;
  std::byte* out = nullptr;
  std::byte* scratch = nullptr;

  std::byte* at(BufRef r) const;
};

/// Run one copy/reduce step. Local steps are uncharged CPU: the rank's
/// next clock advance folds them in, exactly once.
void run_local_step(const NbcStep& s, const SchedBufs& b, BasicKind kind,
                    ReduceOp op);

// --- Selection and building --------------------------------------------------

/// One collective call, in the terms the builders read.
struct CollArgs {
  CollOp op = CollOp::kBarrier;
  int n = 1;     ///< comm (or team) size
  int me = 0;    ///< the calling rank's index in it
  int root = 0;
  /// Payload bytes: the whole buffer (bcast, the reductions), per rank
  /// (gather, scatter, allgather, reduce_scatter), per pair (alltoall),
  /// my send (gatherv, allgatherv) or my receive capacity (scatterv).
  std::size_t bytes = 0;
  std::size_t count = 0;  ///< elements reduced (per rank: reduce_scatter)
  BasicKind kind = BasicKind::kByte;
  ReduceOp rop = ReduceOp::kSum;
  /// Vectored layouts: the root's (gatherv, scatterv), everyone's
  /// receive side (allgatherv, alltoallv), the alltoallv send side.
  std::span<const std::size_t> counts, displs, scounts, sdispls;
  BufRef in{NbcBuf::kUserIn};
  BufRef out{NbcBuf::kUserOut};
};

/// `c`'s calling rank in one call of `op`.
CollArgs coll_args(const Comm& c, CollOp op, std::size_t bytes = 0,
                   int root = 0);
/// The same for a reduction of `count` elements of `kind`.
CollArgs reduce_args(const Comm& c, CollOp op, std::size_t count,
                     BasicKind kind, ReduceOp rop, int root = 0);

/// A typed call of `count` elements of `type`: the byte-level arguments
/// of its dense equivalent. Reductions need a uniform leaf kind.
CollArgs typed_args(const Comm& c, CollOp what, int count,
                    const Datatype& type, ReduceOp op, int root);

/// How a typed collective on a strided layout stages its payload, in
/// elements of the type: packed densely from the send buffer, the dense
/// result, and which side of it this rank packs (bcast is in place: its
/// root packs the buffer into the result) or unpacks.
struct TypedPlan {
  int in = 0;
  int out = 0;
  bool pack_out = false;
  bool unpack = false;
};
TypedPlan typed_plan(CollOp what, int count, int n, bool is_root);

/// The blocking algorithm `suite` runs for `a`, from the UniverseConfig
/// thresholds. hier selects like mv2 (it replaces only the operations
/// hier::run takes).
CollAlg select_alg(CollectiveSuite suite, const CollArgs& a,
                   const UniverseConfig& cfg);

/// Append `alg`'s schedule for `a` to `s` (`alg` is a blocking CollAlg).
void build(Schedule& s, CollAlg alg, const CollArgs& a);

/// Run `s` to completion on the calling rank of `c`, inside one CollSpan
/// for `span` (none for CollAlg::kCount) and one per nested phase. Each
/// round posts its receives, delivers its sends one by one (waiting out
/// a rendezvous before the next), then waits for the receives; a lone
/// receive takes blocking_recv's fast path. `tag` >= 0 replaces every
/// step's tag (the hier and communicator-management tags).
void run_schedule(const Comm& c, const Schedule& s, const void* in, void* out,
                  BasicKind kind, ReduceOp op, CollAlg span, int tag = -1);

}  // namespace jhpc::minimpi::detail
