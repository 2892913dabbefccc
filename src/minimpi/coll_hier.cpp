// The "hier" collective suite: two-level topology-aware algorithms in the
// XHC/SMHC style. See detail/coll_hier.hpp for the design contract and
// detail/transport.hpp (HierSeg) for the shared-segment memory-ordering
// rules.
//
// Every operation follows one template over its node's segment:
//
//   IN   members publish (slot.ptr/vtime) and arrive(seq)
//   MID  the node leader runs the inter-node phase among all leaders:
//        a schedule of the shared builders over the leader team
//   OUT  the leader publishes (pub_ptr/pub_vtime) and releases(seq);
//        members consume single-copy and acknowledge done(seq)
//   END  the leader (and the rank whose live buffer was published) waits
//        for every acknowledgement before returning
//
// The END wait is what pins the publisher's user buffer for the
// single-copy path — and what makes cross-operation reuse of the
// segment's non-atomic fields safe: nobody writes op seq+1 state before
// every reader of op seq has acknowledged.
//
// Virtual time: a flag hand-off costs hier_flag_ns (one cache-line
// transfer), not a trip through the shared-memory message channel; the
// payload copies are real CPU, charged exactly like the transport's
// copies. Waits poll the abort flag and the failure state, so a rank
// death surfaces as a typed RankFailedError instead of a spin-forever.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "detail/coll.hpp"
#include "detail/coll_hier.hpp"
#include "detail/transport.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail::hier {
namespace {

/// Per-call context: the caller's identity, clock and universe handles.
struct Ctx {
  UniverseImpl* uni;
  UniverseObs* o;  // null when observability is off
  RankClock* clock;
  int my_world;
  int cid;
  std::int64_t flag_ns;
};

Ctx make_ctx(const Comm& c) {
  const ObsAccess a = obs_access(c);
  return Ctx{a.uni, a.obs, a.clock, a.world_rank, a.context_id,
             a.uni->config.hier_flag_ns};
}

/// The comm's node decomposition. Groups are ordered by fabric node id;
/// within a group comm ranks ascend; the leader is the lowest comm rank.
/// Every rank derives the identical Topo (it is a pure function of the
/// comm's group and the fabric map).
struct Topo {
  std::vector<std::vector<int>> groups;  ///< comm ranks per node, ascending
  std::vector<int> node_ids;             ///< fabric node id per group
  std::vector<int> leaders;              ///< leaders[g] = groups[g][0]
  std::vector<int> group_of;             ///< comm rank -> group index
  int my_group = 0;
  std::size_t my_pos = 0;  ///< my index within groups[my_group]
  bool is_leader = false;
};

Topo topo_of(const Comm& c, const Ctx& h) {
  Topo t;
  const int size = c.size();
  std::map<int, std::vector<int>> by_node;
  for (int r = 0; r < size; ++r)
    by_node[h.uni->fabric.node_of(c.group().world_rank(r))].push_back(r);
  t.group_of.assign(static_cast<std::size_t>(size), -1);
  t.groups.reserve(by_node.size());
  for (auto& [node_id, members] : by_node) {
    const int g = static_cast<int>(t.groups.size());
    for (const int r : members) t.group_of[static_cast<std::size_t>(r)] = g;
    t.node_ids.push_back(node_id);
    t.leaders.push_back(members.front());
    t.groups.push_back(std::move(members));
  }
  const int me = c.rank();
  t.my_group = t.group_of[static_cast<std::size_t>(me)];
  const auto& mine = t.groups[static_cast<std::size_t>(t.my_group)];
  t.my_pos = static_cast<std::size_t>(
      std::lower_bound(mine.begin(), mine.end(), me) - mine.begin());
  t.is_leader = mine.front() == me;
  return t;
}

/// My node's segment, or nullptr when I am alone on my node (degenerate
/// hierarchy: nothing to synchronise intra-node).
HierSeg* segment_of(const Topo& t, const Ctx& h) {
  const auto& mine = t.groups[static_cast<std::size_t>(t.my_group)];
  if (mine.size() <= 1) return nullptr;
  return &h.uni->hier_segment(
      h.cid, t.node_ids[static_cast<std::size_t>(t.my_group)], mine.size());
}

/// Spin until `flag` >= seq, polling the abort flag and the failure
/// state so a dead peer or a revoked communicator surfaces as its typed
/// error instead of a hang. The spin's CPU is discarded afterwards via
/// resync (the rank is waiting, not computing).
void wait_flag(const Ctx& h, const std::atomic<std::uint64_t>& flag,
               std::uint64_t seq) {
  unsigned spins = 0;
  while (flag.load(std::memory_order_acquire) < seq) {
    if ((++spins & 0x3Fu) == 0) {
      h.uni->throw_if_aborted();
      h.uni->check_self_alive(h.my_world);
      h.uni->entry_checks(h.my_world, h.cid, /*peer_world=*/-1);
      if (h.uni->kills_on()) {
        if (auto dead = h.uni->dead_in_comm(h.cid); !dead.empty()) {
          h.uni->raise_failure(h.my_world, h.cid,
                               jhpc::ErrorCode::kRankFailed,
                               "hier collective: peer rank failed",
                               std::move(dead));
        }
      }
      std::this_thread::yield();
    }
  }
}

/// Settle the clock after a flag wait: discard the spin CPU, jump to the
/// publisher's time plus one flag hand-off, and account the virtual wait.
void observe_flag(const Ctx& h, std::int64_t publisher_vtime) {
  h.clock->resync_cpu();
  const std::int64_t target = publisher_vtime + h.flag_ns;
  if (h.o != nullptr) {
    const std::int64_t waited =
        target > h.clock->vclock ? target - h.clock->vclock : 0;
    h.o->rec.pvars().add(h.o->hier_flag_wait_ns, h.my_world, waited);
  }
  h.clock->observe(target);
}

void count_single_copy(const Ctx& h, std::size_t bytes) {
  if (h.o == nullptr) return;
  h.o->rec.pvars().add(h.o->hier_single_copy, h.my_world, 1);
  h.o->rec.pvars().add(h.o->hier_single_copy_bytes, h.my_world,
                       static_cast<std::int64_t>(bytes));
}

/// Leader-side wait for a set of member flags; returns the maximum
/// published member vtime. Each flag guards its own timestamp field
/// (vtime under arrive, vtime_done under done): a member that has seen
/// release for this seq may already be re-stamping for seq+1, so a
/// done-wait must never read the arrive-guarded word.
std::int64_t wait_members(const Ctx& h, HierSeg& seg, std::uint64_t seq,
                          std::size_t skip_a, std::size_t skip_b,
                          bool done_flags) {
  std::int64_t tmax = h.clock->vclock;
  for (std::size_t i = 0; i < seg.slots.size(); ++i) {
    if (i == skip_a || i == skip_b) continue;
    HierSeg::Slot& s = seg.slots[i];
    wait_flag(h, done_flags ? s.done : s.arrive, seq);
    tmax = std::max(tmax, done_flags ? s.vtime_done : s.vtime);
  }
  return tmax;
}

// --- Inter-node phase over the leader team ------------------------------
// `team` holds comm ranks (one per node, ordered by node id); `me_idx` is
// the caller's index in it. The shared builders run with team indices in
// place of comm ranks, on the parent communicator's reserved hier tags —
// no sub-communicator is materialised.

int position_in(const std::vector<int>& team, int comm_rank) {
  return static_cast<int>(
      std::find(team.begin(), team.end(), comm_rank) - team.begin());
}

/// Team-level arguments: root is a team index.
CollArgs leader_args(int root_idx, std::size_t bytes, std::size_t count = 0,
                     BasicKind kind = BasicKind::kByte,
                     ReduceOp op = ReduceOp::kSum) {
  CollArgs a;
  a.root = root_idx;
  a.bytes = bytes;
  a.count = count;
  a.kind = kind;
  a.rop = op;
  return a;
}

/// Build `alg` over the team and run it inline on hier tag `tag`.
void run_team(const Comm& c, const std::vector<int>& team, int me_idx,
              CollAlg alg, CollArgs a, const void* in, void* out, int tag) {
  a.n = static_cast<int>(team.size());
  a.me = me_idx;
  Schedule s;
  build(s, alg, a);
  for (NbcStep& st : s.steps) {
    if (st.kind == NbcStepKind::kSend || st.kind == NbcStepKind::kRecv)
      st.peer = team[static_cast<std::size_t>(st.peer)];
  }
  run_schedule(c, s, in, out, a.kind, a.rop, CollAlg::kCount, tag);
}

constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

void barrier(const Comm& c) {
  if (c.size() == 1) return;
  const Ctx h = make_ctx(c);
  h.clock->advance_cpu();
  h.uni->check_self_alive(h.my_world);
  h.uni->entry_checks(h.my_world, h.cid, -1);
  CollSpan span(c, CollAlg::kHierBarrier);
  const Topo t = topo_of(c, h);
  HierSeg* seg = segment_of(t, h);
  const std::uint64_t seq =
      seg != nullptr ? ++seg->slots[t.my_pos].local_seq : 0;

  if (t.is_leader) {
    if (seg != nullptr) {
      // Gather-in: everyone on my node has arrived.
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/false));
    }
    if (t.leaders.size() > 1) {
      run_team(c, t.leaders, t.group_of[static_cast<std::size_t>(c.rank())],
               CollAlg::kBarrierDissemination, CollArgs{}, nullptr, nullptr,
               kTagHierBarrier);
    }
    if (seg != nullptr) {
      h.clock->advance_cpu();
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/true));
    }
  } else {
    HierSeg::Slot& mine = seg->slots[t.my_pos];
    mine.vtime = h.clock->vclock;
    mine.arrive.store(seq, std::memory_order_release);
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    mine.vtime_done = h.clock->vclock;
    mine.done.store(seq, std::memory_order_release);
  }
}

void bcast(const Comm& c, void* buf, std::size_t bytes, int root) {
  if (c.size() == 1 || bytes == 0) return;
  const Ctx h = make_ctx(c);
  h.clock->advance_cpu();
  h.uni->check_self_alive(h.my_world);
  h.uni->entry_checks(h.my_world, h.cid, -1);
  CollSpan span(c, CollAlg::kHierBcast);
  const Topo t = topo_of(c, h);
  const int me = c.rank();
  const int root_group = t.group_of[static_cast<std::size_t>(root)];
  HierSeg* seg = segment_of(t, h);
  const std::uint64_t seq =
      seg != nullptr ? ++seg->slots[t.my_pos].local_seq : 0;
  const auto& mine = t.groups[static_cast<std::size_t>(t.my_group)];
  const std::size_t root_pos =
      t.my_group == root_group
          ? static_cast<std::size_t>(
                std::lower_bound(mine.begin(), mine.end(), root) -
                mine.begin())
          : kNoSkip;

  if (t.is_leader) {
    const int my_leader_idx = position_in(t.leaders, me);
    const int root_leader_idx = position_in(
        t.leaders, t.leaders[static_cast<std::size_t>(root_group)]);
    auto inter_bcast = [&] {
      run_team(c, t.leaders, my_leader_idx, CollAlg::kBcastBinomial,
               leader_args(root_leader_idx, bytes), buf, buf, kTagHierBcast);
    };
    if (t.my_group == root_group && me != root) {
      // The data enters through root's published buffer: copy it out
      // directly (my own receive IS the single-copy).
      HierSeg::Slot& rs = seg->slots[root_pos];
      wait_flag(h, rs.arrive, seq);
      observe_flag(h, rs.vtime);
      {
        ChargedSection charged(*h.clock);
        std::memcpy(buf, rs.ptr, bytes);
      }
      count_single_copy(h, bytes);
      seg->pub_ptr = rs.ptr;  // members copy straight from root's buffer
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      inter_bcast();
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, root_pos,
                                   /*done_flags=*/true));
      // Relay "everyone is done with your buffer" to the non-leader
      // root — it must not scan the done flags itself (HierSeg docs) —
      // then collect the root's ack so pub/all_done state can be
      // rewritten next op without racing the root's reads.
      seg->all_done_vtime = h.clock->vclock;
      seg->all_done.store(seq, std::memory_order_release);
      HierSeg::Slot& rs2 = seg->slots[root_pos];
      wait_flag(h, rs2.done, seq);
      observe_flag(h, rs2.vtime_done);
    } else {
      if (me != root)
        inter_bcast();
      if (seg != nullptr) {
        h.clock->advance_cpu();
        seg->pub_ptr = buf;
        seg->pub_vtime = h.clock->vclock;
        seg->release.store(seq, std::memory_order_release);
        if (me == root) inter_bcast();
        observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                     /*done_flags=*/true));
      } else if (me == root) {
        inter_bcast();
      }
    }
  } else if (me == root) {
    // Non-leader root: publish my live buffer; the leader republishes it
    // and forwards inter-node; peers copy straight out of it.
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    mineslot.ptr = buf;
    mineslot.vtime = h.clock->vclock;
    mineslot.arrive.store(seq, std::memory_order_release);
    // release signals the leader's own copy completed; the leader's
    // all_done relay covers every other member's. Only then is `buf`
    // free to reuse. (Scanning the done flags here would race: the
    // leader releases before collecting them, so a fast member could
    // already be re-stamping for the next op.)
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    wait_flag(h, seg->all_done, seq);
    observe_flag(h, seg->all_done_vtime);
    // Ack: my reads of pub/all_done state are finished (the leader
    // collects this before it may rewrite them next op).
    mineslot.vtime_done = h.clock->vclock;
    mineslot.done.store(seq, std::memory_order_release);
  } else {
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    {
      ChargedSection charged(*h.clock);
      std::memcpy(buf, seg->pub_ptr, bytes);
    }
    count_single_copy(h, bytes);
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    mineslot.vtime_done = h.clock->vclock;
    mineslot.done.store(seq, std::memory_order_release);
  }
}

void reduce(const Comm& c, const void* sbuf, void* rbuf, std::size_t count,
            BasicKind kind, ReduceOp op, int root) {
  const std::size_t bytes = count * basic_size(kind);
  if (c.size() == 1) {
    if (rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
    return;
  }
  if (count == 0) return;
  const Ctx h = make_ctx(c);
  h.clock->advance_cpu();
  h.uni->check_self_alive(h.my_world);
  h.uni->entry_checks(h.my_world, h.cid, -1);
  CollSpan span(c, CollAlg::kHierReduce);
  const Topo t = topo_of(c, h);
  const int me = c.rank();
  const int root_group = t.group_of[static_cast<std::size_t>(root)];
  const int root_leader = t.leaders[static_cast<std::size_t>(root_group)];
  HierSeg* seg = segment_of(t, h);
  const std::uint64_t seq =
      seg != nullptr ? ++seg->slots[t.my_pos].local_seq : 0;

  if (t.is_leader) {
    // Node-local accumulation, folding member inputs directly out of
    // their live buffers in ascending comm-rank order.
    const bool am_root = me == root;
    std::vector<std::byte> tmp;
    void* acc;
    if (am_root) {
      acc = rbuf;
      if (rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
    } else {
      tmp.resize(bytes);
      std::memcpy(tmp.data(), sbuf, bytes);
      acc = tmp.data();
    }
    if (seg != nullptr) {
      for (std::size_t i = 0; i < seg->slots.size(); ++i) {
        if (i == t.my_pos) continue;
        HierSeg::Slot& s = seg->slots[i];
        wait_flag(h, s.arrive, seq);
        observe_flag(h, s.vtime);
        {
          ChargedSection charged(*h.clock);
          apply_reduce(op, kind, acc, s.ptr, count);
        }
        count_single_copy(h, bytes);
      }
      // Inputs consumed: members' send buffers are theirs again.
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/true));
    }
    run_team(c, t.leaders, position_in(t.leaders, me),
             CollAlg::kReduceBinomial,
             leader_args(position_in(t.leaders, root_leader), bytes, count,
                         kind, op),
             acc, acc, kTagHierReduce);
    // Hand the result to a non-leader root: a two-rank bcast.
    if (me == root_leader && !am_root) {
      run_team(c, {root_leader, root}, 0, CollAlg::kBcastBinomial,
               leader_args(0, bytes), acc, acc, kTagHierRootXfer);
    }
  } else {
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    mineslot.ptr = sbuf;
    mineslot.vtime = h.clock->vclock;
    mineslot.arrive.store(seq, std::memory_order_release);
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    mineslot.vtime_done = h.clock->vclock;
    mineslot.done.store(seq, std::memory_order_release);
    if (me == root) {
      run_team(c, {root_leader, root}, 1, CollAlg::kBcastBinomial,
               leader_args(0, bytes), rbuf, rbuf, kTagHierRootXfer);
    }
  }
}

void allreduce(const Comm& c, const void* sbuf, void* rbuf,
               std::size_t count, BasicKind kind, ReduceOp op) {
  const std::size_t bytes = count * basic_size(kind);
  if (c.size() == 1) {
    if (rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
    return;
  }
  if (count == 0) return;
  const Ctx h = make_ctx(c);
  h.clock->advance_cpu();
  h.uni->check_self_alive(h.my_world);
  h.uni->entry_checks(h.my_world, h.cid, -1);
  CollSpan span(c, CollAlg::kHierAllreduce);
  const Topo t = topo_of(c, h);
  const int me = c.rank();
  HierSeg* seg = segment_of(t, h);
  const std::uint64_t seq =
      seg != nullptr ? ++seg->slots[t.my_pos].local_seq : 0;

  if (t.is_leader) {
    if (rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
    if (seg != nullptr) {
      for (std::size_t i = 0; i < seg->slots.size(); ++i) {
        if (i == t.my_pos) continue;
        HierSeg::Slot& s = seg->slots[i];
        wait_flag(h, s.arrive, seq);
        observe_flag(h, s.vtime);
        {
          ChargedSection charged(*h.clock);
          apply_reduce(op, kind, rbuf, s.ptr, count);
        }
        count_single_copy(h, bytes);
      }
    }
    run_team(c, t.leaders, position_in(t.leaders, me),
             CollAlg::kAllreduceRecursiveDoubling,
             leader_args(0, bytes, count, kind, op), rbuf, rbuf,
             kTagHierAllreduce);
    if (seg != nullptr) {
      h.clock->advance_cpu();
      seg->pub_ptr = rbuf;
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/true));
    }
  } else {
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    mineslot.ptr = sbuf;
    mineslot.vtime = h.clock->vclock;
    mineslot.arrive.store(seq, std::memory_order_release);
    // release here means both "input consumed" and "result published":
    // the leader folds before the inter phase and publishes after it.
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    {
      ChargedSection charged(*h.clock);
      std::memcpy(rbuf, seg->pub_ptr, bytes);
    }
    count_single_copy(h, bytes);
    mineslot.vtime_done = h.clock->vclock;
    mineslot.done.store(seq, std::memory_order_release);
  }
}

void gather(const Comm& c, const void* sbuf, std::size_t bpr, void* rbuf,
            int root) {
  if (c.size() == 1) {
    std::memcpy(rbuf, sbuf, bpr);
    return;
  }
  if (bpr == 0) return;
  const Ctx h = make_ctx(c);
  h.clock->advance_cpu();
  h.uni->check_self_alive(h.my_world);
  h.uni->entry_checks(h.my_world, h.cid, -1);
  CollSpan span(c, CollAlg::kHierGather);
  const Topo t = topo_of(c, h);
  const int me = c.rank();
  const int root_group = t.group_of[static_cast<std::size_t>(root)];
  HierSeg* seg = segment_of(t, h);
  const std::uint64_t seq =
      seg != nullptr ? ++seg->slots[t.my_pos].local_seq : 0;
  const auto& mine = t.groups[static_cast<std::size_t>(t.my_group)];
  // The node collector concatenates its node's blocks: the root itself on
  // root's node (blocks land at their final offsets), the leader
  // elsewhere (blocks coalesce into one inter-node message).
  const bool am_collector =
      t.my_group == root_group ? me == root : t.is_leader;

  std::vector<std::byte> staging;
  if (am_collector && seg != nullptr) {
    auto* out = static_cast<std::byte*>(rbuf);
    if (me != root) {
      staging.resize(mine.size() * bpr);
      out = staging.data();
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const int r = mine[i];
      const std::byte* src;
      if (i == t.my_pos) {
        src = static_cast<const std::byte*>(sbuf);
      } else {
        HierSeg::Slot& s = seg->slots[i];
        wait_flag(h, s.arrive, seq);
        observe_flag(h, s.vtime);
        src = static_cast<const std::byte*>(s.ptr);
      }
      std::byte* dst = me == root
                           ? out + static_cast<std::size_t>(r) * bpr
                           : out + i * bpr;
      {
        ChargedSection charged(*h.clock);
        std::memcpy(dst, src, bpr);
      }
      if (i != t.my_pos) count_single_copy(h, bpr);
    }
  } else if (am_collector && me != root) {
    // Alone on my node: my block is the whole inter-node message.
    staging.resize(bpr);
    std::memcpy(staging.data(), sbuf, bpr);
  } else if (am_collector) {
    std::memcpy(static_cast<std::byte*>(rbuf) +
                    static_cast<std::size_t>(me) * bpr,
                sbuf, bpr);
  }

  if (am_collector && !t.is_leader) {
    // Root collected but the leader owns the release flag: hand the
    // "inputs consumed" signal over through my own arrive flag, then
    // wait for the leader's release ack — without it, my next-op
    // re-stamp of this slot would not be ordered after the leader's
    // read of the consumed signal.
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    mineslot.vtime = h.clock->vclock;
    mineslot.arrive.store(seq, std::memory_order_release);
    wait_flag(h, seg->release, seq);
    observe_flag(h, seg->pub_vtime);
    mineslot.vtime_done = h.clock->vclock;
    mineslot.done.store(seq, std::memory_order_release);
  }

  if (t.is_leader && seg != nullptr) {
    if (!am_collector && t.my_group == root_group) {
      // Root's node, root != leader: contribute my block, wait for the
      // root's consumed signal, then release on its behalf.
      HierSeg::Slot& mineslot = seg->slots[t.my_pos];
      mineslot.ptr = sbuf;
      mineslot.vtime = h.clock->vclock;
      mineslot.arrive.store(seq, std::memory_order_release);
      const std::size_t root_pos = static_cast<std::size_t>(
          std::lower_bound(mine.begin(), mine.end(), root) - mine.begin());
      HierSeg::Slot& rs = seg->slots[root_pos];
      wait_flag(h, rs.arrive, seq);
      observe_flag(h, rs.vtime);
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      // Include the root: it acks done after its release-ack read of
      // pub_vtime, so pub state is safe to rewrite next op.
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/true));
    } else if (am_collector) {
      seg->pub_vtime = h.clock->vclock;
      seg->release.store(seq, std::memory_order_release);
      observe_flag(h, wait_members(h, *seg, seq, t.my_pos, kNoSkip,
                                   /*done_flags=*/true));
    }
  } else if (!am_collector && seg != nullptr) {
    HierSeg::Slot& mineslot = seg->slots[t.my_pos];
    if (t.my_group != root_group || me != root) {
      mineslot.ptr = sbuf;
      mineslot.vtime = h.clock->vclock;
      mineslot.arrive.store(seq, std::memory_order_release);
      wait_flag(h, seg->release, seq);
      observe_flag(h, seg->pub_vtime);
      mineslot.vtime_done = h.clock->vclock;
      mineslot.done.store(seq, std::memory_order_release);
    }
  }

  // Inter-node phase: one coalesced message per remote node, collector ->
  // root — a gatherv over the node collectors — unpacked by the shared
  // topology.
  if (me != root && !am_collector) return;
  std::vector<int> collectors = t.leaders;
  collectors[static_cast<std::size_t>(root_group)] = root;
  std::vector<std::size_t> counts;
  std::vector<std::size_t> displs;
  std::size_t total = 0;
  for (std::size_t g = 0; g < t.groups.size(); ++g) {
    displs.push_back(total);
    counts.push_back(static_cast<int>(g) == root_group
                         ? 0
                         : t.groups[g].size() * bpr);
    total += counts.back();
  }
  if (me == root) staging.assign(total, std::byte{0});
  CollArgs a = leader_args(root_group, me == root ? 0 : staging.size());
  a.counts = counts;
  a.displs = displs;
  run_team(c, collectors, t.my_group, CollAlg::kGathervLinear, a,
           staging.data(), staging.data(), kTagHierGather);
  if (me != root) return;
  auto* out = static_cast<std::byte*>(rbuf);
  for (std::size_t g = 0; g < t.groups.size(); ++g) {
    for (std::size_t i = 0; i < counts[g] / bpr; ++i) {
      std::memcpy(out + static_cast<std::size_t>(t.groups[g][i]) * bpr,
                  staging.data() + displs[g] + i * bpr, bpr);
    }
  }
}

}  // namespace

bool run(const Comm& c, const CollArgs& a, const void* in, void* out) {
  switch (a.op) {
    case CollOp::kBarrier:
      barrier(c);
      return true;
    case CollOp::kBcast:
      bcast(c, out, a.bytes, a.root);
      return true;
    case CollOp::kReduce:
      reduce(c, in, out, a.count, a.kind, a.rop, a.root);
      return true;
    case CollOp::kAllreduce:
      allreduce(c, in, out, a.count, a.kind, a.rop);
      return true;
    case CollOp::kGather:
      gather(c, in, a.bytes, out, a.root);
      return true;
    default:
      return false;
  }
}

}  // namespace jhpc::minimpi::detail::hier
