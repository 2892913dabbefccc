// Collective algorithms as schedules (see detail/coll.hpp): one builder
// per blocking algorithm, the selector that picks among them, and the
// executor that runs a schedule inline on the calling rank.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "detail/coll.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail {

// --- Schedule ----------------------------------------------------------------

void Schedule::round() {
  if (rounds.empty() || rounds.back().first != rounds.back().last)
    rounds.push_back({steps.size(), steps.size()});
}

void Schedule::add(const NbcStep& s) {
  if (rounds.empty()) round();
  steps.push_back(s);
  rounds.back().last = steps.size();
}

void Schedule::send(int peer, BufRef src, std::size_t bytes, int tag) {
  add({NbcStepKind::kSend, peer, tag, src, {}, bytes});
}

void Schedule::recv(int peer, BufRef dst, std::size_t bytes, int tag) {
  add({NbcStepKind::kRecv, peer, tag, {}, dst, bytes});
}

void Schedule::copy(BufRef src, BufRef dst, std::size_t bytes) {
  add({NbcStepKind::kCopy, -1, 0, src, dst, bytes});
}

void Schedule::reduce(BufRef src, BufRef acc, std::size_t count) {
  add({NbcStepKind::kReduce, -1, 0, src, acc, count});
}

BufRef Schedule::scratch(std::size_t bytes) {
  const BufRef r{NbcBuf::kScratch, scratch_bytes};
  scratch_bytes += bytes;
  return r;
}

void Schedule::phase(CollAlg alg) {
  round();
  phases.push_back({alg, steps.size()});
}

std::byte* SchedBufs::at(BufRef r) const {
  switch (r.buf) {
    case NbcBuf::kUserIn:
      // Never written through: only send payloads and copy/reduce
      // sources address the input buffer.
      return const_cast<std::byte*>(in) + r.off;
    case NbcBuf::kUserOut:
      return out + r.off;
    case NbcBuf::kScratch:
      return scratch + r.off;
  }
  return nullptr;
}

void run_local_step(const NbcStep& s, const SchedBufs& b, BasicKind kind,
                    ReduceOp op) {
  if (s.kind == NbcStepKind::kCopy) {
    const std::byte* src = b.at(s.src);
    std::byte* dst = b.at(s.dst);
    if (s.bytes != 0 && dst != src) std::memcpy(dst, src, s.bytes);
  } else if (s.kind == NbcStepKind::kReduce) {
    apply_reduce(op, kind, b.at(s.dst), b.at(s.src), s.bytes);
  }
}

namespace {

int mod(int a, int n) { return ((a % n) + n) % n; }

std::size_t z(int v) { return static_cast<std::size_t>(v); }

/// Largest power of two <= n (n >= 1).
int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Byte range of part k when `units` elements of `unit` bytes are split
/// over n parts as evenly as possible.
struct Chunk {
  std::size_t off;
  std::size_t len;
};

Chunk chunk_of(std::size_t units, std::size_t unit, int n, int k) {
  const std::size_t first = units * z(k) / z(n);
  const std::size_t last = units * z(k + 1) / z(n);
  return {first * unit, (last - first) * unit};
}

// --- mv2 ---------------------------------------------------------------------

void barrier_dissemination(Schedule& s, const CollArgs& a) {
  // ceil(log2 n) rounds. Distinct out/in token bytes: the round posts the
  // receive before the send completes.
  const BufRef out = s.scratch(1);
  const BufRef in = s.scratch(1);
  for (int mask = 1; mask < a.n; mask <<= 1) {
    s.round();
    s.recv(mod(a.me - mask, a.n), in, 1, kTagBarrier);
    s.send(mod(a.me + mask, a.n), out, 1, kTagBarrier);
  }
}

void bcast_binomial(Schedule& s, const CollArgs& a) {
  // Receive from the parent, then fan out to every child, largest
  // subtree first.
  const int n = a.n;
  const int rel = mod(a.me - a.root, n);
  int mask = 1;
  for (; mask < n; mask <<= 1) {
    if (rel & mask) {
      s.round();
      s.recv(mod(rel - mask + a.root, n), a.out, a.bytes, kTagBcast);
      break;
    }
  }
  s.round();
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask < n)
      s.send(mod(rel + mask + a.root, n), a.out, a.bytes, kTagBcast);
  }
}

void bcast_scatter_ring(Schedule& s, const CollArgs& a) {
  // Large payloads: the root scatters one chunk to every rank, then a
  // ring allgather circulates them, keeping every link busy.
  const int n = a.n;
  const int r = a.me;
  auto chunk = [&](int k) { return chunk_of(a.bytes, 1, n, k); };
  s.round();
  if (r == a.root) {
    for (int k = 0; k < n; ++k) {
      const Chunk c = chunk(k);
      if (k != r && c.len > 0)
        s.send(k, a.out.at(c.off), c.len, kTagBcastScatter);
    }
  } else if (const Chunk c = chunk(r); c.len > 0) {
    s.recv(a.root, a.out.at(c.off), c.len, kTagBcastScatter);
  }
  for (int k = 0; k < n - 1; ++k) {
    const Chunk sc = chunk(mod(r - k, n));
    const Chunk rc = chunk(mod(r - k - 1, n));
    s.round();
    s.recv(mod(r - 1, n), a.out.at(rc.off), rc.len, kTagBcastRing);
    s.send(mod(r + 1, n), a.out.at(sc.off), sc.len, kTagBcastRing);
  }
}

void reduce_binomial(Schedule& s, const CollArgs& a) {
  // Fold each child's partial into the accumulator, then send it up.
  const int n = a.n;
  const int rel = mod(a.me - a.root, n);
  const BufRef acc = s.scratch(a.bytes);
  const BufRef in = s.scratch(a.bytes);
  s.copy(a.in, acc, a.bytes);
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rel & mask) == 0) {
      if ((rel | mask) < n) {
        s.round();
        s.recv(mod((rel | mask) + a.root, n), in, a.bytes, kTagReduce);
        s.reduce(in, acc, a.count);
      }
    } else {
      s.round();
      s.send(mod((rel & ~mask) + a.root, n), acc, a.bytes, kTagReduce);
      break;
    }
  }
  if (rel == 0) s.copy(acc, a.out, a.bytes);
}

void allreduce_recursive_doubling(Schedule& s, const CollArgs& a) {
  // The first 2*rem ranks fold pairwise so a power of two remains; those
  // exchange by recursive doubling; the folded-out ranks get the result.
  const int n = a.n;
  const int r = a.me;
  const int pof2 = floor_pow2(n);
  const int rem = n - pof2;
  const BufRef in = s.scratch(a.bytes);
  s.copy(a.in, a.out, a.bytes);
  int newrank = r - rem;
  if (r < 2 * rem) {
    s.round();
    if (r % 2 == 0) {
      s.send(r + 1, a.out, a.bytes, kTagAllreduce);
      newrank = -1;
    } else {
      s.recv(r - 1, in, a.bytes, kTagAllreduce);
      s.reduce(in, a.out, a.count);
      newrank = r / 2;
    }
  }
  for (int mask = 1; newrank >= 0 && mask < pof2; mask <<= 1) {
    const int pn = newrank ^ mask;
    const int partner = pn < rem ? pn * 2 + 1 : pn + rem;
    s.round();
    s.recv(partner, in, a.bytes, kTagAllreduce);
    s.send(partner, a.out, a.bytes, kTagAllreduce);
    s.reduce(in, a.out, a.count);
  }
  if (r < 2 * rem) {
    s.round();
    if (r % 2 != 0) {
      s.send(r - 1, a.out, a.bytes, kTagAllreduce);
    } else {
      s.recv(r + 1, a.out, a.bytes, kTagAllreduce);
    }
  }
}

void allreduce_ring(Schedule& s, const CollArgs& a) {
  // Ring reduce-scatter (rank r ends owning chunk r+1), then a ring
  // allgather of the finished chunks. Chunks are element-aligned.
  const int n = a.n;
  const int r = a.me;
  const std::size_t e = basic_size(a.kind);
  s.copy(a.in, a.out, a.bytes);
  if (n == 1) return;
  auto chunk = [&](int k) { return chunk_of(a.count, e, n, k); };
  std::size_t max_chunk = 0;
  for (int k = 0; k < n; ++k) max_chunk = std::max(max_chunk, chunk(k).len);
  const BufRef in = s.scratch(max_chunk);
  for (int k = 0; k < n - 1; ++k) {
    const Chunk sc = chunk(mod(r - k, n));
    const Chunk rc = chunk(mod(r - k - 1, n));
    s.round();
    s.recv(mod(r - 1, n), in, rc.len, kTagAllreduceRs);
    s.send(mod(r + 1, n), a.out.at(sc.off), sc.len, kTagAllreduceRs);
    s.reduce(in, a.out.at(rc.off), rc.len / e);
  }
  for (int k = 0; k < n - 1; ++k) {
    const Chunk sc = chunk(mod(r + 1 - k, n));
    const Chunk rc = chunk(mod(r - k, n));
    s.round();
    s.recv(mod(r - 1, n), a.out.at(rc.off), rc.len, kTagAllreduceAg);
    s.send(mod(r + 1, n), a.out.at(sc.off), sc.len, kTagAllreduceAg);
  }
}

void reduce_scatter_ring(Schedule& s, const CollArgs& a) {
  // Each block travels the ring accumulating partials and comes to rest
  // at its owner (rank r ends owning block r).
  const int n = a.n;
  const int r = a.me;
  const std::size_t block = a.bytes;
  if (n == 1) {
    s.copy(a.in, a.out, block);
    return;
  }
  const BufRef work = s.scratch(z(n) * block);
  const BufRef in = s.scratch(block);
  s.copy(a.in, work, z(n) * block);
  for (int k = 0; k < n - 1; ++k) {
    s.round();
    s.recv(mod(r - 1, n), in, block, kTagReduceScatter);
    s.send(mod(r + 1, n), work.at(z(mod(r - k - 1, n)) * block), block,
           kTagReduceScatter);
    s.reduce(in, work.at(z(mod(r - k - 2, n)) * block), a.count);
  }
  s.copy(work.at(z(r) * block), a.out, block);
}

void scan_recursive_doubling(Schedule& s, const CollArgs& a) {
  // Inclusive scan for commutative operators: a running total of
  // [r - 2^k + 1, r] travels up; lower partials fold into the result.
  const int n = a.n;
  const int r = a.me;
  s.copy(a.in, a.out, a.bytes);
  if (n == 1) return;
  const BufRef partial = s.scratch(a.bytes);
  const BufRef in = s.scratch(a.bytes);
  s.copy(a.in, partial, a.bytes);
  for (int mask = 1; mask < n; mask <<= 1) {
    if (r + mask < n) {
      s.round();
      s.send(r + mask, partial, a.bytes, kTagScan);
    }
    if (r - mask >= 0) {
      s.round();
      s.recv(r - mask, in, a.bytes, kTagScan);
      s.reduce(in, partial, a.count);
      s.reduce(in, a.out, a.count);
    }
  }
}

void gather_binomial(Schedule& s, const CollArgs& a) {
  // Each subtree root accumulates its subtree's blocks in relative order;
  // the root rotates them into rank order.
  const int n = a.n;
  const int rel = mod(a.me - a.root, n);
  const std::size_t bpr = a.bytes;
  const BufRef tmp = s.scratch(z(n) * bpr);
  s.copy(a.in, tmp, bpr);
  int have = 1;
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rel & mask) == 0) {
      const int src = rel | mask;
      if (src < n) {
        const int blocks = std::min(mask, n - src);
        s.round();
        s.recv(mod(src + a.root, n), tmp.at(z(mask) * bpr), z(blocks) * bpr,
               kTagGather);
        have += blocks;
      }
    } else {
      s.round();
      s.send(mod((rel & ~mask) + a.root, n), tmp, z(have) * bpr, kTagGather);
      break;
    }
  }
  if (rel != 0) return;
  for (int k = 0; k < n; ++k)
    s.copy(tmp.at(z(k) * bpr), a.out.at(z(mod(k + a.root, n)) * bpr), bpr);
}

void scatter_binomial(Schedule& s, const CollArgs& a) {
  // Mirror of the gather: the root seeds a relative-order copy, inner
  // nodes forward their subtree's tail, largest subtree first.
  const int n = a.n;
  const int rel = mod(a.me - a.root, n);
  const std::size_t bpr = a.bytes;
  int have = n;
  BufRef tmp;
  if (rel == 0) {
    tmp = s.scratch(z(n) * bpr);
    for (int k = 0; k < n; ++k)
      s.copy(a.in.at(z(mod(k + a.root, n)) * bpr), tmp.at(z(k) * bpr), bpr);
  } else {
    int mask = 1;
    while ((rel & mask) == 0) mask <<= 1;
    have = std::min(mask, n - rel);
    tmp = s.scratch(z(have) * bpr);
    s.round();
    s.recv(mod((rel & ~mask) + a.root, n), tmp, z(have) * bpr, kTagScatter);
  }
  int top = 1;
  while (top < n) top <<= 1;
  s.round();
  for (int mask = top >> 1; mask > 0; mask >>= 1) {
    if (rel + mask < n && mask < have) {
      s.send(mod(rel + mask + a.root, n), tmp.at(z(mask) * bpr),
             z(std::min(mask, n - (rel + mask))) * bpr, kTagScatter);
      have = mask;
    }
  }
  s.copy(tmp, a.out, bpr);
}

void allgather_recursive_doubling(Schedule& s, const CollArgs& a) {
  const int r = a.me;
  const std::size_t bpr = a.bytes;
  s.copy(a.in, a.out.at(z(r) * bpr), bpr);
  for (int mask = 1; mask < a.n; mask <<= 1) {
    const int partner = r ^ mask;
    s.round();
    s.recv(partner, a.out.at(z(partner & ~(mask - 1)) * bpr), z(mask) * bpr,
           kTagAllgather);
    s.send(partner, a.out.at(z(r & ~(mask - 1)) * bpr), z(mask) * bpr,
           kTagAllgather);
  }
}

void allgather_ring(Schedule& s, const CollArgs& a) {
  // Step k forwards the block received k steps ago.
  const int n = a.n;
  const int r = a.me;
  const std::size_t bpr = a.bytes;
  s.copy(a.in, a.out.at(z(r) * bpr), bpr);
  for (int k = 0; k < n - 1; ++k) {
    s.round();
    s.recv(mod(r - 1, n), a.out.at(z(mod(r - k - 1, n)) * bpr), bpr,
           kTagAllgather);
    s.send(mod(r + 1, n), a.out.at(z(mod(r - k, n)) * bpr), bpr,
           kTagAllgather);
  }
}

void alltoall_pairwise(Schedule& s, const CollArgs& a) {
  // n-1 balanced exchanges: step k trades with r+k / r-k.
  const int n = a.n;
  const int r = a.me;
  const std::size_t bpp = a.bytes;
  s.copy(a.in.at(z(r) * bpp), a.out.at(z(r) * bpp), bpp);
  for (int k = 1; k < n; ++k) {
    const int dst = mod(r + k, n);
    const int src = mod(r - k, n);
    s.round();
    s.recv(src, a.out.at(z(src) * bpp), bpp, kTagAlltoall);
    s.send(dst, a.in.at(z(dst) * bpp), bpp, kTagAlltoall);
  }
}

void allgatherv_ring(Schedule& s, const CollArgs& a) {
  // Block k travels k hops right.
  const int n = a.n;
  const int r = a.me;
  s.copy(a.in, a.out.at(a.displs[z(r)]), a.bytes);
  for (int k = 0; k < n - 1; ++k) {
    const std::size_t si = z(mod(r - k, n));
    const std::size_t ri = z(mod(r - k - 1, n));
    s.round();
    s.recv(mod(r - 1, n), a.out.at(a.displs[ri]), a.counts[ri],
           kTagAllgatherv);
    s.send(mod(r + 1, n), a.out.at(a.displs[si]), a.counts[si],
           kTagAllgatherv);
  }
}

void alltoallv_pairwise(Schedule& s, const CollArgs& a) {
  const int n = a.n;
  const std::size_t r = z(a.me);
  s.copy(a.in.at(a.sdispls[r]), a.out.at(a.displs[r]), a.scounts[r]);
  for (int k = 1; k < n; ++k) {
    const std::size_t dst = z(mod(a.me + k, n));
    const std::size_t src = z(mod(a.me - k, n));
    s.round();
    s.recv(static_cast<int>(src), a.out.at(a.displs[src]), a.counts[src],
           kTagAlltoallv);
    s.send(static_cast<int>(dst), a.in.at(a.sdispls[dst]), a.scounts[dst],
           kTagAlltoallv);
  }
}

// --- basic: everything funnels through the root (rank 0 when rootless),
// the serialisation the paper blames for Open MPI's collective numbers ---

void barrier_linear(Schedule& s, const CollArgs& a) {
  // Fan tokens in to rank 0, one receive at a time, then fan them out.
  const BufRef token = s.scratch(1);
  if (a.me == 0) {
    for (int k = 1; k < a.n; ++k) {
      s.round();
      s.recv(k, token, 1, kTagBarrier);
    }
    s.round();
    for (int k = 1; k < a.n; ++k) s.send(k, token, 1, kTagBarrier);
  } else {
    s.round();
    s.send(0, token, 1, kTagBarrier);
    s.round();
    s.recv(0, token, 1, kTagBarrier);
  }
}

void bcast_linear(Schedule& s, const CollArgs& a) {
  s.round();
  if (a.me != a.root) {
    s.recv(a.root, a.out, a.bytes, kTagBcast);
    return;
  }
  for (int k = 0; k < a.n; ++k)
    if (k != a.root) s.send(k, a.out, a.bytes, kTagBcast);
}

void reduce_linear(Schedule& s, const CollArgs& a) {
  if (a.me != a.root) {
    s.round();
    s.send(a.root, a.in, a.bytes, kTagReduce);
    return;
  }
  s.copy(a.in, a.out, a.bytes);
  const BufRef in = s.scratch(a.bytes);
  for (int k = 0; k < a.n; ++k) {
    if (k == a.root) continue;
    s.round();
    s.recv(k, in, a.bytes, kTagReduce);
    s.reduce(in, a.out, a.count);
  }
}

void allreduce_linear(Schedule& s, const CollArgs& a) {
  CollArgs at0 = a;
  at0.root = 0;
  s.phase(CollAlg::kReduceLinear);
  reduce_linear(s, at0);
  s.phase(CollAlg::kBcastLinear);
  bcast_linear(s, at0);
}

void scatter_linear(Schedule& s, const CollArgs& a) {
  if (a.me != a.root) {
    s.round();
    s.recv(a.root, a.out, a.bytes, kTagScatter);
    return;
  }
  s.copy(a.in.at(z(a.root) * a.bytes), a.out, a.bytes);
  s.round();
  for (int k = 0; k < a.n; ++k)
    if (k != a.root) s.send(k, a.in.at(z(k) * a.bytes), a.bytes, kTagScatter);
}

void reduce_scatter_linear(Schedule& s, const CollArgs& a) {
  // Reduce everything to rank 0, scatter the blocks back out.
  CollArgs red = a;
  red.root = 0;
  red.out = s.scratch(z(a.n) * a.bytes);
  red.bytes = z(a.n) * a.bytes;
  red.count = z(a.n) * a.count;
  s.phase(CollAlg::kReduceLinear);
  reduce_linear(s, red);
  CollArgs sca = a;
  sca.root = 0;
  sca.in = red.out;
  s.phase(CollAlg::kScatterLinear);
  scatter_linear(s, sca);
}

void scan_linear(Schedule& s, const CollArgs& a) {
  // A chain: fold the predecessor's prefix, pass mine downstream.
  s.copy(a.in, a.out, a.bytes);
  if (a.me > 0) {
    const BufRef in = s.scratch(a.bytes);
    s.round();
    s.recv(a.me - 1, in, a.bytes, kTagScan);
    s.reduce(in, a.out, a.count);
  }
  if (a.me + 1 < a.n) {
    s.round();
    s.send(a.me + 1, a.out, a.bytes, kTagScan);
  }
}

void gather_linear(Schedule& s, const CollArgs& a) {
  // The root posts every receive at once; senders never block on an
  // absent match.
  if (a.me != a.root) {
    s.round();
    s.send(a.root, a.in, a.bytes, kTagGather);
    return;
  }
  s.copy(a.in, a.out.at(z(a.root) * a.bytes), a.bytes);
  s.round();
  for (int k = 0; k < a.n; ++k)
    if (k != a.root) s.recv(k, a.out.at(z(k) * a.bytes), a.bytes, kTagGather);
}

void allgather_linear(Schedule& s, const CollArgs& a) {
  CollArgs at0 = a;
  at0.root = 0;
  s.phase(CollAlg::kGatherLinear);
  gather_linear(s, at0);
  at0.bytes = z(a.n) * a.bytes;
  s.phase(CollAlg::kBcastLinear);
  bcast_linear(s, at0);
}

/// Everyone posts all receives, then sends in rank order.
void exchange_linear(Schedule& s, const CollArgs& a, int tag,
                     auto&& recv_at, auto&& send_at) {
  s.round();
  for (int k = 0; k < a.n; ++k) {
    if (k == a.me) continue;
    const auto [off, len] = recv_at(z(k));
    s.recv(k, a.out.at(off), len, tag);
  }
  for (int k = 0; k < a.n; ++k) {
    if (k == a.me) continue;
    const auto [off, len] = send_at(z(k));
    s.send(k, a.in.at(off), len, tag);
  }
}

void alltoall_linear(Schedule& s, const CollArgs& a) {
  const std::size_t bpp = a.bytes;
  s.copy(a.in.at(z(a.me) * bpp), a.out.at(z(a.me) * bpp), bpp);
  auto block = [bpp](std::size_t k) { return Chunk{k * bpp, bpp}; };
  exchange_linear(s, a, kTagAlltoall, block, block);
}

void allgatherv_linear(Schedule& s, const CollArgs& a) {
  s.copy(a.in, a.out.at(a.displs[z(a.me)]), a.bytes);
  exchange_linear(
      s, a, kTagAllgatherv,
      [&](std::size_t k) { return Chunk{a.displs[k], a.counts[k]}; },
      [&](std::size_t) { return Chunk{0, a.bytes}; });
}

void alltoallv_linear(Schedule& s, const CollArgs& a) {
  const std::size_t me = z(a.me);
  s.copy(a.in.at(a.sdispls[me]), a.out.at(a.displs[me]), a.scounts[me]);
  exchange_linear(
      s, a, kTagAlltoallv,
      [&](std::size_t k) { return Chunk{a.displs[k], a.counts[k]}; },
      [&](std::size_t k) { return Chunk{a.sdispls[k], a.scounts[k]}; });
}

// --- Root-centric vectored collectives, shared by both suites ---

void gatherv_linear(Schedule& s, const CollArgs& a) {
  if (a.me != a.root) {
    s.round();
    s.send(a.root, a.in, a.bytes, kTagGatherv);
    return;
  }
  s.copy(a.in, a.out.at(a.displs[z(a.root)]), a.bytes);
  s.round();
  for (int k = 0; k < a.n; ++k) {
    if (k != a.root)
      s.recv(k, a.out.at(a.displs[z(k)]), a.counts[z(k)], kTagGatherv);
  }
}

void scatterv_linear(Schedule& s, const CollArgs& a) {
  if (a.me != a.root) {
    s.round();
    s.recv(a.root, a.out, a.bytes, kTagScatterv);
    return;
  }
  const std::size_t me = z(a.root);
  s.copy(a.in.at(a.displs[me]), a.out, a.counts[me]);
  s.round();
  for (int k = 0; k < a.n; ++k) {
    if (k != a.root)
      s.send(k, a.in.at(a.displs[z(k)]), a.counts[z(k)], kTagScatterv);
  }
}

/// One row per blocking CollAlg, in enum order: its builder, and whether
/// a one-rank comm still counts the call (the pvar and trace span).
struct AlgSpec {
  void (*build)(Schedule&, const CollArgs&);
  bool single_rank_span;
};

constexpr AlgSpec kAlgs[] = {
    {barrier_dissemination, true},
    {bcast_binomial, false},
    {bcast_scatter_ring, false},
    {reduce_binomial, false},
    {allreduce_recursive_doubling, false},
    {allreduce_ring, false},
    {reduce_scatter_ring, false},
    {scan_recursive_doubling, false},
    {gather_binomial, true},
    {scatter_binomial, true},
    {allgather_recursive_doubling, false},
    {allgather_ring, false},
    {alltoall_pairwise, true},
    {allgatherv_ring, false},
    {alltoallv_pairwise, true},
    {barrier_linear, true},
    {bcast_linear, false},
    {reduce_linear, true},
    {allreduce_linear, true},
    {reduce_scatter_linear, true},
    {scan_linear, true},
    {gather_linear, true},
    {scatter_linear, true},
    {allgather_linear, true},
    {alltoall_linear, true},
    {allgatherv_linear, true},
    {alltoallv_linear, true},
    {gatherv_linear, true},
    {scatterv_linear, true},
};
static_assert(std::size(kAlgs) ==
                  static_cast<std::size_t>(CollAlg::kNbcBarrier),
              "one builder per blocking CollAlg, in enum order");

bool counts_call(CollAlg alg, int n) {
  return alg != CollAlg::kCount &&
         (n > 1 || kAlgs[static_cast<std::size_t>(alg)].single_rank_span);
}

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

CollArgs coll_args(const Comm& c, CollOp op, std::size_t bytes, int root) {
  CollArgs a;
  a.op = op;
  a.n = c.size();
  a.me = c.rank();
  a.root = root;
  a.bytes = bytes;
  return a;
}

CollArgs reduce_args(const Comm& c, CollOp op, std::size_t count,
                     BasicKind kind, ReduceOp rop, int root) {
  CollArgs a = coll_args(c, op, count * basic_size(kind), root);
  a.count = count;
  a.kind = kind;
  a.rop = rop;
  return a;
}

CollArgs typed_args(const Comm& c, CollOp what, int count,
                    const Datatype& type, ReduceOp op, int root) {
  JHPC_REQUIRE(count >= 0, "typed collective: negative element count");
  const std::size_t bytes = type.size() * z(count);
  if (what != CollOp::kReduce && what != CollOp::kAllreduce)
    return coll_args(c, what, bytes, root);
  // Even a dense (contiguous-layout) struct can mix leaves.
  if (!type.uniform_leaf()) {
    throw UnsupportedOperationError(
        "typed reduction requires a uniform leaf kind (mixed-leaf "
        "structs are not element-wise reducible)");
  }
  const BasicKind leaf = type.leaf_kind();
  return reduce_args(c, what, bytes / basic_size(leaf), leaf, op, root);
}

TypedPlan typed_plan(CollOp what, int count, int n, bool is_root) {
  const int all = count * n;
  switch (what) {
    case CollOp::kBcast:
      return {0, count, is_root, !is_root};
    case CollOp::kReduce:
      return {count, count, false, is_root};
    case CollOp::kAllreduce:
      return {count, count, false, true};
    case CollOp::kGather:
      return {count, is_root ? all : 0, false, is_root};
    case CollOp::kScatter:
      return {is_root ? all : 0, count, false, true};
    case CollOp::kAllgather:
      return {count, all, false, true};
    case CollOp::kAlltoall:
      return {all, all, false, true};
    default:
      return {};
  }
}

CollAlg select_alg(CollectiveSuite suite, const CollArgs& a,
                   const UniverseConfig& cfg) {
  static constexpr CollAlg kBasic[] = {
      CollAlg::kBarrierLinear,   CollAlg::kBcastLinear,
      CollAlg::kReduceLinear,    CollAlg::kAllreduceLinear,
      CollAlg::kReduceScatterLinear, CollAlg::kScanLinear,
      CollAlg::kGatherLinear,    CollAlg::kScatterLinear,
      CollAlg::kAllgatherLinear, CollAlg::kAlltoallLinear,
      CollAlg::kGathervLinear,   CollAlg::kScattervLinear,
      CollAlg::kAllgathervLinear, CollAlg::kAlltoallvLinear};
  static constexpr CollAlg kMv2[] = {
      CollAlg::kBarrierDissemination, CollAlg::kBcastBinomial,
      CollAlg::kReduceBinomial,       CollAlg::kAllreduceRecursiveDoubling,
      CollAlg::kReduceScatterRing,    CollAlg::kScanRecursiveDoubling,
      CollAlg::kGatherBinomial,       CollAlg::kScatterBinomial,
      CollAlg::kAllgatherRing,        CollAlg::kAlltoallPairwise,
      CollAlg::kGathervLinear,        CollAlg::kScattervLinear,
      CollAlg::kAllgathervRing,       CollAlg::kAlltoallvPairwise};
  const auto op = static_cast<std::size_t>(a.op);
  if (suite == CollectiveSuite::kOmpiBasic) return kBasic[op];
  // Latency-optimal below the thresholds (or on tiny comms),
  // bandwidth-optimal above them.
  switch (a.op) {
    case CollOp::kBcast:
      return a.bytes <= cfg.bcast_binomial_max || a.n <= 2
                 ? CollAlg::kBcastBinomial
                 : CollAlg::kBcastScatterRing;
    case CollOp::kAllreduce:
      return a.bytes <= cfg.allreduce_rd_max || a.count < z(a.n)
                 ? CollAlg::kAllreduceRecursiveDoubling
                 : CollAlg::kAllreduceRing;
    case CollOp::kAllgather:
      return is_pow2(a.n) && a.bytes * z(a.n) <= cfg.allgather_rd_max
                 ? CollAlg::kAllgatherRecursiveDoubling
                 : CollAlg::kAllgatherRing;
    default:
      return kMv2[op];
  }
}

void build(Schedule& s, CollAlg alg, const CollArgs& a) {
  kAlgs[static_cast<std::size_t>(alg)].build(s, a);
}

void run_schedule(const Comm& c, const Schedule& s, const void* in, void* out,
                  BasicKind kind, ReduceOp op, CollAlg span, int tag) {
  const ObsAccess acc = obs_access(c);
  UniverseImpl& u = *acc.uni;
  const int me = acc.world_rank;
  const int cid = acc.context_id;
  std::vector<std::byte> scratch(s.scratch_bytes);
  const SchedBufs bufs{static_cast<const std::byte*>(in),
                       static_cast<std::byte*>(out), scratch.data()};
  auto tag_of = [tag](const NbcStep& st) { return tag >= 0 ? tag : st.tag; };

  std::optional<CollSpan> outer;
  std::optional<CollSpan> nested;
  if (counts_call(span, c.size())) outer.emplace(c, span);
  std::size_t phase = 0;
  auto enter_phases = [&](std::size_t upto) {
    for (; phase < s.phases.size() && s.phases[phase].first <= upto; ++phase) {
      nested.reset();
      if (counts_call(s.phases[phase].alg, c.size()))
        nested.emplace(c, s.phases[phase].alg);
    }
  };

  std::vector<std::shared_ptr<RequestState>> posted;
  for (const NbcRound& rd : s.rounds) {
    enter_phases(rd.first);
    const NbcStep* lone = nullptr;
    int recvs = 0;
    int sends = 0;
    for (std::size_t i = rd.first; i < rd.last; ++i) {
      if (s.steps[i].kind == NbcStepKind::kRecv) {
        lone = &s.steps[i];
        ++recvs;
      } else if (s.steps[i].kind == NbcStepKind::kSend) {
        ++sends;
      }
    }
    if (recvs == 1 && sends == 0) {
      u.blocking_recv(me, cid, lone->peer, tag_of(*lone), bufs.at(lone->dst),
                      lone->bytes);
    } else if (recvs + sends > 0) {
      posted.clear();
      for (std::size_t i = rd.first; i < rd.last; ++i) {
        const NbcStep& st = s.steps[i];
        if (st.kind != NbcStepKind::kRecv) continue;
        posted.push_back(u.post_recv(me, cid, st.peer, tag_of(st),
                                     bufs.at(st.dst), st.bytes));
      }
      try {
        for (std::size_t i = rd.first; i < rd.last; ++i) {
          const NbcStep& st = s.steps[i];
          if (st.kind != NbcStepKind::kSend) continue;
          auto pending = u.deliver(me, c.group().world_rank(st.peer), cid,
                                   c.rank(), tag_of(st), bufs.at(st.src),
                                   st.bytes);
          if (pending) wait_request(*pending);
        }
        for (const auto& rs : posted) wait_request(*rs);
      } catch (...) {
        // The receive buffers unwind with this frame: withdraw every
        // receive still posted before anyone can match it.
        for (const auto& rs : posted) u.cancel_recv(*rs);
        throw;
      }
    }
    for (std::size_t i = rd.first; i < rd.last; ++i)
      run_local_step(s.steps[i], bufs, kind, op);
  }
  enter_phases(s.steps.size());
}

}  // namespace jhpc::minimpi::detail
