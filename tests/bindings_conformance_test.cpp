// Conformance of the two binding facades. Every method the MVAPICH2-J and
// Open MPI-J APIs share runs once through each facade, on ByteBuffers and
// on Java arrays, and its result is compared with the same operation run
// on the native minimpi communicator of the same job. The places where
// the vendor policies are meant to differ are asserted too: Open MPI-J
// refuses arrays on nonblocking point-to-point and has no staging pool,
// and MVAPICH2-J gives every pooled staging buffer back after each call.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "jhpc/minijvm/jni.hpp"
#include "jhpc/minimpi/win.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/mv2j/win.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc {
namespace {

using minijvm::ByteBuffer;
using minijvm::JArray;
using minijvm::jint;
using minimpi::BasicKind;
using minimpi::ReduceOp;
using mv2j::INT;
using V = std::vector<jint>;

struct Mv2jApi {
  using Env = mv2j::Env;
  using RunOptions = mv2j::RunOptions;
  static void run(const RunOptions& o, const std::function<void(Env&)>& f) {
    mv2j::run(o, f);
  }
};

struct OmpijApi {
  using Env = ompij::Env;
  using RunOptions = ompij::RunOptions;
  static void run(const RunOptions& o, const std::function<void(Env&)>& f) {
    ompij::run(o, f);
  }
};

// The surface that only exists where the staging policy supports it.
template <class E>
concept HasPool = requires(E& e) { e.pool(); };
template <class O>
concept HasPoolOption = requires(O& o) { o.pool; };
template <class C>
concept HasSendRecv = requires(const C& c, ByteBuffer& b) {
  c.sendRecv(b, 1, INT, 0, 0, b, 1, INT, 0, 0);
};
template <class C>
concept HasOffsetSend = requires(const C& c, JArray<jint>& a) {
  c.send(a, 0, 1, INT, 0, 0);
};

static_assert(HasPool<mv2j::Env> && !HasPool<ompij::Env>);
static_assert(HasPoolOption<mv2j::RunOptions> &&
              !HasPoolOption<ompij::RunOptions>);
static_assert(HasSendRecv<mv2j::Comm> && !HasSendRecv<ompij::Comm>);
static_assert(HasOffsetSend<mv2j::Comm> && !HasOffsetSend<ompij::Comm>);

V pattern(int rank, int salt, std::size_t n) {
  V v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = rank * 1000 + salt * 100 + static_cast<jint>(i);
  return v;
}

std::size_t bytes_of(std::size_t ints) { return ints * sizeof(jint); }

/// The blocks a vectored receive wrote: what lies between them is not
/// part of the result (pooled staging does not copy a receive in).
V blocks(const V& v, const std::vector<int>& counts,
         const std::vector<int>& displs) {
  V out;
  for (std::size_t i = 0; i < counts.size(); ++i)
    out.insert(out.end(), v.begin() + displs[i],
               v.begin() + displs[i] + counts[i]);
  return out;
}

/// One rank's view of the job: the facade's world, the native world
/// underneath, and payload helpers for both APIs.
template <class EnvT>
struct Rank {
  explicit Rank(EnvT& e)
      : env(e), w(e.COMM_WORLD()), nat(w.native()), me(w.getRank()),
        n(w.getSize()) {}

  ByteBuffer buf(const V& v) {
    ByteBuffer b = env.newDirectBuffer(std::max<std::size_t>(bytes_of(v.size()), 4));
    std::memcpy(b.storage_address(0), v.data(), bytes_of(v.size()));
    return b;
  }
  JArray<jint> arr(const V& v) {
    auto a = env.template newArray<jint>(std::max<std::size_t>(v.size(), 1));
    std::memcpy(a.raw_address(), v.data(), bytes_of(v.size()));
    return a;
  }
  static V ints(const ByteBuffer& b, std::size_t k) {
    V v(k);
    std::memcpy(v.data(), b.storage_address(0), bytes_of(k));
    return v;
  }
  static V ints(const JArray<jint>& a, std::size_t k) {
    V v(k);
    std::memcpy(v.data(), a.raw_address(), bytes_of(k));
    return v;
  }

  /// Under pooled staging every staging buffer is back in the pool once
  /// an array call (or a nonblocking one's waitFor) has returned.
  void pool_balanced() {
    if constexpr (HasPool<EnvT>) {
      const auto st = env.pool().stats();
      EXPECT_EQ(st.requests, st.returned);
    }
  }

  /// Run `f(make)` once with direct ByteBuffers and once with Java arrays;
  /// `make(v)` builds a payload of the API holding `v`.
  template <class F>
  void each_api(F&& f) {
    f([this](const V& v) { return buf(v); });
    f([this](const V& v) { return arr(v); });
    pool_balanced();
  }

  EnvT& env;
  decltype(env.COMM_WORLD()) w;
  const minimpi::Comm& nat;
  const int me, n;
};

template <class Api>
class BindingsConformance : public ::testing::Test {
 protected:
  /// 4 ranks, 2 per node, no modelled JNI crossing cost.
  static void job(const std::function<void(typename Api::Env&)>& body) {
    typename Api::RunOptions o;
    o.ranks = 4;
    o.fabric.ranks_per_node = 2;
    o.jvm.heap_bytes = 8 << 20;
    o.jvm.jni_crossing_ns = 0;
    Api::run(o, body);
  }
};

using Facades = ::testing::Types<Mv2jApi, OmpijApi>;
TYPED_TEST_SUITE(BindingsConformance, Facades);

TYPED_TEST(BindingsConformance, PointToPointAndProbe) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    const int peer = r.me ^ 1;
    const bool first = r.me % 2 == 0;
    const V mine = pattern(r.me, 1, 16);
    V want(16);
    minimpi::Status nst;
    if (first) {
      r.nat.send(mine.data(), bytes_of(16), peer, 1);
      r.nat.recv(want.data(), bytes_of(16), peer, 1, &nst);
    } else {
      r.nat.recv(want.data(), bytes_of(16), peer, 1, &nst);
      r.nat.send(mine.data(), bytes_of(16), peer, 1);
    }

    r.each_api([&](auto make) {
      auto s = make(mine);
      auto d = make(V(16));
      mv2j::Status st;
      if (first) {
        r.w.send(s, 16, INT, peer, 2);
        st = r.w.recv(d, 16, INT, peer, 2);
      } else {
        st = r.w.recv(d, 16, INT, peer, 2);
        r.w.send(s, 16, INT, peer, 2);
      }
      EXPECT_EQ(r.ints(d, 16), want);
      EXPECT_EQ(st.getSource(), nst.source);
      EXPECT_EQ(st.bytes(), nst.count_bytes);
      EXPECT_EQ(st.getCount(INT), 16);
    });

    // Nonblocking point-to-point: buffers on both vendors.
    auto sb = r.buf(mine);
    auto rb = r.buf(V(16));
    mv2j::Request rr = r.w.iRecv(rb, 16, INT, peer, 3);
    mv2j::Request sr = r.w.iSend(sb, 16, INT, peer, 3);
    EXPECT_TRUE(rr.isActive());
    sr.waitFor();
    EXPECT_EQ(rr.waitFor().bytes(), nst.count_bytes);
    EXPECT_EQ(r.ints(rb, 16), want);

    // Arrays: pooled staging keeps the buffer inside the request; the
    // per-call baseline refuses them.
    auto sa = r.arr(mine);
    auto ra = r.arr(V(16));
    if constexpr (HasPool<typename TypeParam::Env>) {
      mv2j::Request ar = r.w.iRecv(ra, 16, INT, peer, 4);
      mv2j::Request as = r.w.iSend(sa, 16, INT, peer, 4);
      mv2j::Status st;
      while (!as.test(nullptr)) {
      }
      while (!ar.test(&st)) {
      }
      EXPECT_EQ(st.getCount(INT), 16);
      EXPECT_EQ(r.ints(ra, 16), want);
      r.pool_balanced();
    } else {
      EXPECT_THROW(r.w.iSend(sa, 16, INT, peer, 4),
                   UnsupportedOperationError);
      EXPECT_THROW(r.w.iRecv(ra, 16, INT, peer, 4),
                   UnsupportedOperationError);
    }

    // probe/iProbe against a native probe of the same message.
    if (first) {
      r.nat.send(mine.data(), bytes_of(5), peer, 6);
      r.w.send(sb, 5, INT, peer, 7);
    } else {
      const minimpi::Status np = r.nat.probe(peer, 6);
      r.nat.recv(want.data(), bytes_of(5), peer, 6, nullptr);
      const mv2j::Status bp = r.w.probe(mv2j::ANY_SOURCE, 7);
      EXPECT_EQ(bp.getSource(), np.source);
      EXPECT_EQ(bp.bytes(), np.count_bytes);
      mv2j::Status ip;
      EXPECT_TRUE(r.w.iProbe(peer, 7, &ip));
      EXPECT_EQ(ip.getTag(), 7);
      r.w.recv(rb, 5, INT, peer, 7);
      EXPECT_FALSE(r.w.iProbe(peer, 7, &ip));
    }
    r.w.barrier();
  });
}

TYPED_TEST(BindingsConformance, BlockingCollectives) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    const auto n = static_cast<std::size_t>(r.n);
    const V src = pattern(r.me, 2, 8);
    const V wide = pattern(r.me, 3, 2 * n);
    r.w.barrier();

    V want = src;
    r.nat.bcast(want.data(), bytes_of(8), 1);
    r.each_api([&](auto make) {
      auto b = make(src);
      r.w.bcast(b, 8, INT, 1);
      EXPECT_EQ(r.ints(b, 8), want);
    });

    r.nat.reduce(src.data(), want.data(), 8, BasicKind::kInt, ReduceOp::kSum,
                 2);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(8));
      r.w.reduce(s, d, 8, INT, mv2j::SUM, 2);
      if (r.me == 2) EXPECT_EQ(r.ints(d, 8), want);
    });

    r.nat.allreduce(src.data(), want.data(), 8, BasicKind::kInt,
                    ReduceOp::kMax);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(8));
      r.w.allReduce(s, d, 8, INT, mv2j::MAX);
      EXPECT_EQ(r.ints(d, 8), want);
    });

    V block(2);
    r.nat.reduce_scatter_block(wide.data(), block.data(), 2, BasicKind::kInt,
                               ReduceOp::kSum);
    r.each_api([&](auto make) {
      auto s = make(wide);
      auto d = make(V(2));
      r.w.reduceScatterBlock(s, d, 2, INT, mv2j::SUM);
      EXPECT_EQ(r.ints(d, 2), block);
    });

    r.nat.scan(src.data(), want.data(), 8, BasicKind::kInt, ReduceOp::kSum);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(8));
      r.w.scan(s, d, 8, INT, mv2j::SUM);
      EXPECT_EQ(r.ints(d, 8), want);
    });

    V all(2 * n);
    r.nat.gather(wide.data(), bytes_of(2), all.data(), 3);
    r.each_api([&](auto make) {
      auto s = make(wide);
      auto d = make(V(2 * n));
      r.w.gather(s, 2, INT, d, 3);
      if (r.me == 3) EXPECT_EQ(r.ints(d, 2 * n), all);
    });

    r.nat.scatter(wide.data(), bytes_of(2), block.data(), 1);
    r.each_api([&](auto make) {
      auto s = make(wide);
      auto d = make(V(2));
      r.w.scatter(s, 2, INT, d, 1);
      EXPECT_EQ(r.ints(d, 2), block);
    });

    r.nat.allgather(src.data(), bytes_of(2), all.data());
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(2 * n));
      r.w.allGather(s, 2, INT, d);
      EXPECT_EQ(r.ints(d, 2 * n), all);
    });

    r.nat.alltoall(wide.data(), bytes_of(2), all.data());
    r.each_api([&](auto make) {
      auto s = make(wide);
      auto d = make(V(2 * n));
      r.w.allToAll(s, 2, INT, d);
      EXPECT_EQ(r.ints(d, 2 * n), all);
    });
  });
}

TYPED_TEST(BindingsConformance, VectoredCollectives) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    const auto n = static_cast<std::size_t>(r.n);
    // Rank i contributes i+1 ints; a one-int gap separates the blocks.
    std::vector<int> counts, displs;
    std::vector<std::size_t> bcounts, bdispls;
    int end = 0;
    for (int i = 0; i < r.n; ++i) {
      counts.push_back(i + 1);
      displs.push_back(end);
      end += i + 2;
    }
    for (std::size_t i = 0; i < n; ++i) {
      bcounts.push_back(bytes_of(static_cast<std::size_t>(counts[i])));
      bdispls.push_back(bytes_of(static_cast<std::size_t>(displs[i])));
    }
    const auto total = static_cast<std::size_t>(end);
    const auto mine = static_cast<std::size_t>(r.me + 1);
    const V src = pattern(r.me, 4, mine);
    const V spread = pattern(r.me, 5, total);

    V want(total, -1);
    r.nat.gatherv(src.data(), bytes_of(mine), want.data(), bcounts, bdispls,
                  0);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(total, -1));
      r.w.gatherv(s, r.me + 1, INT, d, counts, displs, 0);
      if (r.me == 0) {
        EXPECT_EQ(blocks(r.ints(d, total), counts, displs),
                  blocks(want, counts, displs));
      }
    });

    V part(mine);
    r.nat.scatterv(spread.data(), bcounts, bdispls, part.data(),
                   bytes_of(mine), 1);
    r.each_api([&](auto make) {
      auto s = make(spread);
      auto d = make(V(mine));
      r.w.scatterv(s, counts, displs, INT, d, r.me + 1, 1);
      EXPECT_EQ(r.ints(d, mine), part);
    });

    want.assign(total, -1);
    r.nat.allgatherv(src.data(), bytes_of(mine), want.data(), bcounts,
                     bdispls);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(total, -1));
      r.w.allGatherv(s, r.me + 1, INT, d, counts, displs);
      EXPECT_EQ(blocks(r.ints(d, total), counts, displs),
                blocks(want, counts, displs));
    });

    // allToAllv: rank i sends (i + j) % 3 + 1 ints to rank j.
    std::vector<int> sc, sd, rc, rd;
    std::vector<std::size_t> bsc, bsd, brc, brd;
    int send_end = 0, recv_end = 0;
    for (int j = 0; j < r.n; ++j) {
      sc.push_back((r.me + j) % 3 + 1);
      sd.push_back(send_end);
      send_end += sc.back();
      rc.push_back((j + r.me) % 3 + 1);
      rd.push_back(recv_end);
      recv_end += rc.back();
    }
    for (std::size_t j = 0; j < n; ++j) {
      bsc.push_back(bytes_of(static_cast<std::size_t>(sc[j])));
      bsd.push_back(bytes_of(static_cast<std::size_t>(sd[j])));
      brc.push_back(bytes_of(static_cast<std::size_t>(rc[j])));
      brd.push_back(bytes_of(static_cast<std::size_t>(rd[j])));
    }
    const V out = pattern(r.me, 6, static_cast<std::size_t>(send_end));
    const auto in_len = static_cast<std::size_t>(recv_end);
    V got(in_len);
    r.nat.alltoallv(out.data(), bsc, bsd, got.data(), brc, brd);
    r.each_api([&](auto make) {
      auto s = make(out);
      auto d = make(V(in_len));
      r.w.allToAllv(s, sc, sd, INT, d, rc, rd);
      EXPECT_EQ(r.ints(d, in_len), got);
    });
  });
}

TYPED_TEST(BindingsConformance, VectoredReceivesLeaveGapsUntouched) {
  // Receive arrays start out filled with a sentinel and every block sits
  // behind a gap: after the call each element outside the blocks must
  // still hold the sentinel, on both APIs, exactly as natively.
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    constexpr jint kSentinel = -7;
    std::vector<int> counts, displs;
    std::vector<std::size_t> bcounts, bdispls;
    int end = 0;
    for (int i = 0; i < r.n; ++i) {
      counts.push_back(i + 1);
      displs.push_back(end + 2);
      end += i + 3;
      bcounts.push_back(bytes_of(static_cast<std::size_t>(counts.back())));
      bdispls.push_back(bytes_of(static_cast<std::size_t>(displs.back())));
    }
    const auto total = static_cast<std::size_t>(end + 2);
    const auto mine = static_cast<std::size_t>(r.me + 1);
    const V src = pattern(r.me, 7, mine);

    V want(total, kSentinel);
    r.nat.gatherv(src.data(), bytes_of(mine), want.data(), bcounts, bdispls,
                  0);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(total, kSentinel));
      r.w.gatherv(s, r.me + 1, INT, d, counts, displs, 0);
      if (r.me == 0) {
        EXPECT_EQ(r.ints(d, total), want) << "gatherv";
      }
    });

    want.assign(total, kSentinel);
    r.nat.allgatherv(src.data(), bytes_of(mine), want.data(), bcounts,
                     bdispls);
    r.each_api([&](auto make) {
      auto s = make(src);
      auto d = make(V(total, kSentinel));
      r.w.allGatherv(s, r.me + 1, INT, d, counts, displs);
      EXPECT_EQ(r.ints(d, total), want) << "allGatherv";
    });

    // allToAllv: rank i sends (i + j) % 3 + 1 ints to rank j; the receive
    // side keeps a one-int gap before every block.
    std::vector<int> sc, sd, rc, rd;
    std::vector<std::size_t> bsc, bsd, brc, brd;
    int send_end = 0, recv_end = 0;
    for (int j = 0; j < r.n; ++j) {
      sc.push_back((r.me + j) % 3 + 1);
      sd.push_back(send_end);
      send_end += sc.back();
      rc.push_back((j + r.me) % 3 + 1);
      rd.push_back(recv_end + 1);
      recv_end += rc.back() + 1;
      bsc.push_back(bytes_of(static_cast<std::size_t>(sc.back())));
      bsd.push_back(bytes_of(static_cast<std::size_t>(sd.back())));
      brc.push_back(bytes_of(static_cast<std::size_t>(rc.back())));
      brd.push_back(bytes_of(static_cast<std::size_t>(rd.back())));
    }
    const V out = pattern(r.me, 8, static_cast<std::size_t>(send_end));
    const auto in_len = static_cast<std::size_t>(recv_end);
    V got(in_len, kSentinel);
    r.nat.alltoallv(out.data(), bsc, bsd, got.data(), brc, brd);
    r.each_api([&](auto make) {
      auto s = make(out);
      auto d = make(V(in_len, kSentinel));
      r.w.allToAllv(s, sc, sd, INT, d, rc, rd);
      EXPECT_EQ(r.ints(d, in_len), got) << "allToAllv";
    });
  });
}

TYPED_TEST(BindingsConformance, NonblockingCollectives) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    const auto n = static_cast<std::size_t>(r.n);
    const V src = pattern(r.me, 7, 2 * n);
    auto s = r.buf(src);

    r.w.iBarrier().waitFor();

    V want = src;
    r.nat.bcast(want.data(), bytes_of(4), 2);
    auto b = r.buf(src);
    r.w.iBcast(b, 4, INT, 2).waitFor();
    EXPECT_EQ(r.ints(b, 4), V(want.begin(), want.begin() + 4));

    auto d = r.buf(V(2 * n));
    r.nat.reduce(src.data(), want.data(), 4, BasicKind::kInt, ReduceOp::kSum,
                 1);
    r.w.iReduce(s, d, 4, INT, mv2j::SUM, 1).waitFor();
    if (r.me == 1) EXPECT_EQ(r.ints(d, 4), V(want.begin(), want.begin() + 4));

    r.nat.allreduce(src.data(), want.data(), 4, BasicKind::kInt,
                    ReduceOp::kMin);
    r.w.iAllReduce(s, d, 4, INT, mv2j::MIN).waitFor();
    EXPECT_EQ(r.ints(d, 4), V(want.begin(), want.begin() + 4));

    r.nat.gather(src.data(), bytes_of(2), want.data(), 0);
    r.w.iGather(s, 2, INT, d, 0).waitFor();
    if (r.me == 0) EXPECT_EQ(r.ints(d, 2 * n), want);

    r.nat.scatter(src.data(), bytes_of(2), want.data(), 3);
    r.w.iScatter(s, 2, INT, d, 3).waitFor();
    EXPECT_EQ(r.ints(d, 2), V(want.begin(), want.begin() + 2));

    r.nat.allgather(src.data(), bytes_of(2), want.data());
    r.w.iAllGather(s, 2, INT, d).waitFor();
    EXPECT_EQ(r.ints(d, 2 * n), want);

    r.nat.alltoall(src.data(), bytes_of(2), want.data());
    mv2j::Request a2a = r.w.iAllToAll(s, 2, INT, d);
    mv2j::Request::waitAll({&a2a, 1});
    EXPECT_EQ(r.ints(d, 2 * n), want);
  });
}

TYPED_TEST(BindingsConformance, OneSidedFencePscwAndLock) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    const auto n = static_cast<std::size_t>(r.n);
    // Window: n put slots, n accumulate slots, one fetch-op counter.
    const std::size_t ints = 2 * n + 1;
    const int right = (r.me + 1) % r.n;
    const int partner = r.me ^ 1;
    const bool target = r.me % 2 == 0;
    auto exposed = r.buf(V(ints));
    auto win = r.w.winCreate(exposed, bytes_of(ints));
    minimpi::Win nwin = r.nat.win_allocate(bytes_of(ints));
    EXPECT_EQ(win.getSize(), r.n);
    EXPECT_EQ(win.getRank(), r.me);
    EXPECT_EQ(win.getBytes(right), nwin.bytes(right));

    const V mine = pattern(r.me, 8, 2);
    auto origin = r.buf(mine);
    const auto slot = [](std::size_t i) { return bytes_of(i); };
    const auto me = static_cast<std::size_t>(r.me);

    // Fence: put into the right neighbour, then read it back.
    win.fence();
    nwin.fence();
    win.put(origin, 1, INT, right, slot(me));
    nwin.put(mine.data(), bytes_of(1), right, slot(me));
    win.fence();
    nwin.fence();
    auto back = r.buf(V(1));
    V nback(1);
    win.get(back, 1, INT, right, slot(me));
    nwin.get(nback.data(), bytes_of(1), right, slot(me));
    win.fence();
    nwin.fence();
    EXPECT_EQ(r.ints(back, 1), nback);

    // PSCW: odd ranks accumulate into their even partner.
    const std::vector<int> group = {partner};
    if (target) {
      win.post(group);
      win.waitFor();
      nwin.post(group);
      nwin.wait();
    } else {
      win.start(group);
      win.accumulate(origin, 2, INT, mv2j::SUM, partner, slot(n + me - 1));
      win.complete();
      nwin.start(group);
      nwin.accumulate(mine.data(), 2, minimpi::Datatype::int_type(),
                      ReduceOp::kSum, partner, slot(n + me - 1));
      nwin.complete();
    }

    // Passive target: fetch-and-add on the right neighbour's counter.
    auto one = r.buf({1});
    auto fetched = r.buf(V(1));
    const V none = {1};
    V nfetched(1);
    win.lock(mv2j::LOCK_EXCLUSIVE, right);
    win.fetchOp(one, fetched, INT, mv2j::SUM, right, slot(2 * n));
    win.unlock(right);
    nwin.lock(minimpi::LockType::kExclusive, right);
    nwin.fetch_op(none.data(), nfetched.data(), BasicKind::kInt,
                  ReduceOp::kSum, right, slot(2 * n));
    nwin.unlock(right);
    EXPECT_EQ(r.ints(fetched, 1), nfetched);
    r.w.barrier();

    win.lockAll();
    auto whole = r.buf(V(ints));
    win.get(whole, static_cast<int>(ints), INT, r.me, 0);
    win.unlockAll();
    V nwhole(ints);
    std::memcpy(nwhole.data(), nwin.base(), bytes_of(ints));
    EXPECT_EQ(r.ints(whole, ints), nwhole);
    EXPECT_EQ(r.ints(exposed, ints), nwhole);
    r.w.barrier();
    win.free();
    nwin.free();
    EXPECT_FALSE(win.valid());
  });
}

TYPED_TEST(BindingsConformance, ManagementUlfmAndTools) {
  this->job([](typename TypeParam::Env& env) {
    Rank r(env);
    auto dup = r.w.dup();
    EXPECT_EQ(dup.getSize(), r.n);
    const minimpi::Comm nsplit = r.nat.split(r.me % 2, -r.me);
    auto split = r.w.split(r.me % 2, -r.me);
    ASSERT_TRUE(split.valid());
    EXPECT_EQ(split.getRank(), nsplit.rank());
    EXPECT_EQ(split.getSize(), nsplit.size());
    EXPECT_EQ(r.w.split(r.me == 0 ? -1 : 0, 0).valid(), r.me != 0);

    // The handler is communicator state: read it before any rank sets it.
    EXPECT_EQ(dup.getErrhandler(), r.nat.errhandler());
    r.w.barrier();
    dup.setErrhandler(mv2j::ERRORS_RETURN);
    EXPECT_EQ(dup.getErrhandler(), mv2j::ERRORS_RETURN);
    const int flag = r.me == 2 ? 0b011 : 0b111;
    EXPECT_EQ(dup.agree(flag), r.nat.dup().agree(flag));
    EXPECT_TRUE(dup.getFailedRanks().empty());
    // Every rank is out of `dup`'s collectives before any revokes it.
    r.w.barrier();
    dup.revoke();
    auto survivors = dup.shrink();
    EXPECT_EQ(survivors.getSize(), r.n);
    EXPECT_EQ(survivors.getErrhandler(), mv2j::ERRORS_RETURN);
    survivors.barrier();

    // Tool access with observability off.
    EXPECT_EQ(env.pvars(), nullptr);
    EXPECT_EQ(env.readPvar("mpi.msgs_sent"), 0);
    EXPECT_EQ(env.readHistogram("hist.wait").count, 0);
    EXPECT_EQ(env.histogramPercentile("hist.wait", 50), 0);
    EXPECT_EQ(env.COMM_WORLD().native().suite(), r.nat.suite());
    r.w.barrier();
  });
}

}  // namespace
}  // namespace jhpc
