// MVAPICH2-J API extensions beyond the Open MPI Java bindings surface:
// sub-range (offset) array communication and derived datatypes, both
// built on the buffering layer exactly as the paper's Section IV-B
// anticipates.
#include <gtest/gtest.h>

#include <vector>

#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/mv2j/win.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j {
namespace {

RunOptions fast_opts(int ranks) {
  RunOptions o;
  o.ranks = ranks;
  o.jvm.heap_bytes = 8 << 20;
  o.jvm.jni_crossing_ns = 0;
  return o;
}

TEST(OffsetApiTest, SendRecvSubRange) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    if (world.getRank() == 0) {
      auto arr = env.newArray<minijvm::jint>(10);
      for (std::size_t i = 0; i < 10; ++i) arr[i] = static_cast<int>(i);
      world.send(arr, /*offset=*/3, /*count=*/4, INT, 1, 0);
    } else {
      auto arr = env.newArray<minijvm::jint>(10);
      Status st = world.recv(arr, /*offset=*/5, /*count=*/4, INT, 0, 0);
      EXPECT_EQ(st.getCount(INT), 4);
      EXPECT_EQ(arr[5], 3);
      EXPECT_EQ(arr[8], 6);
      EXPECT_EQ(arr[0], 0) << "bytes outside the sub-range stay untouched";
      EXPECT_EQ(arr[9], 0);
    }
  });
}

TEST(OffsetApiTest, NonBlockingSubRange) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    if (world.getRank() == 0) {
      auto arr = env.newArray<minijvm::jdouble>(8);
      for (std::size_t i = 0; i < 8; ++i) arr[i] = 1.5 * static_cast<double>(i);
      Request r = world.iSend(arr, 2, 3, DOUBLE, 1, 0);
      r.waitFor();
    } else {
      auto arr = env.newArray<minijvm::jdouble>(8);
      Request r = world.iRecv(arr, 4, 3, DOUBLE, 0, 0);
      r.waitFor();
      EXPECT_DOUBLE_EQ(arr[4], 3.0);
      EXPECT_DOUBLE_EQ(arr[6], 6.0);
      EXPECT_DOUBLE_EQ(arr[0], 0.0);
    }
  });
}

TEST(OffsetApiTest, OutOfRangeRejected) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    auto arr = env.newArray<minijvm::jint>(10);
    EXPECT_THROW(world.send(arr, 8, 4, INT, 1 - world.getRank(), 0),
                 InvalidArgumentError);
    EXPECT_THROW(world.send(arr, -1, 2, INT, 1 - world.getRank(), 0),
                 InvalidArgumentError);
    world.barrier();
  });
}

TEST(DerivedTypeTest, VectorColumnExchange) {
  // Send one column of a row-major 4x4 matrix: the staging buffer packs
  // the strided elements contiguously.
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype column = Datatype::vector(4, 1, 4, INT);
    EXPECT_EQ(column.size(), 16u);
    EXPECT_EQ(column.extent(), 52u);  // (3*4+1)*4 bytes
    if (world.getRank() == 0) {
      auto m = env.newArray<minijvm::jint>(16);
      for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
          m[static_cast<std::size_t>(4 * r + c)] = 10 * r + c;
      // Column 1 starts at element offset 1.
      world.send(m, /*offset=*/1, /*count=*/1, column, 1, 0);
    } else {
      // Receive the packed column into a contiguous 4-int array.
      auto col = env.newArray<minijvm::jint>(4);
      Status st = world.recv(col, 0, 4, INT, 0, 0);
      EXPECT_EQ(st.bytes(), 16u);
      EXPECT_EQ(col[0], 1);
      EXPECT_EQ(col[1], 11);
      EXPECT_EQ(col[2], 21);
      EXPECT_EQ(col[3], 31);
    }
  });
}

TEST(DerivedTypeTest, VectorToVectorScattersOnReceive) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype stride2 = Datatype::vector(5, 1, 2, LONG);
    if (world.getRank() == 0) {
      auto src = env.newArray<minijvm::jlong>(10);
      for (std::size_t i = 0; i < 10; ++i)
        src[i] = static_cast<minijvm::jlong>(100 + i);
      world.send(src, 0, 1, stride2, 1, 0);  // elements 0,2,4,6,8
    } else {
      auto dst = env.newArray<minijvm::jlong>(10);
      world.recv(dst, 0, 1, stride2, 0, 0);
      EXPECT_EQ(dst[0], 100);
      EXPECT_EQ(dst[2], 102);
      EXPECT_EQ(dst[8], 108);
      EXPECT_EQ(dst[1], 0) << "gaps must stay untouched";
      EXPECT_EQ(dst[9], 0);
    }
  });
}

TEST(DerivedTypeTest, ContiguousOfVectorNested) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype pair_skip = Datatype::vector(2, 2, 4, SHORT);
    const Datatype two = Datatype::contiguous(1, pair_skip);
    EXPECT_EQ(two.size(), 8u);
    if (world.getRank() == 0) {
      auto src = env.newArray<minijvm::jshort>(8);
      for (std::size_t i = 0; i < 8; ++i)
        src[i] = static_cast<minijvm::jshort>(i + 1);
      world.send(src, 0, 1, two, 1, 0);  // elements 1,2,5,6 (0-indexed 0,1,4,5)
    } else {
      auto packed = env.newArray<minijvm::jshort>(4);
      world.recv(packed, 0, 4, SHORT, 0, 0);
      EXPECT_EQ(packed[0], 1);
      EXPECT_EQ(packed[1], 2);
      EXPECT_EQ(packed[2], 5);
      EXPECT_EQ(packed[3], 6);
    }
  });
}

TEST(DerivedTypeTest, IndexedTypeThroughBindings) {
  // Send an irregular selection of array elements in one call.
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const std::vector<int> lens{1, 3, 2};
    const std::vector<int> offs{0, 3, 8};
    const Datatype picks = Datatype::indexed(lens, offs, INT);
    EXPECT_EQ(picks.size(), 6u * 4u);
    if (world.getRank() == 0) {
      auto src = env.newArray<minijvm::jint>(10);
      for (std::size_t i = 0; i < 10; ++i) src[i] = static_cast<int>(i + 1);
      world.send(src, 0, 1, picks, 1, 0);  // elements 0,3,4,5,8,9
    } else {
      auto dst = env.newArray<minijvm::jint>(6);
      Status st = world.recv(dst, 0, 6, INT, 0, 0);
      EXPECT_EQ(st.getCount(INT), 6);
      EXPECT_EQ(dst[0], 1);
      EXPECT_EQ(dst[1], 4);
      EXPECT_EQ(dst[2], 5);
      EXPECT_EQ(dst[3], 6);
      EXPECT_EQ(dst[4], 9);
      EXPECT_EQ(dst[5], 10);
    }
  });
}

TEST(DerivedTypeTest, LeafKindMismatchRejected) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype int_col = Datatype::vector(2, 1, 2, INT);
    auto wrong = env.newArray<minijvm::jdouble>(8);
    EXPECT_THROW(world.send(wrong, 0, 1, int_col, 1 - world.getRank(), 0),
                 InvalidArgumentError);
    world.barrier();
  });
}

TEST(DerivedTypeTest, ByteBufferPathRoutesDerivedToTypedSubstrate) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype col = Datatype::vector(4, 1, 2, INT);
    if (world.getRank() == 0) {
      auto src = env.newDirectBuffer(32);
      for (int i = 0; i < 8; ++i)
        src.put_int(static_cast<std::size_t>(i) * 4, i);
      world.send(src, 1, col, 1, 0);  // ints 0,2,4,6
    } else {
      auto dst = env.newDirectBuffer(32);
      for (int i = 0; i < 8; ++i)
        dst.put_int(static_cast<std::size_t>(i) * 4, -1);
      Status st = world.recv(dst, 1, col, 0, 0);
      EXPECT_EQ(st.getCount(col), 1);
      EXPECT_EQ(dst.get_int(0), 0);
      EXPECT_EQ(dst.get_int(8), 2);
      EXPECT_EQ(dst.get_int(16), 4);
      EXPECT_EQ(dst.get_int(24), 6);
      EXPECT_EQ(dst.get_int(4), -1) << "gap bytes stay untouched";
      EXPECT_EQ(dst.get_int(12), -1);
    }
  });
}

TEST(DerivedTypeTest, ByteBufferDerivedCollectives) {
  run(fast_opts(3), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const int rank = world.getRank();
    const Datatype col = Datatype::vector(2, 1, 2, INT);  // extent 12 B
    auto sbuf = env.newDirectBuffer(16);
    auto rbuf = env.newDirectBuffer(16);
    sbuf.put_int(0, rank + 1);
    sbuf.put_int(8, 10 * (rank + 1));
    rbuf.put_int(4, -7);  // gap sentinel
    world.allReduce(sbuf, rbuf, 1, col, SUM);
    EXPECT_EQ(rbuf.get_int(0), 6);
    EXPECT_EQ(rbuf.get_int(8), 60);
    EXPECT_EQ(rbuf.get_int(4), -7) << "reduction must not write the gap";

    auto bbuf = env.newDirectBuffer(16);
    if (rank == 1) {
      bbuf.put_int(0, 41);
      bbuf.put_int(8, 42);
    }
    world.bcast(bbuf, 1, col, /*root=*/1);
    EXPECT_EQ(bbuf.get_int(0), 41);
    EXPECT_EQ(bbuf.get_int(8), 42);
  });
}

TEST(DerivedTypeTest, ByteBufferVectoredAndScanStayBasicOnly) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype col = Datatype::vector(2, 1, 2, INT);
    auto sbuf = env.newDirectBuffer(64);
    auto rbuf = env.newDirectBuffer(64);
    const std::vector<int> counts{1, 1}, displs{0, 1};
    EXPECT_THROW(world.scan(sbuf, rbuf, 1, col, SUM),
                 UnsupportedOperationError);
    EXPECT_THROW(world.reduceScatterBlock(sbuf, rbuf, 1, col, SUM),
                 UnsupportedOperationError);
    EXPECT_THROW(world.gatherv(sbuf, 1, col, rbuf, counts, displs, 0),
                 UnsupportedOperationError);
    EXPECT_THROW(world.scatterv(sbuf, counts, displs, col, rbuf, 1, 0),
                 UnsupportedOperationError);
    EXPECT_THROW(world.allGatherv(sbuf, 1, col, rbuf, counts, displs),
                 UnsupportedOperationError);
    EXPECT_THROW(
        world.allToAllv(sbuf, counts, displs, col, rbuf, counts, displs),
        UnsupportedOperationError);
    world.barrier();
  });
}

// The vectored collectives once moved count*size() contiguous bytes for
// any datatype on Open MPI-J; they are basic-only on both vendors.
TEST(DerivedTypeTest, OmpijByteBufferVectoredStayBasicOnly) {
  ompij::RunOptions o;
  o.ranks = 2;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) {
    ompij::Comm& world = env.COMM_WORLD();
    const Datatype col = Datatype::vector(2, 1, 2, INT);
    auto sbuf = env.newDirectBuffer(64);
    auto rbuf = env.newDirectBuffer(64);
    const std::vector<int> counts{1, 1}, displs{0, 3};
    EXPECT_THROW(world.gatherv(sbuf, 1, col, rbuf, counts, displs, 0),
                 UnsupportedOperationError);
    EXPECT_THROW(world.scatterv(sbuf, counts, displs, col, rbuf, 1, 0),
                 UnsupportedOperationError);
    EXPECT_THROW(world.allGatherv(sbuf, 1, col, rbuf, counts, displs),
                 UnsupportedOperationError);
    EXPECT_THROW(
        world.allToAllv(sbuf, counts, displs, col, rbuf, counts, displs),
        UnsupportedOperationError);
    world.barrier();
  });
}

// Array collectives stage `count` contiguous elements, so a derived
// layout would be silently flattened (a strided bcast moving only its
// first element). Both vendors refuse it with one error.
template <class EnvT>
void expect_array_collectives_basic_only(EnvT& env) {
  auto& world = env.COMM_WORLD();
  const Datatype strided = Datatype::vector(3, 1, 2, INT);
  auto a = env.template newArray<minijvm::jint>(32);
  auto b = env.template newArray<minijvm::jint>(32);
  const std::vector<int> counts{1, 1}, displs{0, 5};
  EXPECT_THROW(world.bcast(a, 1, strided, 0), UnsupportedOperationError);
  EXPECT_THROW(world.reduce(a, b, 1, strided, SUM, 0),
               UnsupportedOperationError);
  EXPECT_THROW(world.allReduce(a, b, 1, strided, SUM),
               UnsupportedOperationError);
  EXPECT_THROW(world.reduceScatterBlock(a, b, 1, strided, SUM),
               UnsupportedOperationError);
  EXPECT_THROW(world.scan(a, b, 1, strided, SUM), UnsupportedOperationError);
  EXPECT_THROW(world.gather(a, 1, strided, b, 0), UnsupportedOperationError);
  EXPECT_THROW(world.scatter(a, 1, strided, b, 0), UnsupportedOperationError);
  EXPECT_THROW(world.allGather(a, 1, strided, b), UnsupportedOperationError);
  EXPECT_THROW(world.allToAll(a, 1, strided, b), UnsupportedOperationError);
  EXPECT_THROW(world.gatherv(a, 1, strided, b, counts, displs, 0),
               UnsupportedOperationError);
  EXPECT_THROW(world.scatterv(a, counts, displs, strided, b, 1, 0),
               UnsupportedOperationError);
  EXPECT_THROW(world.allGatherv(a, 1, strided, b, counts, displs),
               UnsupportedOperationError);
  EXPECT_THROW(world.allToAllv(a, counts, displs, strided, b, counts, displs),
               UnsupportedOperationError);
  world.barrier();
}

TEST(DerivedTypeTest, ArrayCollectivesStayBasicOnly) {
  run(fast_opts(2), [](Env& env) {
    expect_array_collectives_basic_only(env);
    // Nothing was staged for a refused call.
    EXPECT_EQ(env.pool().stats().requests, 0u);
  });
  ompij::RunOptions o;
  o.ranks = 2;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) {
    expect_array_collectives_basic_only(env);
    EXPECT_EQ(env.jvm().jni().outstanding_copies(), 0u);
  });
}

// Malformed vectored arguments: a displacement array shorter than the
// counts, an empty one, and a negative count. The core checks both
// arrays wherever it reads them (the root of gatherv/scatterv, every rank
// of allGatherv/allToAllv) before touching any element, so every rank
// passes the same bad arrays and the job stays consistent.
template <class EnvT>
void expect_vectored_args_checked(EnvT& env) {
  auto& world = env.COMM_WORLD();
  const bool root = world.getRank() == 0;
  const std::vector<int> ones{1, 1, 1}, displs{0, 1, 2}, short_displs{0, 1};
  const std::vector<int> none, negative{1, -1, 1};
  auto sb = env.newDirectBuffer(64);
  auto rb = env.newDirectBuffer(64);
  auto sa = env.template newArray<minijvm::jint>(16);
  auto ra = env.template newArray<minijvm::jint>(16);
  struct Bad {
    const std::vector<int>& counts;
    const std::vector<int>& displs;
  };
  for (const Bad& bad : {Bad{ones, short_displs}, Bad{ones, none},
                         Bad{negative, displs}}) {
    auto expect_rejected = [&](auto& s, auto& r) {
      EXPECT_THROW(world.allGatherv(s, 1, INT, r, bad.counts, bad.displs),
                   InvalidArgumentError);
      EXPECT_THROW(world.allToAllv(s, bad.counts, bad.displs, INT, r,
                                   bad.counts, bad.displs),
                   InvalidArgumentError);
      EXPECT_THROW(world.allToAllv(s, ones, displs, INT, r, bad.counts,
                                   bad.displs),
                   InvalidArgumentError);
      if (root) {
        EXPECT_THROW(
            world.gatherv(s, 1, INT, r, bad.counts, bad.displs, 0),
            InvalidArgumentError);
        EXPECT_THROW(
            world.scatterv(s, bad.counts, bad.displs, INT, r, 1, 0),
            InvalidArgumentError);
      }
    };
    expect_rejected(sb, rb);
    expect_rejected(sa, ra);
  }
  world.barrier();
}

TEST(VectoredArgsTest, Mv2jChecksCountsAndDisplacements) {
  run(fast_opts(3), [](Env& env) { expect_vectored_args_checked(env); });
}

TEST(VectoredArgsTest, OmpijChecksCountsAndDisplacements) {
  ompij::RunOptions o;
  o.ranks = 3;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) { expect_vectored_args_checked(env); });
}

TEST(DerivedTypeTest, NegativeLowerBoundRejectedOnByteBuffer) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    // Negative stride: element bytes reach below the buffer base pointer.
    const Datatype back = Datatype::vector(3, 1, -2, INT);
    auto buf = env.newDirectBuffer(64);
    EXPECT_THROW(world.send(buf, 1, back, 1 - world.getRank(), 0),
                 InvalidArgumentError);
    world.barrier();
  });
}

TEST(DerivedTypeTest, OmpijByteBufferRoutesDerived) {
  ompij::RunOptions o;
  o.ranks = 2;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) {
    ompij::Comm& world = env.COMM_WORLD();
    const Datatype col = Datatype::vector(3, 1, 2, INT);
    if (world.getRank() == 0) {
      auto src = env.newDirectBuffer(24);
      for (int i = 0; i < 6; ++i)
        src.put_int(static_cast<std::size_t>(i) * 4, 100 + i);
      world.send(src, 1, col, 1, 0);
    } else {
      auto dst = env.newDirectBuffer(24);
      ompij::Status st = world.recv(dst, 1, col, 0, 0);
      EXPECT_EQ(st.getCount(col), 1);
      EXPECT_EQ(dst.get_int(0), 100);
      EXPECT_EQ(dst.get_int(8), 102);
      EXPECT_EQ(dst.get_int(16), 104);
    }
  });
}

TEST(DerivedTypeTest, OmpijRejectsDerivedArrays) {
  ompij::RunOptions o;
  o.ranks = 2;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) {
    ompij::Comm& world = env.COMM_WORLD();
    const Datatype col = Datatype::vector(2, 1, 2, INT);
    auto arr = env.newArray<minijvm::jint>(8);
    EXPECT_THROW(world.send(arr, 1, col, 1 - world.getRank(), 0),
                 InvalidArgumentError);
    world.barrier();
  });
}

TEST(DerivedTypeTest, GcSafeDuringDerivedNonBlocking) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const Datatype stride2 = Datatype::vector(100, 1, 2, INT);
    if (world.getRank() == 0) {
      auto src = env.newArray<minijvm::jint>(200);
      for (std::size_t i = 0; i < 200; ++i) src[i] = static_cast<int>(i);
      Request r = world.iSend(src, 0, 1, stride2, 1, 0);
      ASSERT_TRUE(env.jvm().gc());
      world.barrier();
      r.waitFor();
    } else {
      auto dst = env.newArray<minijvm::jint>(100);
      Request r = world.iRecv(dst, 0, 100, INT, 0, 0);
      ASSERT_TRUE(env.jvm().gc());
      world.barrier();
      r.waitFor();
      for (std::size_t i = 0; i < 100; ++i)
        ASSERT_EQ(dst[i], static_cast<int>(2 * i));
    }
  });
}

// --- One-sided (mpi.Win) through the bindings --------------------------------

TEST(BindingRmaTest, Mv2jPutGetFenceRoundTrip) {
  run(fast_opts(3), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const int me = world.getRank();
    const int n = world.getSize();
    Win win = world.winAllocate(static_cast<std::size_t>(n) * 4);
    EXPECT_EQ(win.getRank(), me);
    EXPECT_EQ(win.getSize(), n);
    EXPECT_EQ(win.getBytes((me + 1) % n), static_cast<std::size_t>(n) * 4);

    auto origin = env.newDirectBuffer(4);
    origin.put_int(0, 100 + me);
    win.fence();
    for (int t = 0; t < n; ++t) {
      if (t == me) continue;
      win.put(origin, 1, INT, t, static_cast<std::size_t>(me) * 4);
    }
    win.fence();
    auto readback = env.newDirectBuffer(4);
    for (int src = 0; src < n; ++src) {
      if (src == me) continue;
      win.get(readback, 1, INT, me, static_cast<std::size_t>(src) * 4);
      EXPECT_EQ(readback.get_int(0), 100 + src);
    }
    win.fence();
    win.free();
    EXPECT_FALSE(win.valid());
  });
}

TEST(BindingRmaTest, Mv2jDerivedPutAccumulateFetchOpUnderLocks) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const int me = world.getRank();
    const Datatype stride2 = Datatype::vector(4, 1, 2, INT);  // 4 ints, gap
    Win win = world.winAllocate(64);
    if (me == 0) {
      auto packed = env.newDirectBuffer(16);
      for (int i = 0; i < 4; ++i)
        packed.put_int(static_cast<std::size_t>(i) * 4, 5 + i);
      win.lock(LOCK_EXCLUSIVE, 1);
      // Packed origin, strided target layout: ints land at 0,8,16,24.
      win.put(packed, 4, INT, 1, 0, stride2);
      win.unlock(1);

      auto one = env.newDirectBuffer(8);
      one.put_long(0, 3);
      win.lock(LOCK_EXCLUSIVE, 1);
      win.accumulate(one, 1, LONG, SUM, 1, 32);
      win.accumulate(one, 1, LONG, SUM, 1, 32);
      win.unlock(1);

      auto fetched = env.newDirectBuffer(8);
      win.lock(LOCK_EXCLUSIVE, 1);
      win.fetchOp(one, fetched, LONG, SUM, 1, 32);
      win.unlock(1);
      EXPECT_EQ(fetched.get_long(0), 6) << "fetchOp returns pre-op value";
    }
    world.barrier();
    if (me == 1) {
      auto self = env.newDirectBuffer(64);
      win.lock(LOCK_SHARED, 1);
      win.get(self, 64, BYTE, 1, 0);
      win.unlock(1);
      EXPECT_EQ(self.get_int(0), 5);
      EXPECT_EQ(self.get_int(8), 6);
      EXPECT_EQ(self.get_int(16), 7);
      EXPECT_EQ(self.get_int(24), 8);
      EXPECT_EQ(self.get_long(32), 9) << "two accumulates plus fetchOp";
    }
    world.barrier();
    win.free();
  });
}

TEST(BindingRmaTest, Mv2jWinCreateExposesBufferZeroCopy) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    const int me = world.getRank();
    auto exposed = env.newDirectBuffer(16);
    exposed.put_int(0, -1);
    Win win = world.winCreate(exposed, 16);
    std::vector<int> peer = {1 - me};
    if (me == 1) {
      win.post(peer);
      win.waitFor();
      // The put landed in the ByteBuffer itself — no mailbox copy to
      // drain; winCreate exposed this exact memory.
      EXPECT_EQ(exposed.get_int(0), 4242);
    } else {
      win.start(peer);
      auto origin = env.newDirectBuffer(4);
      origin.put_int(0, 4242);
      win.put(origin, 1, INT, 1, 0);
      win.complete();
    }
    world.barrier();
    win.free();
  });
}

TEST(BindingRmaTest, Mv2jRejectsHeapOriginBuffers) {
  run(fast_opts(2), [](Env& env) {
    Comm& world = env.COMM_WORLD();
    Win win = world.winAllocate(16);
    auto heap = minijvm::ByteBuffer::allocate(env.jvm(), 16);
    win.lockAll();
    EXPECT_THROW(win.put(heap, 1, INT, 1 - world.getRank(), 0),
                 UnsupportedOperationError);
    win.unlockAll();
    win.free();
  });
}

TEST(BindingRmaTest, OmpijWinMirrorsTheApi) {
  ompij::RunOptions o;
  o.ranks = 2;
  o.jvm.heap_bytes = 8 << 20;
  o.jvm.jni_crossing_ns = 0;
  ompij::run(o, [](ompij::Env& env) {
    ompij::Comm& world = env.COMM_WORLD();
    const int me = world.getRank();
    ompij::Win win = world.winAllocate(8);
    auto origin = env.newDirectBuffer(4);
    origin.put_int(0, 77 + me);
    win.fence();
    win.put(origin, 1, INT, 1 - me, static_cast<std::size_t>(me) * 4);
    win.fence();
    auto readback = env.newDirectBuffer(4);
    win.lock(ompij::LOCK_SHARED, me);
    win.get(readback, 1, INT, me, static_cast<std::size_t>(1 - me) * 4);
    win.unlock(me);
    EXPECT_EQ(readback.get_int(0), 77 + (1 - me));
    world.barrier();
    win.free();
  });
}

}  // namespace
}  // namespace jhpc::mv2j
