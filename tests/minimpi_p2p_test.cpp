// Point-to-point semantics of the minimpi substrate: blocking and
// non-blocking transfer, matching (wildcards, ordering), eager vs
// rendezvous protocols, probe, sendrecv, error paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

UniverseConfig cfg(int n) {
  UniverseConfig c;
  c.world_size = n;
  return c;
}

std::vector<std::uint8_t> pattern(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>((i * 31 + seed * 17) & 0xff);
  return v;
}

TEST(P2PTest, BlockingSendRecvSmall) {
  Universe::launch(cfg(2), [](Comm& world) {
    const auto msg = pattern(64, 1);
    if (world.rank() == 0) {
      world.send(msg.data(), msg.size(), 1, 7);
    } else {
      std::vector<std::uint8_t> buf(64, 0);
      Status st;
      world.recv(buf.data(), buf.size(), 0, 7, &st);
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count_bytes, 64u);
    }
  });
}

TEST(P2PTest, BlockingSendRecvRendezvousSize) {
  // Well above the default eager limit: exercises the rendezvous path.
  Universe::launch(cfg(2), [](Comm& world) {
    const std::size_t n = 1 << 20;
    if (world.rank() == 0) {
      const auto msg = pattern(n, 2);
      world.send(msg.data(), msg.size(), 1, 0);
    } else {
      std::vector<std::uint8_t> buf(n, 0);
      world.recv(buf.data(), buf.size(), 0, 0);
      EXPECT_EQ(buf, pattern(n, 2));
    }
  });
}

TEST(P2PTest, ZeroByteMessage) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      world.send(nullptr, 0, 1, 3);
    } else {
      Status st;
      world.recv(nullptr, 0, 0, 3, &st);
      EXPECT_EQ(st.count_bytes, 0u);
    }
  });
}

TEST(P2PTest, SendBeforeRecvPostedUnexpectedQueue) {
  // Rank 1 delays its receive so the message parks in the unexpected
  // queue first.
  Universe::launch(cfg(2), [](Comm& world) {
    int v = 42;
    if (world.rank() == 0) {
      world.send(&v, sizeof(v), 1, 0);
      world.barrier();
    } else {
      world.barrier();  // ensure the send happened first
      int got = 0;
      world.recv(&got, sizeof(got), 0, 0);
      EXPECT_EQ(got, 42);
    }
  });
}

TEST(P2PTest, AnySourceWildcard) {
  Universe::launch(cfg(4), [](Comm& world) {
    if (world.rank() == 0) {
      int sum = 0;
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        Status st;
        world.recv(&v, sizeof(v), kAnySource, 5, &st);
        EXPECT_EQ(st.source + 100, v);
        sum += v;
      }
      EXPECT_EQ(sum, 101 + 102 + 103);
    } else {
      const int v = world.rank() + 100;
      world.send(&v, sizeof(v), 0, 5);
    }
  });
}

TEST(P2PTest, AnyTagWildcardReportsActualTag) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      int v = 9;
      world.send(&v, sizeof(v), 1, 123);
    } else {
      int got = 0;
      Status st;
      world.recv(&got, sizeof(got), 0, kAnyTag, &st);
      EXPECT_EQ(st.tag, 123);
      EXPECT_EQ(got, 9);
    }
  });
}

TEST(P2PTest, TagSelectivityHoldsBackNonMatching) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      int a = 1, b = 2;
      world.send(&a, sizeof(a), 1, 10);
      world.send(&b, sizeof(b), 1, 20);
    } else {
      int got = 0;
      // Receive the *second* message first by tag.
      world.recv(&got, sizeof(got), 0, 20);
      EXPECT_EQ(got, 2);
      world.recv(&got, sizeof(got), 0, 10);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(P2PTest, NonOvertakingSameTag) {
  // Messages with identical envelopes must arrive in send order.
  Universe::launch(cfg(2), [](Comm& world) {
    constexpr int kN = 200;
    if (world.rank() == 0) {
      for (int i = 0; i < kN; ++i) world.send(&i, sizeof(i), 1, 0);
    } else {
      for (int i = 0; i < kN; ++i) {
        int got = -1;
        world.recv(&got, sizeof(got), 0, 0);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(P2PTest, NonBlockingWindowedExchange) {
  // The osu_bw pattern: a window of isends against pre-posted irecvs.
  Universe::launch(cfg(2), [](Comm& world) {
    constexpr int kWindow = 32;
    const std::size_t n = 4096;
    if (world.rank() == 0) {
      const auto msg = pattern(n, 3);
      std::vector<Request> reqs;
      for (int i = 0; i < kWindow; ++i)
        reqs.push_back(world.isend(msg.data(), n, 1, 1));
      Request::wait_all(reqs);
      char ack = 0;
      world.recv(&ack, 1, 1, 2);
    } else {
      std::vector<std::vector<std::uint8_t>> bufs(
          kWindow, std::vector<std::uint8_t>(n));
      std::vector<Request> reqs;
      for (int i = 0; i < kWindow; ++i)
        reqs.push_back(world.irecv(bufs[static_cast<std::size_t>(i)].data(),
                                   n, 0, 1));
      Request::wait_all(reqs);
      for (const auto& b : bufs) EXPECT_EQ(b, pattern(n, 3));
      char ack = 1;
      world.send(&ack, 1, 0, 2);
    }
  });
}

TEST(P2PTest, IsendRendezvousCompletesAfterMatch) {
  Universe::launch(cfg(2), [](Comm& world) {
    const std::size_t n = 256 * 1024;  // rendezvous
    if (world.rank() == 0) {
      const auto msg = pattern(n, 4);
      Request r = world.isend(msg.data(), n, 1, 0);
      world.barrier();  // receiver posts after the barrier
      r.wait();
    } else {
      world.barrier();
      std::vector<std::uint8_t> buf(n);
      world.recv(buf.data(), n, 0, 0);
      EXPECT_EQ(buf, pattern(n, 4));
    }
  });
}

TEST(P2PTest, TestPollsToCompletion) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      int v = 5;
      world.send(&v, sizeof(v), 1, 0);
    } else {
      int got = 0;
      Request r = world.irecv(&got, sizeof(got), 0, 0);
      Status st;
      while (!r.test(&st)) {
      }
      EXPECT_EQ(got, 5);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(P2PTest, WaitAnyFindsTheArrivedOne) {
  Universe::launch(cfg(3), [](Comm& world) {
    if (world.rank() == 0) {
      int a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(world.irecv(&a, sizeof(a), 1, 0));
      reqs.push_back(world.irecv(&b, sizeof(b), 2, 0));
      Status st;
      const auto idx = Request::wait_any(reqs, &st);
      EXPECT_TRUE(idx == 0 || idx == 1);
      Request::wait_all(reqs);
      EXPECT_EQ(a, 101);
      EXPECT_EQ(b, 102);
    } else {
      const int v = 100 + world.rank();
      world.send(&v, sizeof(v), 0, 0);
    }
  });
}

TEST(P2PTest, SendRecvMirrorDoesNotDeadlock) {
  Universe::launch(cfg(2), [](Comm& world) {
    const std::size_t n = 512 * 1024;  // rendezvous-sized both ways
    const auto mine = pattern(n, static_cast<unsigned>(world.rank()));
    std::vector<std::uint8_t> theirs(n);
    const int peer = 1 - world.rank();
    world.sendrecv(mine.data(), n, peer, 0, theirs.data(), n, peer, 0);
    EXPECT_EQ(theirs, pattern(n, static_cast<unsigned>(peer)));
  });
}

TEST(P2PTest, ProbeSeesEnvelopeWithoutConsuming) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      int v = 77;
      world.send(&v, sizeof(v), 1, 13);
    } else {
      const Status st = world.probe(0, 13);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 13);
      EXPECT_EQ(st.count_bytes, sizeof(int));
      int got = 0;
      world.recv(&got, sizeof(got), 0, 13);
      EXPECT_EQ(got, 77);
    }
  });
}

TEST(P2PTest, IprobeReturnsFalseWhenNothingPending) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 1) {
      Status st;
      EXPECT_FALSE(world.iprobe(0, 99, &st));
    }
    world.barrier();
  });
}

TEST(P2PTest, TruncationThrowsOnReceiver) {
  Universe::launch(cfg(2), [](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::uint8_t> big(128, 1);
      world.send(big.data(), big.size(), 1, 0);
    } else {
      std::vector<std::uint8_t> small(16);
      EXPECT_THROW(world.recv(small.data(), small.size(), 0, 0),
                   jhpc::Error);
    }
  });
}

TEST(P2PTest, InvalidPeerThrows) {
  Universe::launch(cfg(2), [](Comm& world) {
    int v = 0;
    EXPECT_THROW(world.send(&v, sizeof(v), 5, 0), InvalidArgumentError);
    EXPECT_THROW(world.recv(&v, sizeof(v), -3, 0), InvalidArgumentError);
    EXPECT_THROW(world.send(&v, sizeof(v), 1 - world.rank(), -1),
                 InvalidArgumentError);
    world.barrier();
  });
}

TEST(P2PTest, SelfSendWorks) {
  Universe::launch(cfg(2), [](Comm& world) {
    // Eager self-send: buffered, then received.
    const int v = world.rank() + 1000;
    world.send(&v, sizeof(v), world.rank(), 0);
    int got = 0;
    world.recv(&got, sizeof(got), world.rank(), 0);
    EXPECT_EQ(got, v);
  });
}

TEST(P2PTest, NullRequestWaitIsNoop) {
  Request r;
  EXPECT_FALSE(r.valid());
  Status st;
  r.wait(&st);
  EXPECT_TRUE(r.test());
}

TEST(P2PTest, ExceptionInOneRankAbortsTheJob) {
  UniverseConfig c = cfg(2);
  Universe u(c);
  EXPECT_THROW(u.run([](Comm& world) {
                 if (world.rank() == 0) {
                   throw std::runtime_error("rank0 exploded");
                 }
                 // Rank 1 blocks forever; the abort must wake it.
                 int v = 0;
                 world.recv(&v, sizeof(v), 0, 0);
               }),
               std::runtime_error);
}

TEST(P2PTest, UniverseIsReusableAcrossRuns) {
  Universe u(cfg(2));
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    u.run([&](Comm& world) {
      int v = world.rank();
      int got = 0;
      const int peer = 1 - world.rank();
      world.sendrecv(&v, sizeof(v), peer, 0, &got, sizeof(got), peer, 0);
      sum += got;
    });
    EXPECT_EQ(sum.load(), 1);
  }
}

TEST(P2PTest, ManyRanksRingExchange) {
  // Oversubscription sanity: 16 rank threads on any core count.
  Universe::launch(cfg(16), [](Comm& world) {
    const int n = world.size();
    const int right = (world.rank() + 1) % n;
    const int left = (world.rank() - 1 + n) % n;
    int token = world.rank();
    for (int step = 0; step < n; ++step) {
      int incoming = -1;
      world.sendrecv(&token, sizeof(token), right, 0, &incoming,
                     sizeof(incoming), left, 0);
      token = incoming;
    }
    // After n hops the token returns home.
    EXPECT_EQ(token, world.rank());
  });
}

TEST(PersistentTest, StartWaitCyclesReuseTheRequest) {
  Universe::launch(cfg(2), [](Comm& world) {
    constexpr int kRounds = 30;
    std::int32_t payload = 0;
    if (world.rank() == 0) {
      Prequest ps = world.send_init(&payload, sizeof(payload), 1, 4);
      for (int i = 0; i < kRounds; ++i) {
        payload = i * 11;
        ps.start();
        ps.wait();
        world.barrier();
      }
    } else {
      std::int32_t got = -1;
      Prequest pr = world.recv_init(&got, sizeof(got), 0, 4);
      for (int i = 0; i < kRounds; ++i) {
        pr.start();
        Status st;
        pr.wait(&st);
        EXPECT_EQ(got, i * 11);
        EXPECT_EQ(st.count_bytes, sizeof(std::int32_t));
        world.barrier();
      }
    }
  });
}

TEST(PersistentTest, StartAllAndRendezvousSizes) {
  UniverseConfig c = cfg(2);
  c.eager_limit = 64;  // force the rendezvous path
  Universe::launch(c, [](Comm& world) {
    const std::size_t n = 4096;
    std::vector<std::uint8_t> a(n), b(n);
    if (world.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint8_t>(i);
        b[i] = static_cast<std::uint8_t>(i * 3);
      }
      std::array<Prequest, 2> reqs{world.send_init(a.data(), n, 1, 1),
                                   world.send_init(b.data(), n, 1, 2)};
      Prequest::start_all(reqs);
      for (auto& r : reqs) r.wait();
    } else {
      std::array<Prequest, 2> reqs{world.recv_init(a.data(), n, 0, 1),
                                   world.recv_init(b.data(), n, 0, 2)};
      Prequest::start_all(reqs);
      for (auto& r : reqs) r.wait();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], static_cast<std::uint8_t>(i));
        ASSERT_EQ(b[i], static_cast<std::uint8_t>(i * 3));
      }
    }
  });
}

TEST(PersistentTest, DoubleStartRejected) {
  UniverseConfig c = cfg(2);
  c.eager_limit = 4;  // keep the first start active (rendezvous)
  Universe u(c);
  EXPECT_THROW(u.run([](Comm& world) {
                 if (world.rank() == 0) {
                   std::vector<std::uint8_t> buf(64);
                   Prequest p = world.send_init(buf.data(), 64, 1, 0);
                   p.start();
                   p.start();  // previous instance still active
                 } else {
                   // Never post the receive: a posted one would match the
                   // first start and complete it. Rank 0's error aborts
                   // this wait.
                   world.barrier();
                 }
               }),
               InvalidArgumentError);
}

class EagerLimitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EagerLimitTest, RoundTripAcrossProtocolBoundary) {
  // Sweep message sizes around the eager/rendezvous switch with a small
  // limit so both protocols are exercised cheaply.
  UniverseConfig c = cfg(2);
  c.eager_limit = 1024;
  const std::size_t n = GetParam();
  Universe::launch(c, [n](Comm& world) {
    if (world.rank() == 0) {
      const auto msg = pattern(n, 9);
      world.send(msg.data(), n, 1, 0);
    } else {
      std::vector<std::uint8_t> buf(n + 1, 0xAA);
      Status st;
      world.recv(buf.data(), n, 0, 0, &st);
      EXPECT_EQ(st.count_bytes, n);
      const auto want = pattern(n, 9);
      EXPECT_TRUE(std::memcmp(buf.data(), want.data(), n) == 0);
      EXPECT_EQ(buf[n], 0xAA);  // no overwrite past the message
    }
  });
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, EagerLimitTest,
                         ::testing::Values(1, 512, 1023, 1024, 1025, 4096,
                                           65536));

}  // namespace
}  // namespace jhpc::minimpi
