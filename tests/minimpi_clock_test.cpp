// The two-sided transport's clock rule (detail/transport.hpp, RankClock):
// how many thread-CPU clock reads an eager message costs, that a modelled
// copy is charged once, that a receiver behind the arrival still pays its
// copy, and that polling completes under the deterministic clock.
#include <dlfcn.h>
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "detail/transport.hpp"
#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/support/clock.hpp"

namespace {

// clock_gettime interposer linked into this binary (perfbench does the
// same through LD_PRELOAD): counts the calling thread's
// CLOCK_THREAD_CPUTIME_ID reads and forwards every call to the C library.
thread_local unsigned long long t_cpu_reads = 0;

using ClockFn = int (*)(clockid_t, struct timespec*);

ClockFn next_clock_gettime() {
  static const auto fn =
      reinterpret_cast<ClockFn>(dlsym(RTLD_NEXT, "clock_gettime"));
  return fn;
}

}  // namespace

extern "C" int clock_gettime(clockid_t id, struct timespec* ts) {
  if (id == CLOCK_THREAD_CPUTIME_ID) ++t_cpu_reads;
  return next_clock_gettime()(id, ts);
}

namespace jhpc::minimpi {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

UniverseConfig cfg() {
  UniverseConfig c;
  c.world_size = 2;
  // Observability routes blocking receives through post + wait; the
  // counts below are for the uninstrumented fast path.
  c.obs = obs::ObsConfig{};
  return c;
}

/// Host-side hand-off between the two rank threads: no CPU while parked
/// and no MPI message, so it moves neither virtual clock.
struct Gate {
  std::atomic<int> open{0};
  void release() {
    open.store(1);
    open.notify_all();
  }
  void await() { open.wait(0); }
};

TEST(ClockRuleTest, EagerMessageCostsOneReadPerSide) {
  // Rank 1 is held off until every send is queued, so no send finds a
  // posted receive or a held lock, and every receive finds its message.
  constexpr int kN = 1000;
  Gate sent;
  unsigned long long reads[2] = {0, 0};
  Universe::launch(cfg(), [&](Comm& world) {
    std::vector<std::uint8_t> buf(64, 7);
    const int me = world.rank();
    if (me == 1) sent.await();
    const unsigned long long r0 = t_cpu_reads;
    for (int i = 0; i < kN; ++i) {
      if (me == 0) {
        world.send(buf.data(), buf.size(), 1, 0);
      } else {
        world.recv(buf.data(), buf.size(), 0, 0);
      }
    }
    reads[me] = t_cpu_reads - r0;
    if (me == 0) sent.release();
  });
  EXPECT_GT(reads[0], 0u) << "the interposer saw no thread-CPU reads";
  EXPECT_LE(reads[0], kN + 8u) << "sender reads for " << kN << " sends";
  EXPECT_LE(reads[1], kN + 8u) << "receiver reads for " << kN << " receives";
}

TEST(ClockRuleTest, ModelledCopyIsChargedOnce) {
  // A sender that never blocks: its queued 16 KiB eager copies are
  // charged from the model, and the credit keeps the next entry read from
  // charging the real memcpy again. Virtual time cannot then outrun the
  // thread CPU the loop consumed.
  constexpr int kN = 256;
  constexpr std::size_t kBytes = 16 * 1024;
  Gate warm, sent;
  std::int64_t dv = 0, dcpu = 0;
  Universe::launch(cfg(), [&](Comm& world) {
    std::vector<std::uint8_t> buf(kBytes, 3);
    if (world.rank() == 0) {
      // Warm-up the other way: receiving kN queued messages returns kN
      // faulted-in slabs to rank 0's recycler, so the timed sends copy
      // into warm pages instead of paying page faults.
      warm.await();
      for (int i = 0; i < kN; ++i) world.recv(buf.data(), kBytes, 1, 1);
      const std::int64_t v0 = world.vtime_ns();
      const std::int64_t c0 = jhpc::thread_cpu_ns();
      for (int i = 0; i < kN; ++i) world.send(buf.data(), kBytes, 1, 0);
      const std::int64_t c1 = jhpc::thread_cpu_ns();
      dv = world.vtime_ns() - v0;
      dcpu = c1 - c0;
      sent.release();
    } else {
      for (int i = 0; i < kN; ++i) world.send(buf.data(), kBytes, 0, 1);
      warm.release();
      sent.await();
      for (int i = 0; i < kN; ++i) world.recv(buf.data(), kBytes, 0, 0);
    }
  });
  ASSERT_GT(dcpu, 0);
  EXPECT_GE(dv, kN * static_cast<std::int64_t>(kBytes) *
                    detail::kEagerCopyNsPerKiB / 1024)
      << "every copy is charged at least its model";
  EXPECT_LE(static_cast<double>(dv), 1.05 * static_cast<double>(dcpu))
      << "virtual " << dv << " ns over " << dcpu << " ns of thread CPU";
}

TEST(ClockRuleTest, WaitingReceiverPaysItsEagerCopy) {
  // A 1 MiB eager payload queued while the receiver's clock is behind its
  // arrival: the copy out of the slab starts at the arrival, so the
  // receive completes a copy's model after the sender's clock at the send
  // (plus the 100 ns intra-node hop). Each side's real memcpy beyond the
  // model reaches its own post-call reading, by a different amount on each
  // side; both sides bracket their call with thread-CPU readings and
  // subtract that excess, so what is compared is the modelled part alone.
  // The median of 5 runs rides out a rare host interruption that lands in
  // one side's bracket only.
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer-instrumented memcpy runs far beyond the "
                    "copy model, and its excess reaches each side's reading";
  }
  constexpr std::size_t kBytes = 1 << 20;
  constexpr std::int64_t kModel =
      static_cast<std::int64_t>(kBytes) * detail::kEagerCopyNsPerKiB / 1024;
  // Virtual time after a call, less the thread CPU the call took beyond
  // the copy model: the clock as the model alone would have left it.
  const auto modelled_after = [](Comm& world, auto&& call) {
    const std::int64_t c0 = jhpc::thread_cpu_ns();
    call();
    const std::int64_t excess = jhpc::thread_cpu_ns() - c0 - kModel;
    return world.vtime_ns() - std::max<std::int64_t>(excess, 0);
  };
  UniverseConfig c = cfg();
  c.eager_limit = kBytes;
  Universe u(c);
  std::vector<std::int64_t> lead;
  for (int run = 0; run < 5; ++run) {
    Gate warm, sent;
    std::int64_t sent_at = 0, done_at = 0;
    u.run([&](Comm& world) {
      std::vector<std::uint8_t> buf(kBytes, 5);
      if (world.rank() == 0) {
        // A warm-up message the other way, received from the unexpected
        // queue, leaves a faulted-in 1 MiB slab on rank 0's free list.
        warm.await();
        world.recv(buf.data(), kBytes, 1, 1);
        // Get 2 ms of thread CPU ahead of the receiver.
        const std::int64_t t0 = jhpc::thread_cpu_ns();
        while (jhpc::thread_cpu_ns() - t0 < 2'000'000) {
        }
        sent_at = modelled_after(
            world, [&] { world.send(buf.data(), kBytes, 1, 0); });
        sent.release();
      } else {
        world.send(buf.data(), kBytes, 0, 1);
        warm.release();
        sent.await();
        done_at = modelled_after(
            world, [&] { world.recv(buf.data(), kBytes, 0, 0); });
      }
    });
    lead.push_back(done_at - sent_at);
  }
  std::sort(lead.begin(), lead.end());
  EXPECT_GE(lead[2], kModel / 2)
      << "median lead of the receive over the sender's clock at the send; "
      << "leads " << lead[0] << ".." << lead[4] << " ns";
}

// --- Polling under the deterministic clock --------------------------------

constexpr long kMaxPolls = 1'000'000;

UniverseConfig det_cfg() {
  UniverseConfig c = cfg();
  c.deterministic_clock = true;
  return c;
}

TEST(DetClockPollTest, TestObservesACompletedReceive) {
  long polls = 0;
  std::uint64_t got = 0;
  Gate sent;
  Universe::launch(det_cfg(), [&](Comm& world) {
    if (world.rank() == 0) {
      const std::uint64_t v = 42;
      world.send(&v, sizeof v, 1, 0);
      sent.release();
      return;
    }
    Request r = world.irecv(&got, sizeof got, 0, 0);
    sent.await();
    while (polls < kMaxPolls && !r.test()) ++polls;
    if (r.valid()) r.wait();
  });
  EXPECT_LT(polls, kMaxPolls);
  EXPECT_EQ(got, 42u);
}

TEST(DetClockPollTest, IprobeSeesAQueuedEnvelope) {
  long polls = 0;
  Status st;
  Gate sent;
  Universe::launch(det_cfg(), [&](Comm& world) {
    std::uint64_t v = 7;
    if (world.rank() == 0) {
      world.send(&v, sizeof v, 1, 3);
      sent.release();
      return;
    }
    sent.await();
    while (polls < kMaxPolls && !world.iprobe(0, 3, &st)) ++polls;
    world.recv(&v, sizeof v, 0, 3);
  });
  EXPECT_LT(polls, kMaxPolls);
  EXPECT_EQ(st.tag, 3);
  EXPECT_EQ(st.count_bytes, sizeof(std::uint64_t));
}

/// Fail-stops one rank of a running Universe unless destroyed first: a
/// poll loop with no bound of its own then fails its test instead of
/// hanging it.
class Watchdog {
 public:
  Watchdog(Universe& u, int rank, std::chrono::seconds limit)
      : thread_([this, &u, rank, limit] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return done_; }))
            u.kill_rank(rank);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST(DetClockPollTest, WaitAnyReturnsACompletedReceive) {
  Universe u(det_cfg());
  bool returned = false;
  std::size_t index = 99;
  std::uint64_t got = 0;
  Gate sent;
  {
    const Watchdog dog(u, 1, std::chrono::seconds(10));
    u.run([&](Comm& world) {
      if (world.rank() == 0) {
        const std::uint64_t v = 9;
        world.send(&v, sizeof v, 1, 0);
        sent.release();
        return;
      }
      // reqs[0] has no sender until wait_any returns.
      std::uint64_t never = 0;
      std::vector<Request> reqs;
      reqs.push_back(world.irecv(&never, sizeof never, 1, 1));
      reqs.push_back(world.irecv(&got, sizeof got, 0, 0));
      sent.await();
      index = Request::wait_any(reqs);
      returned = true;
      // Complete reqs[0] with a message to self.
      const std::uint64_t v = 0;
      world.send(&v, sizeof v, 1, 1);
      reqs[0].wait();
    });
  }
  EXPECT_TRUE(returned);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 9u);
}

}  // namespace
}  // namespace jhpc::minimpi
