// A Universe's rank threads: started by the first run, parked between
// runs and joined by the destructor. A reused Universe spawns no thread,
// every run starts its ranks with the caller's CPU mask, and a rank that
// threw, was killed or died on a planned kill is back for the next run.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"

namespace jhpc::minimpi {
namespace {

/// Threads of this process, from /proc/self/task.
int thread_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// The thread count once a joined thread's task entry is gone: a join
/// returns a moment before the kernel drops the exited thread's entry.
int settled_thread_count(int want) {
  int n = thread_count();
  for (int i = 0; i < 200 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = thread_count();
  }
  return n;
}

/// The count with no thread of an earlier test still exiting. A sanitizer
/// runtime starts a helper thread along with the process's first thread,
/// so one thread is started first for the baseline to include it.
int quiet_thread_count() {
  std::thread([] {}).join();
  int n = thread_count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int m = thread_count();
    if (m == n) break;
    n = m;
  }
  return n;
}

UniverseConfig cfg(int ranks) {
  UniverseConfig c;
  c.world_size = ranks;
  c.obs = obs::ObsConfig{};
  return c;
}

/// Rank 0 sends `value` to every other rank; each returns what it got.
void fan_out(Universe& u, int value, std::vector<int>& got) {
  got.assign(static_cast<std::size_t>(u.config().world_size), -1);
  u.run([&](Comm& world) {
    int v = value;
    if (world.rank() == 0) {
      for (int r = 1; r < world.size(); ++r) world.send(&v, sizeof v, r, 1);
    } else {
      world.recv(&v, sizeof v, 0, 1);
    }
    got[static_cast<std::size_t>(world.rank())] = v;
  });
}

void expect_fan_out(Universe& u, int value) {
  std::vector<int> got;
  fan_out(u, value, got);
  for (const int v : got) EXPECT_EQ(v, value);
}

cpu_set_t this_thread_mask() {
  cpu_set_t m;
  CPU_ZERO(&m);
  EXPECT_EQ(sched_getaffinity(0, sizeof(m), &m), 0);
  return m;
}

cpu_set_t one_cpu(const cpu_set_t& from, bool last) {
  int pick = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &from)) continue;
    pick = c;
    if (!last) break;
  }
  cpu_set_t m;
  CPU_ZERO(&m);
  CPU_SET(pick, &m);
  return m;
}

void pin_this_thread(const cpu_set_t& m) {
  ASSERT_EQ(sched_setaffinity(0, sizeof(m), &m), 0);
}

TEST(RankThreadsTest, ReusedUniverseStartsNoThread) {
  const int base = quiet_thread_count();
  {
    Universe u(cfg(3));
    EXPECT_EQ(thread_count(), base) << "threads start on the first run";
    expect_fan_out(u, 1);
    EXPECT_EQ(thread_count(), base + 3);
    expect_fan_out(u, 2);
    EXPECT_EQ(thread_count(), base + 3) << "the second run started threads";
    for (int run = 3; run <= 10; ++run) expect_fan_out(u, run);
    EXPECT_EQ(thread_count(), base + 3) << "the tenth run started threads";
  }
  EXPECT_EQ(settled_thread_count(base), base);
}

TEST(RankThreadsTest, AlternatingUniversesKeepTheirOwnThreads) {
  const int base = quiet_thread_count();
  {
    Universe a(cfg(2));
    Universe b(cfg(3));
    for (int run = 0; run < 6; ++run) {
      expect_fan_out(a, run);
      expect_fan_out(b, 100 + run);
      EXPECT_EQ(thread_count(), base + 2 + 3) << "after run " << run;
    }
  }
  EXPECT_EQ(settled_thread_count(base), base);
}

TEST(RankThreadsTest, PinningInOneRunDoesNotLeakIntoTheNext) {
  const cpu_set_t caller = this_thread_mask();
  if (CPU_COUNT(&caller) < 2) GTEST_SKIP() << "needs two CPUs to pin to one";
  const cpu_set_t pinned = one_cpu(caller, /*last=*/false);
  Universe u(cfg(2));
  u.run([&](Comm&) { pin_this_thread(pinned); });
  std::atomic<int> same{0};
  u.run([&](Comm&) {
    const cpu_set_t m = this_thread_mask();
    if (CPU_EQUAL(&m, &caller)) same.fetch_add(1);
  });
  EXPECT_EQ(same.load(), 2) << "a rank kept the previous run's pinning";
}

TEST(RankThreadsTest, PinnedCallerHandsItsMaskToTheRanks) {
  const cpu_set_t caller = this_thread_mask();
  if (CPU_COUNT(&caller) < 2) GTEST_SKIP() << "needs two CPUs to pin to one";
  const cpu_set_t pinned = one_cpu(caller, /*last=*/true);
  Universe u(cfg(2));
  const auto ranks_match = [&u](const cpu_set_t& want) {
    std::atomic<int> same{0};
    u.run([&](Comm&) {
      const cpu_set_t m = this_thread_mask();
      if (CPU_EQUAL(&m, &want)) same.fetch_add(1);
    });
    return same.load();
  };
  EXPECT_EQ(ranks_match(caller), 2);
  int from_pinned = 0;
  std::thread t([&] {
    pin_this_thread(pinned);
    from_pinned = ranks_match(pinned);
  });
  t.join();
  EXPECT_EQ(from_pinned, 2) << "the ranks did not take the pinned caller's mask";
  EXPECT_EQ(ranks_match(caller), 2) << "the pinned caller's mask leaked";
}

TEST(RankThreadsTest, ThrowingRankIsBackForTheNextRun) {
  Universe u(cfg(3));
  expect_fan_out(u, 1);
  const int threads = thread_count();
  EXPECT_THROW(u.run([](Comm& world) {
                 if (world.rank() == 1) throw std::runtime_error("rank 1");
                 world.barrier();  // aborted by rank 1's throw
               }),
               std::runtime_error);
  expect_fan_out(u, 2);
  EXPECT_EQ(thread_count(), threads);
}

TEST(RankThreadsTest, KilledRankIsBackForTheNextRun) {
  Universe u(cfg(3));
  expect_fan_out(u, 1);
  const int threads = thread_count();
  std::atomic<int> failed{0};
  u.run([&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      u.kill_rank(1);
      return;
    }
    char b = 0;
    try {
      world.recv(&b, 1, 1 - world.rank(), 7);  // rank 1 is shot in here
    } catch (const RankFailedError&) {
      failed.fetch_add(1);
    }
  });
  EXPECT_EQ(failed.load(), 1) << "rank 0 must see rank 1's death";
  expect_fan_out(u, 2);
  EXPECT_EQ(thread_count(), threads);
}

TEST(RankThreadsTest, PlannedKillIsBackForTheNextRun) {
  // Rank 1 is planned to die at 1 ms of virtual time. Under the
  // deterministic clock only the 50 us links move the clocks: a 40-round
  // ping-pong reaches the kill, a single fan-out does not.
  UniverseConfig c = cfg(2);
  c.deterministic_clock = true;
  c.fabric.ranks_per_node = 1;
  c.fabric.inter_latency_ns = 50'000;
  c.fabric.faults.kills = {{1, 1'000'000}};
  Universe u(c);
  bool failed = false;
  u.run([&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    char b = 0;
    try {
      for (int i = 0; i < 40; ++i) {
        if (world.rank() == 0) {
          world.send(&b, 1, 1, 0);
          world.recv(&b, 1, 1, 0);
        } else {
          world.recv(&b, 1, 0, 0);
          world.send(&b, 1, 0, 0);
        }
      }
    } catch (const RankFailedError&) {
      if (world.rank() == 0) failed = true;
    }
  });
  EXPECT_TRUE(failed) << "the planned kill did not happen";
  const int threads = thread_count();
  std::vector<int> got;
  fan_out(u, 5, got);
  EXPECT_EQ(got, std::vector<int>({5, 5}));
  EXPECT_EQ(thread_count(), threads);
}

TEST(RankThreadsTest, TwoUniversesRunConcurrently) {
  constexpr int kRuns = 20;
  std::atomic<int> bad{0};
  const auto tenant = [&bad](int ranks, int salt) {
    Universe u(cfg(ranks));
    for (int run = 0; run < kRuns; ++run) {
      std::vector<int> got;
      fan_out(u, salt + run, got);
      for (const int v : got) {
        if (v != salt + run) bad.fetch_add(1);
      }
    }
  };
  std::thread a(tenant, 2, 1000);
  std::thread b(tenant, 4, 2000);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace jhpc::minimpi
