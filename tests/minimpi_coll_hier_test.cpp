// Property tests for the topology-aware hier collective suite.
//
// Four contracts beyond the differential oracle in
// minimpi_coll_diff_test.cpp:
//   1. Topology independence: for ANY rank->node placement (seeded random
//      node_map shuffles, uneven node sizes, leaders that are not rank 0),
//      the hier suite's results are bit-identical to the mv2 suite's on
//      the same inputs.
//   2. Chaos: seeded link drops and jitter on the inter-node legs never
//      corrupt a result — the reliable transport under the leader team
//      keeps the hier schedule exactly-once.
//   3. Rank failure: a scheduled kill inside a hier collective surfaces
//      as a typed RankFailedError/CommRevokedError on every survivor
//      (never a hang on a shared flag).
//   4. Accounting: the single-copy fast path is observable — the
//      coll.hier.single_copy* pvars count exactly the direct out-of-
//      publisher-buffer copies, and stay zero when the suite is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

UniverseConfig hier_cfg(int ranks) {
  UniverseConfig c;
  c.world_size = ranks;
  c.suite = CollectiveSuite::kHier;
  c.obs = obs::ObsConfig{};  // hermetic: ignore JHPC_PVARS/JHPC_TRACE
  return c;
}

/// A seeded random rank->node map over `nodes` nodes, every node
/// non-empty (the fabric requires contiguous node ids with at least one
/// resident each).
std::vector<int> shuffled_node_map(std::mt19937& rng, int ranks, int nodes) {
  std::vector<int> map(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) map[static_cast<std::size_t>(r)] = r % nodes;
  std::shuffle(map.begin(), map.end(), rng);
  return map;
}

/// Run the four hier-specialised data collectives plus a barrier on one
/// config and return every rank's concatenated outputs.
std::vector<std::vector<std::int32_t>> run_suite_outputs(UniverseConfig c,
                                                         std::uint32_t seed) {
  constexpr std::size_t kCount = 96;
  const auto n = static_cast<std::size_t>(c.world_size);
  std::vector<std::vector<std::int32_t>> out(n);
  Universe::launch(c, [&](Comm& world) {
    const int r = world.rank();
    const int size = world.size();
    std::mt19937 rng(seed + static_cast<std::uint32_t>(r) * 7919u);
    std::vector<std::int32_t> mine(kCount);
    for (auto& v : mine)
      v = static_cast<std::int32_t>(rng() % 2001) - 1000;

    std::vector<std::int32_t> bc(kCount);
    if (r == size - 1) bc = mine;
    world.bcast(bc.data(), kCount * sizeof(std::int32_t), size - 1);

    std::vector<std::int32_t> red(kCount, -1);
    world.reduce(mine.data(), red.data(), kCount, BasicKind::kInt,
                 ReduceOp::kSum, 0);
    if (r != 0) red.assign(kCount, -1);

    std::vector<std::int32_t> all(kCount, -1);
    world.allreduce(mine.data(), all.data(), kCount, BasicKind::kInt,
                    ReduceOp::kMax);

    world.barrier();

    std::vector<std::int32_t> gat(
        r == 1 % size ? kCount * static_cast<std::size_t>(size) : 0, -1);
    world.gather(mine.data(), kCount * sizeof(std::int32_t), gat.data(),
                 1 % size);

    auto& slot = out[static_cast<std::size_t>(r)];
    slot.insert(slot.end(), bc.begin(), bc.end());
    slot.insert(slot.end(), red.begin(), red.end());
    slot.insert(slot.end(), all.begin(), all.end());
    slot.insert(slot.end(), gat.begin(), gat.end());
  });
  return out;
}

// --- 1. Randomized-topology property test ----------------------------------

TEST(CollHierTopologyTest, RandomNodeMapShufflesMatchMv2BitForBit) {
  std::mt19937 rng(20260809u);
  for (int trial = 0; trial < 12; ++trial) {
    const int ranks = 2 + static_cast<int>(rng() % 7u);  // 2..8
    const int nodes =
        1 + static_cast<int>(rng() % static_cast<unsigned>(
                                 std::min(ranks, 4)));  // 1..min(ranks,4)
    const std::vector<int> map = shuffled_node_map(rng, ranks, nodes);
    const auto seed = static_cast<std::uint32_t>(rng());

    UniverseConfig hier = hier_cfg(ranks);
    hier.fabric.node_map = map;
    UniverseConfig mv2 = hier;
    mv2.suite = CollectiveSuite::kMv2;

    const auto got = run_suite_outputs(hier, seed);
    const auto want = run_suite_outputs(mv2, seed);
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                want[static_cast<std::size_t>(r)])
          << "trial=" << trial << " ranks=" << ranks << " nodes=" << nodes
          << " rank=" << r;
    }
  }
}

TEST(CollHierTopologyTest, SubCommunicatorsSpanningNodes) {
  // split() halves of a 2x4 block topology: each half holds two ranks per
  // node with non-identity world mapping, and each communicator gets its
  // own shared segments (keyed by context id). dup() exercises segment
  // reuse under a fresh context on the same membership.
  UniverseConfig c = hier_cfg(8);
  c.fabric.ranks_per_node = 4;
  Universe::launch(c, [](Comm& world) {
    Comm half = world.split(world.rank() % 2, world.rank());
    ASSERT_TRUE(half.valid());
    std::int32_t in = world.rank() + 1, sum = 0;
    half.allreduce(&in, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
    // Evens 1+3+5+7, odds 2+4+6+8.
    EXPECT_EQ(sum, world.rank() % 2 == 0 ? 16 : 20);

    Comm dup = half.dup();
    std::int32_t bc = dup.rank() == 0 ? 4242 : 0;
    dup.bcast(&bc, sizeof(bc), 0);
    EXPECT_EQ(bc, 4242);

    std::vector<std::int32_t> gat(dup.rank() == 0 ? 4u : 0u, -1);
    dup.gather(&in, sizeof(in), gat.data(), 0);
    if (dup.rank() == 0) {
      const std::vector<std::int32_t> want =
          world.rank() % 2 == 0 ? std::vector<std::int32_t>{1, 3, 5, 7}
                                : std::vector<std::int32_t>{2, 4, 6, 8};
      EXPECT_EQ(gat, want);
    }
    world.barrier();
  });
}

TEST(CollHierTopologyTest, RepeatedOpsReuseSegmentsAcrossJobs) {
  // Back-to-back collectives stress the per-op sequence numbers; a
  // second job on the same Universe must restart cleanly (hier_reset).
  UniverseConfig c = hier_cfg(6);
  c.fabric.ranks_per_node = 3;
  Universe u(c);
  for (int job = 0; job < 2; ++job) {
    u.run([&](Comm& world) {
      for (int i = 0; i < 25; ++i) {
        std::int32_t in = world.rank() + i, sum = -1;
        world.allreduce(&in, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
        EXPECT_EQ(sum, 15 + 6 * i);
        world.barrier();
      }
    });
  }
}

// --- 2. Chaos: drops and jitter on the inter-node legs ----------------------

TEST(CollHierChaosTest, SurvivesSeededDropsAndJitter) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    UniverseConfig c = hier_cfg(6);
    c.fabric.ranks_per_node = 2;
    c.fabric.faults.seed = seed;
    c.fabric.faults.link_defaults.drop_prob = 0.05;
    c.fabric.faults.link_defaults.jitter_ns = 400;
    Universe::launch(c, [](Comm& world) {
      for (int i = 0; i < 10; ++i) {
        std::vector<std::int32_t> v(129, world.rank() == 2 ? 7 + i : -1);
        world.bcast(v.data(), v.size() * sizeof(std::int32_t), 2);
        for (const std::int32_t x : v) ASSERT_EQ(x, 7 + i);
        std::int64_t in = world.rank(), sum = -1;
        world.allreduce(&in, &sum, 1, BasicKind::kLong, ReduceOp::kSum);
        ASSERT_EQ(sum, 0 + 1 + 2 + 3 + 4 + 5);
        world.barrier();
      }
    });
  }
}

// --- 3. Rank failure: typed errors, never hangs -----------------------------

void expect_kill_surfaces_typed_error(int victim) {
  UniverseConfig c = hier_cfg(6);
  c.fabric.ranks_per_node = 3;  // leaders: ranks 0 and 3
  c.fabric.faults.kills = {{victim, 0}};
  std::atomic<int> typed{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == victim) {
      // Dies at its first collective entry; the internal kill exception
      // unwinds past this frame and run() swallows it as planned.
      std::int32_t in = 0, sum = 0;
      world.allreduce(&in, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
      ADD_FAILURE() << "victim outlived its scheduled death";
      return;
    }
    try {
      for (int i = 0; i < 100; ++i) {
        std::int32_t in = world.rank(), sum = -1;
        world.allreduce(&in, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
        world.barrier();
      }
      ADD_FAILURE() << "rank " << world.rank()
                    << " completed despite the kill of rank " << victim;
    } catch (const RankFailedError& e) {
      EXPECT_TRUE(std::find(e.failed_ranks().begin(), e.failed_ranks().end(),
                            victim) != e.failed_ranks().end());
      typed.fetch_add(1);
    } catch (const CommRevokedError&) {
      // A sibling detected the death first and auto-revoked the comm.
      typed.fetch_add(1);
    }
  });
  // Every survivor got a typed error (the victim unwinds internally).
  EXPECT_EQ(typed.load(), 5) << "victim=" << victim;
}

TEST(CollHierFailureTest, MemberDeathRaisesTypedErrorOnSurvivors) {
  expect_kill_surfaces_typed_error(4);  // non-leader member of node 1
}

TEST(CollHierFailureTest, LeaderDeathRaisesTypedErrorOnSurvivors) {
  expect_kill_surfaces_typed_error(3);  // leader of node 1
}

TEST(CollHierFailureTest, SurvivorsShrinkAndContinueOnHier) {
  // Full ULFM recovery loop on the hier suite: kill, typed error,
  // shrink, and the survivor communicator's hier collectives still work
  // (fresh context id -> fresh shared segments).
  UniverseConfig c = hier_cfg(6);
  c.fabric.ranks_per_node = 3;
  c.fabric.faults.kills = {{1, 0}};
  std::atomic<int> recovered{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 1) {
      world.barrier();  // dies here (first collective entry, kill at t=0)
      return;
    }
    try {
      for (int i = 0; i < 100; ++i) world.barrier();
      ADD_FAILURE() << "barrier loop outlived the kill";
    } catch (const jhpc::Error& e) {
      ASSERT_TRUE(e.code() == ErrorCode::kRankFailed ||
                  e.code() == ErrorCode::kCommRevoked);
      Comm next = world.shrink();
      EXPECT_EQ(next.size(), 5);
      std::int32_t in = 1, sum = 0;
      next.allreduce(&in, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
      EXPECT_EQ(sum, 5);
      recovered.fetch_add(1);
    }
  });
  EXPECT_EQ(recovered.load(), 5);
}

// --- 4. Single-copy pvar accounting -----------------------------------------

UniverseConfig traced_hier_cfg(int ranks, const std::string& tag) {
  UniverseConfig c = hier_cfg(ranks);
  c.obs.trace_path = testing::TempDir() + "hier_" + tag + ".json";
  return c;
}

TEST(CollHierPvarsTest, IntraNodeBcastCountsSingleCopies) {
  // 4 ranks on one node, root is the leader: the three members each copy
  // the payload once, directly out of the root's buffer. No other copy
  // exists, so the counter is exactly 3 and the bytes exactly 3 * N.
  constexpr std::size_t kBytes = 1024;
  UniverseConfig c = traced_hier_cfg(4, "bcast");
  std::int64_t copies = -1, bytes = -1, flag_waits = -1;
  Universe::launch(c, [&](Comm& world) {
    std::vector<std::uint8_t> v(kBytes,
                                world.rank() == 0 ? std::uint8_t{0x5a}
                                                  : std::uint8_t{0});
    world.bcast(v.data(), v.size(), 0);
    EXPECT_EQ(v, std::vector<std::uint8_t>(kBytes, 0x5a));
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      copies = reg.total(reg.find("coll.hier.single_copy"));
      bytes = reg.total(reg.find("coll.hier.single_copy_bytes"));
      flag_waits = reg.total(reg.find("coll.hier.flag_wait_ns"));
    }
  });
  EXPECT_EQ(copies, 3);
  EXPECT_EQ(bytes, 3 * static_cast<std::int64_t>(kBytes));
  EXPECT_GE(flag_waits, 0);
}

TEST(CollHierPvarsTest, AllreduceCountsFoldAndFanoutCopies) {
  // 4 ranks, one node: the leader folds 3 member inputs straight out of
  // their buffers (3), then the members copy the published result (3).
  constexpr std::size_t kCount = 256;
  constexpr std::size_t kBytes = kCount * sizeof(std::int32_t);
  UniverseConfig c = traced_hier_cfg(4, "allreduce");
  std::int64_t copies = -1, bytes = -1;
  Universe::launch(c, [&](Comm& world) {
    std::vector<std::int32_t> in(kCount, world.rank() + 1), out(kCount, -1);
    world.allreduce(in.data(), out.data(), kCount, BasicKind::kInt,
                    ReduceOp::kSum);
    EXPECT_EQ(out, std::vector<std::int32_t>(kCount, 10));
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      copies = reg.total(reg.find("coll.hier.single_copy"));
      bytes = reg.total(reg.find("coll.hier.single_copy_bytes"));
    }
  });
  EXPECT_EQ(copies, 6);
  EXPECT_EQ(bytes, 6 * static_cast<std::int64_t>(kBytes));
}

TEST(CollHierPvarsTest, CountersStayZeroWhenSuiteIsOff) {
  // Same workload on the mv2 suite: the coll.hier.* pvars are registered
  // (stable tooling surface) but must never tick.
  UniverseConfig c = traced_hier_cfg(4, "off");
  c.suite = CollectiveSuite::kMv2;
  std::int64_t copies = -1, bytes = -1, waits = -1;
  Universe::launch(c, [&](Comm& world) {
    std::vector<std::uint8_t> v(512, world.rank() == 0 ? 0x7e : 0);
    world.bcast(v.data(), v.size(), 0);
    std::int32_t in = 1, out = 0;
    world.allreduce(&in, &out, 1, BasicKind::kInt, ReduceOp::kSum);
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      copies = reg.total(reg.find("coll.hier.single_copy"));
      bytes = reg.total(reg.find("coll.hier.single_copy_bytes"));
      waits = reg.total(reg.find("coll.hier.flag_wait_ns"));
    }
  });
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(bytes, 0);
  EXPECT_EQ(waits, 0);
}

TEST(CollHierPvarsTest, CollAlgInvocationPvarsTick) {
  UniverseConfig c = traced_hier_cfg(3, "alg");
  std::int64_t bcasts = -1, barriers = -1;
  Universe::launch(c, [&](Comm& world) {
    std::uint8_t b = world.rank() == 0 ? 9 : 0;
    world.bcast(&b, 1, 0);
    world.barrier();
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      bcasts = reg.total(reg.find("coll.hier.bcast"));
      barriers = reg.total(reg.find("coll.hier.barrier"));
    }
  });
  EXPECT_EQ(bcasts, 3);        // one invocation per rank
  EXPECT_EQ(barriers, 2 * 3);  // two barriers, entered by all three ranks
}

// --- Config plumbing ---------------------------------------------------------

TEST(CollHierConfigTest, EnvSelectsSuiteAndValidatesFlagCost) {
  ::setenv("JHPC_COLL", "hier", 1);
  ::setenv("JHPC_HIER_FLAG_NS", "55", 1);
  const UniverseConfig c;
  EXPECT_EQ(c.suite, CollectiveSuite::kHier);
  EXPECT_EQ(c.hier_flag_ns, 55);

  ::setenv("JHPC_HIER_FLAG_NS", "-2", 1);
  EXPECT_THROW(UniverseConfig{}, jhpc::Error);
  ::unsetenv("JHPC_HIER_FLAG_NS");

  ::setenv("JHPC_COLL", "sideways", 1);
  EXPECT_THROW(UniverseConfig{}, jhpc::Error);
  ::unsetenv("JHPC_COLL");
}

}  // namespace
}  // namespace jhpc::minimpi
