// The eager-path slab recycler, through the public transport API only:
// steady-state zero-allocation behaviour, payload integrity across slab
// reuse, agreement between the transport.slab.* pvars and the internal
// counters, retention-cap overflow, and the zero-cost-off contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/obs/pvar.hpp"

namespace jhpc::minimpi {
namespace {

constexpr int kTag = 7;
constexpr int kAckTag = 8;
constexpr int kGoTag = 9;

UniverseConfig quiet_config(bool pvars) {
  UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.deterministic_clock = true;
  cfg.obs = obs::ObsConfig{};  // hermetic: JHPC_FLIGHT_RECORDER_DUMP arms obs
  cfg.obs.pvars = pvars;
  return cfg;
}

/// One gated burst per round: rank 0 parks `msgs` eager messages in
/// rank 1's unexpected queue (the receiver is held on the go tag, and
/// eager sends enqueue synchronously, so every payload goes through the
/// slab — no scheduling luck involved), then rank 1 drains and acks.
void gated_rounds(Comm& world, std::size_t size, int rounds, int msgs) {
  std::vector<std::byte> buf(size);
  std::byte token{};
  if (world.rank() == 0) {
    for (int r = 0; r < rounds; ++r) {
      for (int m = 0; m < msgs; ++m) world.send(buf.data(), size, 1, kTag);
      world.send(&token, 1, 1, kGoTag);
      world.recv(&token, 1, 1, kAckTag);
    }
  } else {
    for (int r = 0; r < rounds; ++r) {
      world.recv(&token, 1, 0, kGoTag);
      for (int m = 0; m < msgs; ++m)
        world.recv(buf.data(), size, 0, kTag);
      world.send(&token, 1, 0, kAckTag);
    }
  }
}

/// Warm the rank1 -> rank0 direction of the smallest size class: window
/// acks usually match an already-posted receive (no slab involved), but a
/// preemption can park one unexpected, and its slab must then come from a
/// warm list too. 80 gated one-byte messages leave rank 0 holding a full
/// local list plus a depot surplus the reverse direction can draw on.
void warm_reverse_small_class(Comm& world) {
  std::byte t{};
  if (world.rank() == 1) {
    for (int m = 0; m < 80; ++m) world.send(&t, 1, 0, kTag);
    world.send(&t, 1, 0, kGoTag);
    world.recv(&t, 1, 0, kAckTag);
  } else {
    world.recv(&t, 1, 1, kGoTag);
    for (int m = 0; m < 80; ++m) world.recv(&t, 1, 1, kTag);
    world.send(&t, 1, 1, kAckTag);
  }
}

TEST(SlabTest, SteadyStateHasZeroAllocationsPerMessage) {
  // The tentpole claim: once the free lists are warm, an eager message
  // costs no heap allocation. Asserted through the transport.slab.*
  // pvars across a measured phase after a generous warmup.
  UniverseConfig cfg = quiet_config(/*pvars=*/true);
  constexpr int kWarmupRounds = 30;
  constexpr int kMeasuredRounds = 50;
  constexpr int kMsgs = 48;
  std::int64_t misses_before = -1, misses_after = -1, hits_delta = -1;
  Universe u(cfg);
  u.run([&](Comm& world) {
    gated_rounds(world, 128, kWarmupRounds, kMsgs);
    warm_reverse_small_class(world);
    world.barrier();
    obs::PvarRegistry& reg = *world.pvars();
    const obs::PvarId misses = reg.find("transport.slab.misses");
    const obs::PvarId hits = reg.find("transport.slab.hits");
    const std::int64_t m1 = reg.total(misses);
    const std::int64_t h1 = reg.total(hits);
    world.barrier();
    gated_rounds(world, 128, kMeasuredRounds, kMsgs);
    world.barrier();
    if (world.rank() == 0) {
      misses_before = m1;
      misses_after = reg.total(misses);
      hits_delta = reg.total(hits) - h1;
    }
  });
  EXPECT_GT(misses_before, 0) << "cold start must have allocated";
  EXPECT_EQ(misses_after, misses_before)
      << "steady-state eager traffic must not allocate";
  // Every measured payload came off a free list.
  EXPECT_GE(hits_delta, kMeasuredRounds * kMsgs);
}

TEST(SlabTest, RecycledSlabsDeliverCorrectPayloads) {
  // Reuse correctness: park messages with distinct payloads unexpected,
  // drain, and repeat so later rounds run on recycled slabs.
  UniverseConfig cfg = quiet_config(/*pvars=*/false);
  constexpr int kRounds = 10;
  constexpr int kMsgs = 48;
  constexpr std::size_t kBytes = 200;
  Universe u(cfg);
  int bad = 0;
  u.run([&](Comm& world) {
    std::vector<std::byte> buf(kBytes);
    std::byte go{};
    if (world.rank() == 0) {
      for (int r = 0; r < kRounds; ++r) {
        for (int m = 0; m < kMsgs; ++m) {
          buf.assign(kBytes, static_cast<std::byte>(r * kMsgs + m));
          world.send(buf.data(), kBytes, 1, kTag);
        }
        world.send(&go, 1, 1, kGoTag);
        world.recv(&go, 1, 1, kAckTag);
      }
    } else {
      for (int r = 0; r < kRounds; ++r) {
        world.recv(&go, 1, 0, kGoTag);
        for (int m = 0; m < kMsgs; ++m) {
          buf.assign(kBytes, std::byte{0});
          world.recv(buf.data(), kBytes, 0, kTag);
          const auto want = static_cast<std::byte>(r * kMsgs + m);
          for (const std::byte b : buf) {
            if (b != want) ++bad;
          }
        }
        world.send(&go, 1, 0, kAckTag);
      }
    }
  });
  EXPECT_EQ(bad, 0) << "recycled slabs must not corrupt payloads";
  const SlabStats st = u.slab_stats();
  EXPECT_GT(st.hits, 0u) << "later rounds must actually reuse slabs";
  EXPECT_GT(st.recycled, 0u);
}

TEST(SlabTest, PvarsAgreeWithInternalCounters) {
  // The transport.slab.* pvars and Universe::slab_stats() count the same
  // events from different plumbing; a clean (no-truncation) run must
  // leave them identical.
  UniverseConfig cfg = quiet_config(/*pvars=*/true);
  std::int64_t pv_hits = -1, pv_misses = -1, pv_recycled_bytes = -1;
  std::int64_t pv_drops = -1;
  Universe u(cfg);
  u.run([&](Comm& world) {
    gated_rounds(world, 1024, /*rounds=*/20, /*msgs=*/32);
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      pv_hits = reg.total(reg.find("transport.slab.hits"));
      pv_misses = reg.total(reg.find("transport.slab.misses"));
      pv_recycled_bytes =
          reg.total(reg.find("transport.slab.recycled_bytes"));
      pv_drops = reg.total(reg.find("transport.slab.overflow_drops"));
    }
  });
  const SlabStats st = u.slab_stats();
  EXPECT_EQ(static_cast<std::uint64_t>(pv_hits), st.hits);
  EXPECT_EQ(static_cast<std::uint64_t>(pv_misses), st.misses);
  EXPECT_EQ(static_cast<std::uint64_t>(pv_recycled_bytes),
            st.recycled_bytes);
  EXPECT_EQ(static_cast<std::uint64_t>(pv_drops), st.overflow_drops);
  EXPECT_GT(st.hits + st.misses, 0u);
}

TEST(SlabTest, OverflowPastRetentionCapsDropsInsteadOfHoarding) {
  // Drain a very deep unexpected queue in one burst: the receiver's
  // releases overrun its per-rank list and then the shared depot, and the
  // excess must be freed (counted), not retained without bound.
  UniverseConfig cfg = quiet_config(/*pvars=*/true);
  constexpr int kMsgs = 600;  // far past per-rank (32) + depot (256) caps
  constexpr std::size_t kBytes = 1024;
  std::int64_t pv_drops = -1;
  Universe u(cfg);
  u.run([&](Comm& world) {
    std::vector<std::byte> buf(kBytes);
    std::byte go{};
    if (world.rank() == 0) {
      for (int m = 0; m < kMsgs; ++m)
        world.send(buf.data(), kBytes, 1, kTag);
      world.send(&go, 1, 1, kGoTag);
    } else {
      world.recv(&go, 1, 0, kGoTag);
      for (int m = 0; m < kMsgs; ++m)
        world.recv(buf.data(), kBytes, 0, kTag);
    }
    world.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      pv_drops = reg.total(reg.find("transport.slab.overflow_drops"));
    }
  });
  const SlabStats st = u.slab_stats();
  EXPECT_GE(st.overflow_drops, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(pv_drops), st.overflow_drops);
  EXPECT_GT(st.recycled, 0u) << "the caps' worth of slabs is still kept";
}

TEST(SlabTest, ZeroCostOffRunsWithoutPvarsAndResetsPerRun) {
  // Observability off: no registry exists, yet the recycler still works
  // (internal counters tick). A second run() on the same Universe resets
  // the counters but keeps the free lists warm, so it starts with hits.
  UniverseConfig cfg = quiet_config(/*pvars=*/false);
  bool pvars_absent = false;
  Universe u(cfg);
  u.run([&](Comm& world) {
    if (world.rank() == 0) pvars_absent = world.pvars() == nullptr;
    gated_rounds(world, 256, /*rounds=*/8, /*msgs=*/32);
  });
  EXPECT_TRUE(pvars_absent);
  const SlabStats first = u.slab_stats();
  EXPECT_GT(first.misses, 0u) << "first run allocates its slabs";
  EXPECT_GT(first.recycled, 0u);

  u.run([&](Comm& world) { gated_rounds(world, 256, 2, 16); });
  const SlabStats second = u.slab_stats();
  EXPECT_LT(second.hits + second.misses, first.hits + first.misses)
      << "counters must reset per run";
  EXPECT_GT(second.hits, 0u) << "warm free lists carry across runs";
}

TEST(SlabDepotTest, SharedDepotDonatesWarmSlabsAcrossUniverses) {
  // Two tenant Universes on one fleet depot: the first job's spilled
  // slabs are visible (and reusable) through the second's stats view.
  SlabDepotPtr depot = make_slab_depot(64u << 20);
  UniverseConfig cfg = quiet_config(/*pvars=*/false);
  cfg.shared_depot = depot;

  Universe u1(cfg);
  u1.run([](Comm& world) { gated_rounds(world, 4096, /*rounds=*/4, /*msgs=*/48); });
  const SlabStats s1 = u1.slab_stats();
  EXPECT_TRUE(s1.depot_shared);
  const SlabDepotStats after_first = slab_depot_stats(depot);
  EXPECT_GT(after_first.retained_bytes, 0u)
      << "round bursts overflow the per-rank caps into the depot";

  Universe u2(cfg);
  const SlabStats s2 = u2.slab_stats();
  // Same depot tier behind both handles, before u2 ever ran.
  EXPECT_TRUE(s2.depot_shared);
  EXPECT_EQ(s2.depot_retained_bytes, after_first.retained_bytes);
  u2.run([](Comm& world) { gated_rounds(world, 4096, 2, 48); });
  EXPECT_GT(u2.slab_stats().hits, 0u)
      << "the second tenant starts on the first tenant's warm slabs";

  // A private Universe reports an unshared, initially-empty depot.
  Universe priv(quiet_config(false));
  EXPECT_FALSE(priv.slab_stats().depot_shared);
  EXPECT_EQ(priv.slab_stats().depot_retained_bytes, 0u);
}

TEST(SlabDepotTest, ByteCeilingBoundsRetentionAndTrimFrees) {
  SlabDepotPtr depot = make_slab_depot(/*max_bytes=*/32 * 1024);
  UniverseConfig cfg = quiet_config(/*pvars=*/false);
  cfg.shared_depot = depot;
  Universe u(cfg);
  // Far more slab traffic than the ceiling admits.
  u.run([](Comm& world) { gated_rounds(world, 8192, 6, 64); });
  const SlabDepotStats st = slab_depot_stats(depot);
  EXPECT_LE(st.retained_bytes, st.max_bytes);
  EXPECT_LE(st.hwm_bytes, st.max_bytes);
  EXPECT_EQ(st.max_bytes, 32u * 1024u);
  slab_depot_trim(depot);
  EXPECT_EQ(slab_depot_stats(depot).retained_bytes, 0u);
  // The high-water mark survives the trim (it is the bound evidence).
  EXPECT_EQ(slab_depot_stats(depot).hwm_bytes, st.hwm_bytes);
}

TEST(SlabDepotTest, PerJobRetainedGaugeTracksLists) {
  // The per-job view: retained_bytes is a live gauge of this Universe's
  // free lists, not a flow counter — it survives reset across runs and
  // never exceeds what the job actually parked.
  UniverseConfig cfg = quiet_config(/*pvars=*/false);
  Universe u(cfg);
  u.run([](Comm& world) { gated_rounds(world, 1024, 4, 32); });
  const SlabStats first = u.slab_stats();
  EXPECT_GT(first.retained_bytes, 0u);
  u.run([](Comm& world) { gated_rounds(world, 1024, 1, 8); });
  const SlabStats second = u.slab_stats();
  EXPECT_GT(second.retained_bytes, 0u)
      << "warm lists persist across runs even though flow counters reset";
}

}  // namespace
}  // namespace jhpc::minimpi
