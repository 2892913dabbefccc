// Seeded chaos suite for the fault-injection layer and the reliable
// transport (docs/FAULTS.md): under deterministic drop/jitter/link-down
// plans every payload must arrive intact, exactly once and in order, the
// virtual clocks must stay monotone, the fault pvars must satisfy the
// protocol's accounting invariants, timeouts must surface as
// TransportTimeoutError instead of hangs — and all of it bit-identically
// for a fixed JHPC_FAULT_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

UniverseConfig chaos_cfg(int ranks, int ppn, double drop,
                         std::int64_t jitter_ns, std::uint64_t seed,
                         const std::string& tag) {
  UniverseConfig c;
  c.world_size = ranks;
  c.fabric.ranks_per_node = ppn;
  c.fabric.faults.seed = seed;
  c.fabric.faults.link_defaults.drop_prob = drop;
  c.fabric.faults.link_defaults.jitter_ns = jitter_ns;
  c.obs = obs::ObsConfig{};  // discard env so the test is hermetic
  // Enabling the recorder (trace to a scratch file) gives the test the
  // pvar registry without printing the finalize table.
  c.obs.trace_path = testing::TempDir() + "fault_" + tag + ".json";
  return c;
}

std::vector<std::uint8_t> pattern(std::size_t n, unsigned key) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>((i * 31 + key * 17) & 0xff);
  return v;
}

std::int64_t total(obs::PvarRegistry& reg, const char* name) {
  return reg.total(reg.find(name));
}

/// The reliable protocol's books must balance: every lost data packet or
/// lost ack triggers exactly one retransmit, unless the budget ran out
/// (timeout); a duplicate can only exist where an ack was lost.
/// `total(name)` sums pvar `name` over the ranks.
template <typename Total>
void expect_fault_accounting(Total&& total) {
  const std::int64_t data_drops = total("fault.data_drops");
  const std::int64_t ack_drops = total("fault.ack_drops");
  const std::int64_t retransmits = total("fault.retransmits");
  const std::int64_t timeouts = total("fault.timeouts");
  const std::int64_t dups = total("fault.dups");
  EXPECT_EQ(retransmits + timeouts, data_drops + ack_drops);
  EXPECT_LE(dups, ack_drops);
  EXPECT_GE(data_drops, 0);
  EXPECT_GE(ack_drops, 0);
}

void expect_fault_accounting(obs::PvarRegistry& reg) {
  expect_fault_accounting(
      [&reg](const char* name) { return total(reg, name); });
}

/// Every rank but 0 reports in; rank 0 collecting all tokens orders every
/// earlier transport call of the other ranks before its pvar read. Their
/// later calls are not ordered: a peer that goes on to a barrier counts
/// that barrier's drops while rank 0 reads (read after run() instead).
void drain_to_rank0(Comm& world, int tag = kMaxUserTag) {
  char token = 1;
  if (world.rank() == 0) {
    for (int r = 1; r < world.size(); ++r)
      world.recv(&token, sizeof(token), r, tag);
  } else {
    world.send(&token, sizeof(token), 0, tag);
  }
}

// --- Point-to-point under drop/jitter plans --------------------------------

TEST(FaultP2PTest, EagerBlockingStreamSurvivesDrops) {
  UniverseConfig c = chaos_cfg(2, 1, 0.05, 200, 12345, "eager_stream");
  constexpr int kMsgs = 200;
  bool accounting_done = false;
  Universe::launch(c, [&](Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        const auto payload =
            pattern(64 + static_cast<std::size_t>(i) % 512,
                    static_cast<unsigned>(i));
        world.send(payload.data(), payload.size(), 1, i);
      }
    } else {
      std::int64_t last_v = world.vtime_ns();
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::uint8_t> buf(1024);
        Status st;
        // Wildcard tag: per-(src,comm) FIFO must hold even when message i
        // needed more retransmit rounds than message i+1.
        world.recv(buf.data(), buf.size(), 0, kAnyTag, &st);
        EXPECT_EQ(st.tag, i) << "FIFO order broken under faults";
        EXPECT_EQ(st.count_bytes, 64 + static_cast<std::size_t>(i) % 512);
        buf.resize(st.count_bytes);
        EXPECT_EQ(buf, pattern(st.count_bytes, static_cast<unsigned>(i)));
        EXPECT_GE(world.vtime_ns(), last_v) << "virtual clock went backwards";
        last_v = world.vtime_ns();
      }
    }
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
      EXPECT_GT(total(reg, "fault.data_drops") +
                    total(reg, "fault.ack_drops"),
                0)
          << "a 5% plan over 200 messages should have dropped something";
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
      // Delivered exactly once: nothing lost, nothing double-counted.
      EXPECT_EQ(total(reg, "mpi.msgs_recvd"), total(reg, "mpi.msgs_sent"));
      accounting_done = true;
    }
  });
  EXPECT_TRUE(accounting_done);
}

TEST(FaultP2PTest, RendezvousSurvivesDropsBothDirections) {
  UniverseConfig c = chaos_cfg(2, 1, 0.08, 500, 777, "rndv");
  c.eager_limit = 256;  // 4 KB payloads go rendezvous
  Universe::launch(c, [&](Comm& world) {
    const int peer = 1 - world.rank();
    for (int i = 0; i < 30; ++i) {
      const auto mine =
          pattern(4096, static_cast<unsigned>(world.rank() * 100 + i));
      std::vector<std::uint8_t> theirs(4096);
      // Both directions at once: RTS, CTS and payload all cross faulty
      // links concurrently.
      world.sendrecv(mine.data(), mine.size(), peer, i, theirs.data(),
                     theirs.size(), peer, i);
      EXPECT_EQ(theirs, pattern(4096, static_cast<unsigned>(peer * 100 + i)));
    }
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
      EXPECT_EQ(total(reg, "mpi.rndv_sent"), 2 * 30);
    }
  });
}

TEST(FaultP2PTest, NonBlockingBatchCompletesAndStaysOrdered) {
  UniverseConfig c = chaos_cfg(2, 1, 0.05, 0, 4242, "nonblocking");
  c.eager_limit = 512;  // mix: 128-byte eager, 2-KB rendezvous
  constexpr int kMsgs = 60;
  Universe::launch(c, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::vector<std::uint8_t>> payloads;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t n = i % 2 == 0 ? 128 : 2048;
        payloads.push_back(pattern(n, static_cast<unsigned>(i)));
        reqs.push_back(
            world.isend(payloads.back().data(), n, 1, /*tag=*/i % 4));
      }
      for (auto& r : reqs) r.wait();
    } else {
      std::map<int, int> seen_by_tag;  // tag -> messages received so far
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::uint8_t> buf(2048);
        Status st;
        Request r = world.irecv(buf.data(), buf.size(), 0, i % 4);
        r.wait(&st);
        // Within one tag, messages must arrive in the order sent: the
        // k-th tag-t message carries key k*4 + t.
        const int key = seen_by_tag[st.tag] * 4 + st.tag;
        ++seen_by_tag[st.tag];
        buf.resize(st.count_bytes);
        EXPECT_EQ(buf, pattern(st.count_bytes, static_cast<unsigned>(key)));
      }
    }
    drain_to_rank0(world);
    if (world.rank() == 0) expect_fault_accounting(*world.pvars());
  });
}

// --- Collectives under faults, both algorithm suites ------------------------

/// One pass over every collective, sized to exercise both the small- and
/// large-message algorithm of each threshold pair, with full result
/// verification.
void run_all_collectives(Comm& world) {
  const int n = world.size();
  const int me = world.rank();

  world.barrier();

  for (const std::size_t sz : {64u, 96u * 1024u}) {  // binomial + scatter_ring
    auto buf = me == 0 ? pattern(sz, 9) : std::vector<std::uint8_t>(sz);
    world.bcast(buf.data(), buf.size(), 0);
    EXPECT_EQ(buf, pattern(sz, 9));
  }

  {
    std::vector<int> mine(16), out(16);
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = me + static_cast<int>(i);
    world.reduce(mine.data(), out.data(), mine.size(), BasicKind::kInt,
                 ReduceOp::kSum, 0);
    if (me == 0) {
      for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], n * (n - 1) / 2 + n * static_cast<int>(i));
    }
  }

  for (const std::size_t count : {8u, 8u * 1024u}) {  // rec-dbl + ring
    std::vector<int> mine(count, me + 1), out(count);
    world.allreduce(mine.data(), out.data(), count, BasicKind::kInt,
                    ReduceOp::kSum);
    for (const int v : out) EXPECT_EQ(v, n * (n + 1) / 2);
  }

  {
    std::vector<int> mine(static_cast<std::size_t>(n) * 4, me), out(4);
    world.reduce_scatter_block(mine.data(), out.data(), 4, BasicKind::kInt,
                               ReduceOp::kSum);
    for (const int v : out) EXPECT_EQ(v, n * (n - 1) / 2);
  }

  {
    int v = me + 1, out = 0;
    world.scan(&v, &out, 1, BasicKind::kInt, ReduceOp::kSum);
    EXPECT_EQ(out, (me + 1) * (me + 2) / 2);
  }

  {
    const auto mine = pattern(32, static_cast<unsigned>(me));
    std::vector<std::uint8_t> all(static_cast<std::size_t>(n) * 32);
    world.gather(mine.data(), 32, all.data(), 0);
    if (me == 0) {
      for (int r = 0; r < n; ++r) {
        const std::vector<std::uint8_t> got(
            all.begin() + r * 32, all.begin() + (r + 1) * 32);
        EXPECT_EQ(got, pattern(32, static_cast<unsigned>(r)));
      }
    }
    std::vector<std::uint8_t> back(32);
    world.scatter(all.data(), 32, back.data(), 0);
    // Round trip: every rank gets back exactly what it contributed.
    EXPECT_EQ(back, mine);
  }

  for (const std::size_t per : {16u, 12u * 1024u}) {  // rec-dbl + ring
    const auto mine = pattern(per, static_cast<unsigned>(me + 50));
    std::vector<std::uint8_t> all(static_cast<std::size_t>(n) * per);
    world.allgather(mine.data(), per, all.data());
    for (int r = 0; r < n; ++r) {
      const std::vector<std::uint8_t> got(
          all.begin() + static_cast<std::ptrdiff_t>(r * per),
          all.begin() + static_cast<std::ptrdiff_t>((r + 1) * per));
      EXPECT_EQ(got, pattern(per, static_cast<unsigned>(r + 50)));
    }
  }

  {
    std::vector<std::uint8_t> send(static_cast<std::size_t>(n) * 24),
        recv(static_cast<std::size_t>(n) * 24);
    for (int r = 0; r < n; ++r) {
      const auto block = pattern(24, static_cast<unsigned>(me * n + r));
      std::memcpy(send.data() + r * 24, block.data(), 24);
    }
    world.alltoall(send.data(), 24, recv.data());
    for (int r = 0; r < n; ++r) {
      const std::vector<std::uint8_t> got(
          recv.begin() + r * 24, recv.begin() + (r + 1) * 24);
      EXPECT_EQ(got, pattern(24, static_cast<unsigned>(r * n + me)));
    }
  }

  {
    // Vectored collectives: rank r contributes r+1 bytes.
    std::vector<std::size_t> counts(static_cast<std::size_t>(n)),
        displs(static_cast<std::size_t>(n));
    std::size_t total_bytes = 0;
    for (int r = 0; r < n; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(r) + 1;
      displs[static_cast<std::size_t>(r)] = total_bytes;
      total_bytes += static_cast<std::size_t>(r) + 1;
    }
    const auto mine =
        pattern(static_cast<std::size_t>(me) + 1, static_cast<unsigned>(me));
    std::vector<std::uint8_t> all(total_bytes);
    world.gatherv(mine.data(), mine.size(), all.data(), counts, displs, 0);
    if (me == 0) {
      for (int r = 0; r < n; ++r) {
        const std::vector<std::uint8_t> got(
            all.begin() +
                static_cast<std::ptrdiff_t>(
                    displs[static_cast<std::size_t>(r)]),
            all.begin() +
                static_cast<std::ptrdiff_t>(
                    displs[static_cast<std::size_t>(r)] +
                    counts[static_cast<std::size_t>(r)]));
        EXPECT_EQ(got, pattern(static_cast<std::size_t>(r) + 1,
                               static_cast<unsigned>(r)));
      }
    }
    std::vector<std::uint8_t> back(static_cast<std::size_t>(me) + 1);
    world.scatterv(all.data(), counts, displs, back.data(), back.size(), 0);
    EXPECT_EQ(back, mine);

    std::vector<std::uint8_t> all2(total_bytes);
    world.allgatherv(mine.data(), mine.size(), all2.data(), counts, displs);
    for (int r = 0; r < n; ++r) {
      const std::vector<std::uint8_t> got(
          all2.begin() + static_cast<std::ptrdiff_t>(
                             displs[static_cast<std::size_t>(r)]),
          all2.begin() + static_cast<std::ptrdiff_t>(
                             displs[static_cast<std::size_t>(r)] +
                             counts[static_cast<std::size_t>(r)]));
      EXPECT_EQ(got, pattern(static_cast<std::size_t>(r) + 1,
                             static_cast<unsigned>(r)));
    }
  }

  {
    // alltoallv: rank s sends s+d+1 bytes to rank d.
    std::vector<std::size_t> scounts(static_cast<std::size_t>(n)),
        sdispls(static_cast<std::size_t>(n)),
        rcounts(static_cast<std::size_t>(n)),
        rdispls(static_cast<std::size_t>(n));
    std::size_t stotal = 0, rtotal = 0;
    for (int d = 0; d < n; ++d) {
      scounts[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(me + d) + 1;
      sdispls[static_cast<std::size_t>(d)] = stotal;
      stotal += scounts[static_cast<std::size_t>(d)];
      rcounts[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(d + me) + 1;
      rdispls[static_cast<std::size_t>(d)] = rtotal;
      rtotal += rcounts[static_cast<std::size_t>(d)];
    }
    std::vector<std::uint8_t> send(stotal), recv(rtotal);
    for (int d = 0; d < n; ++d) {
      const auto block =
          pattern(scounts[static_cast<std::size_t>(d)],
                  static_cast<unsigned>(me * n + d));
      std::memcpy(send.data() + sdispls[static_cast<std::size_t>(d)],
                  block.data(), block.size());
    }
    world.alltoallv(send.data(), scounts, sdispls, recv.data(), rcounts,
                    rdispls);
    for (int s = 0; s < n; ++s) {
      const std::vector<std::uint8_t> got(
          recv.begin() + static_cast<std::ptrdiff_t>(
                             rdispls[static_cast<std::size_t>(s)]),
          recv.begin() + static_cast<std::ptrdiff_t>(
                             rdispls[static_cast<std::size_t>(s)] +
                             rcounts[static_cast<std::size_t>(s)]));
      EXPECT_EQ(got, pattern(rcounts[static_cast<std::size_t>(s)],
                             static_cast<unsigned>(s * n + me)));
    }
  }

  world.barrier();
}

TEST(FaultCollectivesTest, Mv2SuiteCorrectUnderDrops) {
  UniverseConfig c = chaos_cfg(4, 2, 0.05, 300, 31337, "coll_mv2");
  c.suite = CollectiveSuite::kMv2;
  Universe::launch(c, [&](Comm& world) {
    std::int64_t last_v = world.vtime_ns();
    run_all_collectives(world);
    EXPECT_GE(world.vtime_ns(), last_v);
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
      // The sized passes above must have hit both algorithm choices of
      // every threshold pair — under faults, not around them.
      EXPECT_GT(total(reg, "coll.bcast.binomial"), 0);
      EXPECT_GT(total(reg, "coll.bcast.scatter_ring"), 0);
      EXPECT_GT(total(reg, "coll.allreduce.recursive_doubling"), 0);
      EXPECT_GT(total(reg, "coll.allreduce.ring"), 0);
      EXPECT_GT(total(reg, "coll.allgather.recursive_doubling"), 0);
      EXPECT_GT(total(reg, "coll.allgather.ring"), 0);
    }
  });
}

TEST(FaultCollectivesTest, BasicSuiteCorrectUnderDrops) {
  UniverseConfig c = chaos_cfg(4, 2, 0.05, 300, 31337, "coll_basic");
  c.suite = CollectiveSuite::kOmpiBasic;
  Universe::launch(c, [&](Comm& world) {
    run_all_collectives(world);
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
      EXPECT_GT(total(reg, "coll.bcast.linear"), 0);
      EXPECT_GT(total(reg, "coll.allreduce.linear"), 0);
      EXPECT_EQ(total(reg, "coll.bcast.binomial"), 0);
    }
  });
}

TEST(FaultCollectivesTest, NbcScheduleEngineCorrectUnderDrops) {
  // The nonblocking schedule engine rides the same reliable transport as
  // the blocking suites: a seeded drop+jitter plan must cost retransmits,
  // never correctness — and never a hang (the ctest TIMEOUT is part of
  // this contract).
  UniverseConfig c = chaos_cfg(4, 2, 0.05, 300, 424243, "coll_nbc");
  c.suite = CollectiveSuite::kMv2;
  Universe::launch(c, [&](Comm& world) {
    const int r = world.rank();
    const int n = world.size();
    const auto nn = static_cast<std::size_t>(n);

    for (int iter = 0; iter < 3; ++iter) {
      world.ibarrier().wait();

      std::vector<std::uint8_t> bc =
          r == 1 ? pattern(3000, 7u + static_cast<unsigned>(iter))
                 : std::vector<std::uint8_t>(3000, 0);
      world.ibcast(bc.data(), bc.size(), 1).wait();
      ASSERT_EQ(bc, pattern(3000, 7u + static_cast<unsigned>(iter)));

      std::vector<std::int32_t> in(64, r + 1);
      std::vector<std::int32_t> out(64, 0);
      world
          .iallreduce(in.data(), out.data(), in.size(), BasicKind::kInt,
                      ReduceOp::kSum)
          .wait();
      for (const std::int32_t v : out) ASSERT_EQ(v, n * (n + 1) / 2);

      std::vector<std::int32_t> red(64, 0);
      world
          .ireduce(in.data(), red.data(), in.size(), BasicKind::kInt,
                   ReduceOp::kMax, 2)
          .wait();
      if (r == 2) {
        for (const std::int32_t v : red) ASSERT_EQ(v, n);
      }

      const auto mine = pattern(257, static_cast<unsigned>(r));
      std::vector<std::uint8_t> all(257 * nn, 0);
      world.iallgather(mine.data(), mine.size(), all.data()).wait();
      for (int s = 0; s < n; ++s) {
        const auto want = pattern(257, static_cast<unsigned>(s));
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               all.begin() + static_cast<std::ptrdiff_t>(
                                                 s * 257)));
      }

      // Two schedules in flight at once, completed in opposite orders on
      // odd/even ranks: the timed-park progress loop must drive both.
      std::int64_t a_in = r, a_out = -1;
      std::vector<std::uint8_t> b2 =
          r == 0 ? pattern(513, 99u) : std::vector<std::uint8_t>(513, 0);
      Request ra = world.iallreduce(&a_in, &a_out, 1, BasicKind::kLong,
                                    ReduceOp::kSum);
      Request rb = world.ibcast(b2.data(), b2.size(), 0);
      if (r % 2 == 0) {
        ra.wait();
        rb.wait();
      } else {
        rb.wait();
        ra.wait();
      }
      ASSERT_EQ(a_out, n * (n - 1) / 2);
      ASSERT_EQ(b2, pattern(513, 99u));
    }

    drain_to_rank0(world);
    if (r == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
      EXPECT_EQ(total(reg, "coll.nbc.barrier"), 3 * n);
      EXPECT_EQ(total(reg, "coll.nbc.bcast"), 2 * 3 * n);
      EXPECT_EQ(total(reg, "coll.nbc.allreduce"), 2 * 3 * n);
      EXPECT_EQ(total(reg, "coll.nbc.reduce"), 3 * n);
      EXPECT_EQ(total(reg, "coll.nbc.allgather"), 3 * n);
    }
  });
}

// --- Determinism regression --------------------------------------------------

struct ChaosFingerprint {
  std::vector<std::int64_t> final_vtimes;
  std::map<std::string, std::vector<std::int64_t>> fault_pvars;

  bool operator==(const ChaosFingerprint& o) const {
    return final_vtimes == o.final_vtimes && fault_pvars == o.fault_pvars;
  }
};

/// A fixed ping-pong workload under a drop+jitter plan, with the CPU
/// passthrough disabled (deterministic clock) and one rank per node so
/// every directed link has a single writer: the run's observable outcome
/// must be a pure function of the seed.
ChaosFingerprint run_seeded_chaos(std::uint64_t seed, const std::string& tag) {
  UniverseConfig c = chaos_cfg(2, 1, 0.1, 500, seed, tag);
  c.deterministic_clock = true;
  ChaosFingerprint fp;
  fp.final_vtimes.resize(2);
  Universe::launch(c, [&](Comm& world) {
    std::vector<std::uint8_t> buf(512);
    const auto mine = pattern(512, static_cast<unsigned>(world.rank()));
    for (int i = 0; i < 100; ++i) {
      if (world.rank() == 0) {
        world.send(mine.data(), mine.size(), 1, i);
        world.recv(buf.data(), buf.size(), 1, i);
      } else {
        world.recv(buf.data(), buf.size(), 0, i);
        world.send(mine.data(), mine.size(), 0, i);
      }
    }
    fp.final_vtimes[static_cast<std::size_t>(world.rank())] =
        world.vtime_ns();
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      for (const char* name :
           {"fault.data_drops", "fault.ack_drops", "fault.retransmits",
            "fault.dups", "fault.timeouts"}) {
        const obs::PvarId id = reg.find(name);
        fp.fault_pvars[name] = {reg.read(id, 0), reg.read(id, 1)};
      }
    }
  });
  return fp;
}

TEST(FaultDeterminismTest, SameSeedSameCountersAndClocks) {
  const ChaosFingerprint a = run_seeded_chaos(20260807, "det_a");
  const ChaosFingerprint b = run_seeded_chaos(20260807, "det_b");
  EXPECT_GT(a.fault_pvars.at("fault.retransmits")[0] +
                a.fault_pvars.at("fault.retransmits")[1],
            0)
      << "the plan must actually inject faults for this test to mean much";
  EXPECT_EQ(a.final_vtimes, b.final_vtimes);
  EXPECT_EQ(a.fault_pvars, b.fault_pvars);
}

TEST(FaultDeterminismTest, DifferentSeedsDiverge) {
  const ChaosFingerprint a = run_seeded_chaos(1, "seed1");
  const ChaosFingerprint b = run_seeded_chaos(2, "seed2");
  // 100 round trips x several attempts x a 500 ns jitter draw each: two
  // seeds agreeing on every draw is astronomically unlikely.
  EXPECT_FALSE(a == b) << "different seeds produced identical runs";
}

/// Nonblocking collectives under the same regime: one schedule
/// outstanding at a time (overlapped with local compute), so every post
/// and wait happens at a fixed program point in a fixed order and the
/// whole run — final clocks included — is a pure function of the seed.
ChaosFingerprint run_seeded_nbc_chaos(std::uint64_t seed,
                                      const std::string& tag) {
  UniverseConfig c = chaos_cfg(3, 1, 0.08, 400, seed, tag);
  c.deterministic_clock = true;
  c.suite = CollectiveSuite::kMv2;
  ChaosFingerprint fp;
  fp.final_vtimes.resize(3);
  Universe::launch(c, [&](Comm& world) {
    const int r = world.rank();
    const int n = world.size();
    for (int i = 0; i < 25; ++i) {
      std::vector<std::int64_t> in(32, r + i);
      std::vector<std::int64_t> out(32, 0);
      Request req = world.iallreduce(in.data(), out.data(), in.size(),
                                     BasicKind::kLong, ReduceOp::kSum);
      // Overlapped compute; under the deterministic clock it costs zero
      // virtual time, so it cannot perturb the fingerprint.
      volatile std::int64_t sink = 0;
      for (int k = 0; k < 1000; ++k) sink = sink + k;
      req.wait();
      for (const std::int64_t v : out) {
        ASSERT_EQ(v, static_cast<std::int64_t>(n) * i + n * (n - 1) / 2);
      }

      std::vector<std::uint8_t> bc =
          r == i % n ? pattern(777, static_cast<unsigned>(i))
                     : std::vector<std::uint8_t>(777, 0);
      world.ibcast(bc.data(), bc.size(), i % n).wait();
      ASSERT_EQ(bc, pattern(777, static_cast<unsigned>(i)));
    }
    fp.final_vtimes[static_cast<std::size_t>(r)] = world.vtime_ns();
    drain_to_rank0(world);
    if (r == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      for (const char* name :
           {"fault.data_drops", "fault.ack_drops", "fault.retransmits",
            "fault.dups", "fault.timeouts"}) {
        const obs::PvarId id = reg.find(name);
        fp.fault_pvars[name] = {reg.read(id, 0), reg.read(id, 1),
                                reg.read(id, 2)};
      }
    }
  });
  return fp;
}

TEST(FaultDeterminismTest, NbcSameSeedBitReproducible) {
  const ChaosFingerprint a = run_seeded_nbc_chaos(20260807, "nbc_det_a");
  const ChaosFingerprint b = run_seeded_nbc_chaos(20260807, "nbc_det_b");
  EXPECT_GT(a.fault_pvars.at("fault.retransmits")[0] +
                a.fault_pvars.at("fault.retransmits")[1] +
                a.fault_pvars.at("fault.retransmits")[2],
            0)
      << "the plan must actually inject faults for this test to mean much";
  EXPECT_EQ(a.final_vtimes, b.final_vtimes);
  EXPECT_EQ(a.fault_pvars, b.fault_pvars);
}

TEST(FaultDeterminismTest, NbcDifferentSeedsDiverge) {
  const ChaosFingerprint a = run_seeded_nbc_chaos(11, "nbc_seed11");
  const ChaosFingerprint b = run_seeded_nbc_chaos(12, "nbc_seed12");
  EXPECT_FALSE(a == b) << "different seeds produced identical NBC runs";
}

// --- Timeout paths (graceful degradation, not hangs) ------------------------

TEST(FaultTimeoutTest, FullDropLinkRaisesTransportTimeout) {
  UniverseConfig c = chaos_cfg(2, 1, 1.0, 0, 5, "full_drop");
  c.fabric.faults.delivery_timeout_ns = 2'000'000;  // 2 ms of virtual time
  EXPECT_THROW(
      Universe::launch(c,
                       [](Comm& world) {
                         char t = 7;
                         if (world.rank() == 0) {
                           world.send(&t, sizeof(t), 1, 0);
                         } else {
                           world.recv(&t, sizeof(t), 0, 0);
                         }
                       }),
      TransportTimeoutError);
}

TEST(FaultTimeoutTest, TimeoutDumpsFlightRecorderReport) {
  // A job dying on TransportTimeoutError must leave a black-box dump
  // naming the involved ranks and their last protocol events.
  UniverseConfig c = chaos_cfg(2, 1, 1.0, 0, 5, "flight_dump");
  c.fabric.faults.delivery_timeout_ns = 2'000'000;
  const std::string dump = testing::TempDir() + "flight_timeout.txt";
  std::remove(dump.c_str());
  c.obs.flight_dump_path = dump;
  EXPECT_THROW(
      Universe::launch(c,
                       [](Comm& world) {
                         char t = 7;
                         if (world.rank() == 0) {
                           world.send(&t, sizeof(t), 1, 0);
                         } else {
                           world.recv(&t, sizeof(t), 0, 0);
                         }
                       }),
      TransportTimeoutError);
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump not written to " << dump;
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
  EXPECT_NE(report.find("involved ranks: 0 1"), std::string::npos);
  EXPECT_NE(report.find("rank 0:"), std::string::npos);  // the sender...
  EXPECT_NE(report.find("rank 1:"), std::string::npos);  // ...and receiver
  EXPECT_NE(report.find("eager_send"), std::string::npos);
  EXPECT_NE(report.find("retransmit"), std::string::npos);
  EXPECT_NE(report.find("timeout"), std::string::npos);
  EXPECT_NE(report.find("post"), std::string::npos);
}

TEST(FaultTimeoutTest, FlightRecorderCanBeOptedOut) {
  UniverseConfig c = chaos_cfg(2, 1, 1.0, 0, 5, "flight_off");
  c.fabric.faults.delivery_timeout_ns = 2'000'000;
  const std::string dump = testing::TempDir() + "flight_off.txt";
  std::remove(dump.c_str());
  c.obs.flight_dump_path = dump;
  c.obs.flight_recorder = false;
  EXPECT_THROW(
      Universe::launch(c,
                       [](Comm& world) {
                         char t = 7;
                         if (world.rank() == 0) {
                           world.send(&t, sizeof(t), 1, 0);
                         } else {
                           world.recv(&t, sizeof(t), 0, 0);
                         }
                       }),
      TransportTimeoutError);
  EXPECT_FALSE(std::ifstream(dump).good())
      << "opted-out flight recorder must not dump";
}

// The sanitizer CI jobs set JHPC_FLIGHT_RECORDER_DUMP so that a failing
// test leaves its black-box dump as an artifact. A job that takes its obs
// config from the environment and one whose code built its own must both
// append to that file.
TEST(FaultTimeoutTest, FlightDumpKnobCollectsEveryFailedJob) {
  const std::string dump = testing::TempDir() + "flight_knob.txt";
  std::remove(dump.c_str());
  const char* ci_dump = std::getenv("JHPC_FLIGHT_RECORDER_DUMP");
  const std::string saved = ci_dump != nullptr ? ci_dump : "";
  ::setenv("JHPC_FLIGHT_RECORDER_DUMP", dump.c_str(), 1);

  UniverseConfig from_env;  // a TransportTimeoutError
  from_env.world_size = 2;
  from_env.fabric.ranks_per_node = 1;
  from_env.fabric.faults.link_defaults.drop_prob = 1.0;
  from_env.fabric.faults.delivery_timeout_ns = 2'000'000;
  EXPECT_THROW(Universe::launch(from_env,
                                [](Comm& world) {
                                  char t = 7;
                                  if (world.rank() == 0) {
                                    world.send(&t, sizeof(t), 1, 0);
                                  } else {
                                    world.recv(&t, sizeof(t), 0, 0);
                                  }
                                }),
               TransportTimeoutError);

  UniverseConfig own;  // a fatal rank kill
  own.world_size = 2;
  own.obs = obs::ObsConfig{};
  own.obs.pvars = true;
  own.fabric.faults.kills = {{1, 0}};
  EXPECT_THROW(Universe::launch(own,
                                [](Comm& world) {
                                  char b = 0;
                                  world.recv(&b, 1, 1 - world.rank(), 7);
                                }),
               RankFailedError);

  if (saved.empty()) {
    ::unsetenv("JHPC_FLIGHT_RECORDER_DUMP");
  } else {
    ::setenv("JHPC_FLIGHT_RECORDER_DUMP", saved.c_str(), 1);
  }
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "no flight dump in " << dump;
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string report = ss.str();
  const std::size_t first = report.find("flight recorder");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(report.find("flight recorder", first + 1), std::string::npos)
      << "one dump, not two:\n" << report;
  EXPECT_NE(report.find("timeout"), std::string::npos);
  EXPECT_NE(report.find("kill"), std::string::npos);
}

TEST(FaultTimeoutTest, WaitSurfacesTimeoutOnBothSides) {
  // RTS direction (0->1) is clean; the CTS answer (1->0) is black-holed,
  // so the rendezvous times out after the handshake began. Both the
  // sender's wait and the receiver's recv must raise
  // TransportTimeoutError — and the job must not hang or abort.
  UniverseConfig c = chaos_cfg(2, 1, 0.0, 0, 5, "cts_drop");
  c.fabric.faults.parse_links("1>0:drop=1.0");
  c.fabric.faults.delivery_timeout_ns = 2'000'000;
  c.eager_limit = 64;  // 1 KB payload -> rendezvous
  bool sender_timed_out = false, receiver_timed_out = false;
  Universe::launch(c, [&](Comm& world) {
    std::vector<std::uint8_t> buf(1024);
    if (world.rank() == 0) {
      try {
        Request r = world.isend(buf.data(), buf.size(), 1, 0);
        r.wait();
      } catch (const TransportTimeoutError&) {
        sender_timed_out = true;
      }
    } else {
      try {
        world.recv(buf.data(), buf.size(), 0, 0);
      } catch (const TransportTimeoutError&) {
        receiver_timed_out = true;
      }
    }
  });
  EXPECT_TRUE(sender_timed_out);
  EXPECT_TRUE(receiver_timed_out);
}

TEST(FaultTimeoutTest, RecoveredDownWindowCompletesLateButCorrect) {
  UniverseConfig c = chaos_cfg(2, 1, 0.0, 0, 5, "down_window");
  c.fabric.faults.link_defaults.down_from_ns = 0;
  c.fabric.faults.link_defaults.down_until_ns = 200'000;
  c.fabric.faults.rto_ns = 50'000;
  c.deterministic_clock = true;  // the send leaves at exactly t=0
  Universe::launch(c, [&](Comm& world) {
    const auto payload = pattern(128, 3);
    if (world.rank() == 0) {
      world.send(payload.data(), payload.size(), 1, 0);
    } else {
      std::vector<std::uint8_t> buf(128);
      world.recv(buf.data(), buf.size(), 0, 0);
      EXPECT_EQ(buf, payload);
      // Attempts at t=0, 50us, 150us start inside the outage; the t=350us
      // retransmit is the first to cross. Arrival must reflect the wait.
      EXPECT_GE(world.vtime_ns(), 350'000);
    }
    drain_to_rank0(world);
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      EXPECT_EQ(reg.read(reg.find("fault.data_drops"), 0), 3);
      EXPECT_EQ(reg.read(reg.find("fault.retransmits"), 0), 3);
      EXPECT_EQ(total(reg, "fault.timeouts"), 0);
    }
  });
}

// --- Zero-cost-off ------------------------------------------------------------

TEST(FaultZeroCostTest, FaultPvarsAbsentWhenDisabled) {
  UniverseConfig c = chaos_cfg(2, 1, /*drop=*/0.0, /*jitter=*/0, 1, "off");
  ASSERT_FALSE(c.fabric.faults.enabled());
  Universe::launch(c, [](Comm& world) {
    char t = 0;
    if (world.rank() == 0) {
      world.send(&t, sizeof(t), 1, 0);
    } else {
      world.recv(&t, sizeof(t), 0, 0);
    }
    world.barrier();
    // The pvar table of a fault-free job is identical to one built before
    // the fault layer existed: no fault.* rows at all.
    obs::PvarRegistry& reg = *world.pvars();
    EXPECT_FALSE(reg.find("fault.data_drops").valid());
    EXPECT_FALSE(reg.find("fault.retransmits").valid());
    EXPECT_FALSE(reg.find("fault.timeouts").valid());
    for (const auto& snap : reg.snapshot())
      EXPECT_TRUE(snap.name.rfind("fault.", 0) != 0)
          << "unexpected fault pvar in a fault-free job: " << snap.name;
  });
}

TEST(FaultZeroCostTest, InactivePlanBehavesIdenticallyToNoPlan) {
  // A seed alone (no drop/jitter/window/degradation) must not enable the
  // fault machinery: the virtual timeline is bit-identical to a default
  // run. Deterministic clock + one rank per node makes "bit-identical"
  // checkable as an exact vtime comparison.
  auto run = [](std::uint64_t seed) {
    UniverseConfig c;
    c.world_size = 2;
    c.fabric.ranks_per_node = 1;
    c.fabric.faults.seed = seed;
    c.obs = obs::ObsConfig{};
    c.deterministic_clock = true;
    std::vector<std::int64_t> vtimes(2);
    Universe::launch(c, [&](Comm& world) {
      std::vector<std::uint8_t> buf(256);
      for (int i = 0; i < 20; ++i) {
        if (world.rank() == 0) {
          world.send(buf.data(), buf.size(), 1, i);
          world.recv(buf.data(), buf.size(), 1, i);
        } else {
          world.recv(buf.data(), buf.size(), 0, i);
          world.send(buf.data(), buf.size(), 0, i);
        }
      }
      vtimes[static_cast<std::size_t>(world.rank())] = world.vtime_ns();
    });
    return vtimes;
  };
  EXPECT_EQ(run(1), run(987654321));
}

// --- One-sided traffic under drop/jitter plans -----------------------------

TEST(FaultRmaTest, PutAccumulateStreamSurvivesDropsWithExactAccounting) {
  // A put+accumulate stream over every droppable link: the RDMA path
  // rides the same reliable protocol as two-sided traffic, so the fault
  // books must balance over RMA-only traffic too — and the window
  // contents must come out exactly as a fault-free run would leave them
  // (the retransmit-dedup floors at work).
  UniverseConfig c = chaos_cfg(4, 1, 0.06, 400, 24680, "rma_chaos");
  constexpr int kEpochs = 12;
  constexpr std::size_t kSlice = 128;
  Universe u(c);
  u.run([&](Comm& world) {
    const int n = world.size();
    const int me = world.rank();
    const std::size_t acc_off = static_cast<std::size_t>(n) * kSlice;
    Win win = world.win_allocate(acc_off + sizeof(std::int64_t));
    win.fence();
    for (int e = 0; e < kEpochs; ++e) {
      const std::int64_t one = 1;
      for (int t = 0; t < n; ++t) {
        if (t == me) continue;
        const auto payload =
            pattern(kSlice, static_cast<unsigned>(e * 100 + me));
        win.put(payload.data(), payload.size(), t,
                static_cast<std::size_t>(me) * kSlice);
        win.accumulate(&one, 1, Datatype::basic(BasicKind::kLong),
                       ReduceOp::kSum, t, acc_off);
      }
      win.fence();
      // Each peer's final-round slice and the shared counter are exact.
      for (int o = 0; o < n; ++o) {
        if (o == me) continue;
        const auto* mem = static_cast<const std::uint8_t*>(win.base());
        const auto want =
            pattern(kSlice, static_cast<unsigned>(e * 100 + o));
        EXPECT_EQ(0, std::memcmp(mem + static_cast<std::size_t>(o) * kSlice,
                                 want.data(), kSlice))
            << "epoch " << e << ": slice from origin " << o
            << " corrupted under faults";
      }
      std::int64_t count;
      std::memcpy(&count, static_cast<const std::uint8_t*>(win.base()) +
                              acc_off, sizeof(count));
      EXPECT_EQ(count, static_cast<std::int64_t>(e + 1) * (n - 1))
          << "accumulate lost or double-applied under faults";
      // Peers must not race ahead into the next epoch's puts while this
      // rank is still reading its own window.
      world.barrier();
    }
    win.free();
  });
  // The books are read once every rank is through the job: a peer's last
  // transport call may still be counting after its final message landed.
  const auto sum = [&u](const char* name) { return u.pvar_total(name); };
  expect_fault_accounting(sum);
  EXPECT_GT(sum("fault.data_drops") + sum("fault.ack_drops"), 0)
      << "a 6% plan over this much RMA traffic should drop something";
  EXPECT_EQ(sum("fault.timeouts"), 0);
  EXPECT_EQ(sum("rma.put_bytes"),
            static_cast<std::int64_t>(kEpochs) * 4 * 3 * kSlice);
}

TEST(FaultRmaTest, LockUnlockUnderJitterKeepsRmwAtomic) {
  // Passive target under jitter: n-1 ranks hammer a fetch_op ticket
  // counter plus an exclusive-lock read-modify-write on rank 0's window;
  // neither may lose an update however the retransmits land.
  UniverseConfig c = chaos_cfg(3, 1, 0.05, 600, 13579, "rma_lock_chaos");
  constexpr int kIters = 15;
  Universe::launch(c, [&](Comm& world) {
    const int n = world.size();
    Win win = world.win_allocate(2 * sizeof(std::int64_t));
    win.fence();
    win.fence();  // window contents zeroed and visible everywhere
    for (int i = 0; i < kIters; ++i) {
      const std::int64_t one = 1;
      std::int64_t ticket = -1;
      win.fetch_op(&one, &ticket, BasicKind::kLong, ReduceOp::kSum, 0, 0);
      EXPECT_GE(ticket, 0);
      EXPECT_LT(ticket, static_cast<std::int64_t>(n) * kIters);
      win.lock(LockType::kExclusive, 0);
      std::int64_t cur;
      win.get(&cur, sizeof(cur), 0, sizeof(std::int64_t));
      ++cur;
      win.put(&cur, sizeof(cur), 0, sizeof(std::int64_t));
      win.unlock(0);
    }
    world.barrier();
    if (world.rank() == 0) {
      const auto* mem = static_cast<const std::int64_t*>(win.base());
      EXPECT_EQ(mem[0], static_cast<std::int64_t>(n) * kIters)
          << "fetch_op tickets lost under faults";
      EXPECT_EQ(mem[1], static_cast<std::int64_t>(n) * kIters)
          << "locked RMW lost an update under faults";
      obs::PvarRegistry& reg = *world.pvars();
      expect_fault_accounting(reg);
    }
    world.barrier();
    win.free();
  });
}

}  // namespace
}  // namespace jhpc::minimpi
