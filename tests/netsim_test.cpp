// Unit tests for the virtual fabric model (virtual-time domain: callers
// pass the sender's virtual time and get the virtual delivery time).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/netsim/fabric.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::netsim {
namespace {

FabricConfig two_node_cfg() {
  FabricConfig cfg;
  cfg.ranks_per_node = 2;
  cfg.inter_latency_ns = 1000;
  cfg.inter_bandwidth_mbps = 1000.0;  // 1 ns/byte
  cfg.intra_latency_ns = 100;
  return cfg;
}

TEST(FabricTest, NodePlacementIsBlockwise) {
  Fabric f(8, two_node_cfg());
  EXPECT_EQ(f.node_count(), 4);
  EXPECT_EQ(f.node_of(0), 0);
  EXPECT_EQ(f.node_of(1), 0);
  EXPECT_EQ(f.node_of(2), 1);
  EXPECT_EQ(f.node_of(7), 3);
  EXPECT_TRUE(f.same_node(0, 1));
  EXPECT_FALSE(f.same_node(1, 2));
}

TEST(FabricTest, SingleNodeWhenPpnUnset) {
  FabricConfig cfg;  // ranks_per_node = 0 -> all on one node
  Fabric f(16, cfg);
  EXPECT_EQ(f.node_count(), 1);
  EXPECT_TRUE(f.same_node(0, 15));
}

TEST(FabricTest, RoundRobinPlacement) {
  auto cfg = two_node_cfg();
  cfg.placement = Placement::kRoundRobin;
  Fabric f(8, cfg);  // 4 nodes
  EXPECT_EQ(f.node_of(0), 0);
  EXPECT_EQ(f.node_of(1), 1);
  EXPECT_EQ(f.node_of(4), 0);
  EXPECT_EQ(f.node_of(7), 3);
  EXPECT_TRUE(f.same_node(0, 4));
  EXPECT_FALSE(f.same_node(0, 1)) << "cyclic mapping splits neighbours";
}

TEST(FabricTest, UnevenLastNode) {
  auto cfg = two_node_cfg();
  cfg.ranks_per_node = 3;
  Fabric f(7, cfg);
  EXPECT_EQ(f.node_count(), 3);
  EXPECT_EQ(f.node_of(6), 2);
}

TEST(FabricTest, IntraNodeDeliveryPaysOnlyIntraLatency) {
  Fabric f(4, two_node_cfg());
  EXPECT_EQ(f.reserve_delivery(5000, 0, 1, 1 << 20), 5000 + 100);
}

TEST(FabricTest, InterNodeDeliveryPaysLatencyAndSerialization) {
  Fabric f(4, two_node_cfg());
  // 1000 bytes at 1 ns/byte + 1000 ns latency, starting at t=5000.
  EXPECT_EQ(f.reserve_delivery(5000, 0, 2, 1000), 5000 + 1000 + 1000);
}

TEST(FabricTest, ZeroByteMessagePaysOnlyLatency) {
  Fabric f(4, two_node_cfg());
  EXPECT_EQ(f.reserve_delivery(0, 0, 2, 0), 1000);
}

TEST(FabricTest, SerializationMatchesBandwidth) {
  Fabric f(4, two_node_cfg());
  EXPECT_EQ(f.serialization_ns(1000), 1000);  // 1 ns/byte
  EXPECT_EQ(f.serialization_ns(0), 0);
}

TEST(FabricTest, BackToBackTransfersQueueOnTheLink) {
  Fabric f(4, two_node_cfg());
  const auto d1 = f.reserve_delivery(0, 0, 2, 100'000);
  EXPECT_EQ(d1, 100'000 + 1000);
  // Second transfer entering at t=0 queues behind the first.
  const auto d2 = f.reserve_delivery(0, 0, 2, 100'000);
  EXPECT_EQ(d2, 200'000 + 1000);
  // A transfer entering after the link is free does not queue.
  const auto d3 = f.reserve_delivery(300'000, 0, 2, 1000);
  EXPECT_EQ(d3, 300'000 + 1000 + 1000);
}

TEST(FabricTest, OppositeDirectionsDoNotQueue) {
  Fabric f(4, two_node_cfg());
  (void)f.reserve_delivery(0, 0, 2, 1'000'000);  // busy 0->1 direction
  EXPECT_EQ(f.reserve_delivery(0, 2, 0, 100), 100 + 1000);
}

TEST(FabricTest, DistinctNodePairsAreDistinctLinks) {
  auto cfg = two_node_cfg();
  cfg.ranks_per_node = 1;
  Fabric f(4, cfg);
  (void)f.reserve_delivery(0, 0, 1, 1'000'000);  // node0 -> node1 busy
  // node0 -> node2 is a separate directed link.
  EXPECT_EQ(f.reserve_delivery(0, 0, 2, 100), 100 + 1000);
}

TEST(FabricTest, ResetClearsLinkClocks) {
  Fabric f(4, two_node_cfg());
  (void)f.reserve_delivery(0, 0, 2, 1'000'000);
  f.reset();
  EXPECT_EQ(f.reserve_delivery(0, 0, 2, 1000), 1000 + 1000);
}

TEST(FabricTest, ConcurrentReservationsNeverOverlap) {
  Fabric f(4, two_node_cfg());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  constexpr std::size_t kBytes = 1000;  // 1000 ns occupancy each
  std::vector<std::int64_t> ends(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        ends[static_cast<std::size_t>(t * kPerThread + i)] =
            f.reserve_delivery(0, 0, 2, kBytes);
    });
  }
  for (auto& th : threads) th.join();
  // 800 serialized transfers of 1000 ns each: the last one cannot
  // complete before 800'000 + latency, and all end times are distinct.
  std::sort(ends.begin(), ends.end());
  EXPECT_EQ(ends.back(), 800'000 + 1000);
  for (std::size_t i = 1; i < ends.size(); ++i)
    EXPECT_GE(ends[i] - ends[i - 1], 1000);
}

TEST(FabricTest, RejectsBadConfig) {
  FabricConfig cfg;
  cfg.inter_bandwidth_mbps = 0.0;
  EXPECT_THROW(Fabric(2, cfg), InvalidArgumentError);
  FabricConfig cfg2;
  cfg2.inter_latency_ns = -5;
  EXPECT_THROW(Fabric(2, cfg2), InvalidArgumentError);
  EXPECT_THROW(Fabric(0, FabricConfig{}), InvalidArgumentError);
}

TEST(FabricTest, RankOutOfRangeThrows) {
  Fabric f(4, two_node_cfg());
  EXPECT_THROW(f.node_of(4), InvalidArgumentError);
  EXPECT_THROW(f.node_of(-1), InvalidArgumentError);
}

// --- Fault plans -------------------------------------------------------------

TEST(FaultPlanTest, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.seed = 424242;  // a seed alone injects nothing
  EXPECT_FALSE(plan.enabled());
  plan.link_defaults.drop_prob = 0.01;
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanTest, OverrideAloneEnablesAndResolves) {
  FaultPlan plan;
  plan.parse_links("0>1:drop=0.5,jitter=200;2>0:down=1000-2000,bw=0.25");
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.overrides.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.link(0, 1).drop_prob, 0.5);
  EXPECT_EQ(plan.link(0, 1).jitter_ns, 200);
  EXPECT_FALSE(plan.link(0, 1).has_down_window());
  EXPECT_EQ(plan.link(2, 0).down_from_ns, 1000);
  EXPECT_EQ(plan.link(2, 0).down_until_ns, 2000);
  EXPECT_DOUBLE_EQ(plan.link(2, 0).bandwidth_factor, 0.25);
  // Links without an override fall back to the (perfect) defaults.
  EXPECT_FALSE(plan.link(1, 0).active());
}

TEST(FaultPlanTest, OverridesInheritLinkDefaults) {
  FaultPlan plan;
  plan.link_defaults.jitter_ns = 300;
  plan.parse_links("0>1:drop=0.1");
  EXPECT_EQ(plan.link(0, 1).jitter_ns, 300) << "unspecified keys inherit";
  EXPECT_DOUBLE_EQ(plan.link(0, 1).drop_prob, 0.1);
}

TEST(FaultPlanTest, ParseLinksRejectsMalformedSpecs) {
  FaultPlan plan;
  EXPECT_THROW(plan.parse_links("0>1:drop=2.0"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("0>1:drop=-0.1"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("x>1:drop=0.1"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("-1>1:drop=0.1"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("0>1:teleport=1"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("0:drop=0.1"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("0>1:down=5000"), InvalidArgumentError);
  EXPECT_THROW(plan.parse_links("0>1:bw=0"), InvalidArgumentError);
}

TEST(FaultHashTest, PureFunctionOfItsInputs) {
  const auto h = fault_hash(7, 0, 1, 42, 3, 1);
  EXPECT_EQ(h, fault_hash(7, 0, 1, 42, 3, 1));
  EXPECT_NE(h, fault_hash(8, 0, 1, 42, 3, 1));  // seed
  EXPECT_NE(h, fault_hash(7, 1, 0, 42, 3, 1));  // direction
  EXPECT_NE(h, fault_hash(7, 0, 1, 43, 3, 1));  // message
  EXPECT_NE(h, fault_hash(7, 0, 1, 42, 4, 1));  // attempt
  EXPECT_NE(h, fault_hash(7, 0, 1, 42, 3, 2));  // salt
}

TEST(FaultHashTest, UniformIsInUnitInterval) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = fault_uniform(1, 0, 1, i, 0, 1);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

FabricConfig faulty_cfg(double drop) {
  FabricConfig cfg = two_node_cfg();
  cfg.ranks_per_node = 1;  // rank == node: every pair crosses the fabric
  cfg.faults.link_defaults.drop_prob = drop;
  return cfg;
}

TEST(FaultFabricTest, CleanPlanMatchesReserveDelivery) {
  FabricConfig cfg = faulty_cfg(0.0);
  cfg.faults.link_defaults.jitter_ns = 0;
  cfg.faults.link_defaults.bandwidth_factor = 0.5;  // active, but no drops
  Fabric f(4, cfg);
  EXPECT_TRUE(f.faults_enabled());
  // 1000 bytes at 1 ns/byte, stretched 2x by the degradation, + latency.
  const auto a = f.try_data(0, 0, 1, 1000, /*seq=*/0, /*attempt=*/0);
  EXPECT_FALSE(a.dropped);
  EXPECT_EQ(a.deliver_at_ns, 2000 + 1000);
}

TEST(FaultFabricTest, IntraNodeTrafficNeverFaults) {
  FabricConfig cfg = two_node_cfg();  // 2 ranks per node
  cfg.faults.link_defaults.drop_prob = 1.0;
  Fabric f(4, cfg);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto a = f.try_data(0, 0, 1, 64, seq, 0);
    EXPECT_FALSE(a.dropped);
    EXPECT_EQ(a.deliver_at_ns, 100);  // intra latency only
  }
}

TEST(FaultFabricTest, FullDropAlwaysDropsInterNode) {
  Fabric f(4, faulty_cfg(1.0));
  for (std::uint64_t seq = 0; seq < 50; ++seq)
    EXPECT_TRUE(f.try_data(0, 0, 1, 64, seq, 0).dropped);
}

TEST(FaultFabricTest, DroppedAttemptsStillBurnLinkTime) {
  Fabric f(4, faulty_cfg(1.0));
  (void)f.try_data(0, 0, 1, 100'000, 0, 0);  // dropped, but serialized
  // A later clean fabric reservation queues behind the wasted occupancy.
  EXPECT_EQ(f.reserve_delivery(0, 0, 1, 0), 100'000 + 1000);
}

TEST(FaultFabricTest, ControlMessagesAreLatencyOnly) {
  Fabric f(4, faulty_cfg(0.0));
  const auto a = f.try_control(500, 0, 1, 0, 0, FaultSalt::kAck);
  EXPECT_FALSE(a.dropped);
  EXPECT_EQ(a.deliver_at_ns, 500 + 1000);
  // Controls must not touch the link serializer: the data path still sees
  // a free link.
  EXPECT_EQ(f.reserve_delivery(0, 0, 1, 1000), 1000 + 1000);
}

TEST(FaultFabricTest, DownWindowDropsByAttemptStartTime) {
  FabricConfig cfg = faulty_cfg(0.0);
  cfg.faults.link_defaults.down_from_ns = 1000;
  cfg.faults.link_defaults.down_until_ns = 2000;
  Fabric f(4, cfg);
  EXPECT_FALSE(f.try_control(999, 0, 1, 0, 0, FaultSalt::kRts).dropped);
  EXPECT_TRUE(f.try_control(1000, 0, 1, 0, 1, FaultSalt::kRts).dropped);
  EXPECT_TRUE(f.try_control(1999, 0, 1, 0, 2, FaultSalt::kRts).dropped);
  EXPECT_FALSE(f.try_control(2000, 0, 1, 0, 3, FaultSalt::kRts).dropped);
}

TEST(FaultFabricTest, JitterIsBoundedAndSeedStable) {
  FabricConfig cfg = faulty_cfg(0.0);
  cfg.faults.link_defaults.jitter_ns = 500;
  cfg.faults.seed = 99;
  Fabric f1(4, cfg), f2(4, cfg);
  bool saw_nonzero = false;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const auto a = f1.try_control(0, 0, 1, seq, 0, FaultSalt::kRts);
    const auto b = f2.try_control(0, 0, 1, seq, 0, FaultSalt::kRts);
    EXPECT_EQ(a.deliver_at_ns, b.deliver_at_ns) << "same seed, same jitter";
    EXPECT_GE(a.deliver_at_ns, 1000);
    EXPECT_LE(a.deliver_at_ns, 1000 + 500);
    saw_nonzero |= a.deliver_at_ns > 1000;
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST(FaultFabricTest, MessageSequencesArePerDirectedPairAndReset) {
  Fabric f(4, faulty_cfg(0.5));
  EXPECT_EQ(f.next_msg_seq(0, 1), 0u);
  EXPECT_EQ(f.next_msg_seq(0, 1), 1u);
  EXPECT_EQ(f.next_msg_seq(1, 0), 0u) << "reverse direction counts apart";
  EXPECT_EQ(f.next_msg_seq(0, 2), 0u);
  f.reset();
  EXPECT_EQ(f.next_msg_seq(0, 1), 0u);
}

// --- Environment validation ---------------------------------------------------
// The fabric and fault knobs reach a job through minimpi::UniverseConfig,
// whose default constructor reads them from the knob registry.

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvValidationTest, FabricRejectsNegativeKnobs) {
  {
    EnvGuard g("JHPC_PPN", "-1");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_INTER_LAT_NS", "-10");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_INTER_BW_MBPS", "0");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_INTRA_LAT_NS", "-1");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
}

TEST(EnvValidationTest, FaultEnvRejectsBadValues) {
  {
    EnvGuard g("JHPC_FAULT_DROP", "1.5");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_DROP", "-0.1");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_JITTER_NS", "-5");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_BW_FACTOR", "0");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_RTO_NS", "0");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_RTO_MAX_NS", "10");  // below the default RTO
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_TIMEOUT_NS", "-1");
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_DOWN", "1000");  // missing FROM:UNTIL separator
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
  }
}

TEST(FaultPlanTest, ParseKillsAcceptsASchedule) {
  FaultPlan plan;
  EXPECT_FALSE(plan.kills_enabled());
  plan.parse_kills("1@500000;3@2000000");
  ASSERT_EQ(plan.kills.size(), 2u);
  EXPECT_EQ(plan.kills[0].rank, 1);
  EXPECT_EQ(plan.kills[0].at_vns, 500000);
  EXPECT_EQ(plan.kills[1].rank, 3);
  EXPECT_EQ(plan.kills[1].at_vns, 2000000);
  EXPECT_TRUE(plan.kills_enabled());
  EXPECT_FALSE(plan.enabled())
      << "kills must not switch links to the retransmit protocol";
}

TEST(FaultPlanTest, ParseKillsRejectsMalformedSpecs) {
  for (const char* bad :
       {"1", "@5", "1@", "1@x", "-1@5", "1@-5", "1@5;1@9"}) {
    FaultPlan plan;
    EXPECT_THROW(plan.parse_kills(bad), jhpc::InvalidArgumentError)
        << "accepted: \"" << bad << '"';
  }
  // Empty clauses are tolerated (trailing/doubled separators).
  FaultPlan plan;
  plan.parse_kills("1@5;;2@7;");
  EXPECT_EQ(plan.kills.size(), 2u);
}

TEST(EnvValidationTest, KillEnvRoundTrips) {
  EnvGuard kill("JHPC_FAULT_KILL", "2@750000");
  EnvGuard hb("JHPC_FAULT_HB_NS", "250000");
  const FaultPlan plan = minimpi::UniverseConfig{}.fabric.faults;
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].rank, 2);
  EXPECT_EQ(plan.kills[0].at_vns, 750000);
  EXPECT_EQ(plan.heartbeat_ns, 250000);
}

TEST(EnvValidationTest, KillEnvRejectsBadValues) {
  {
    EnvGuard g("JHPC_FAULT_KILL", "banana");
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_FAULT_HB_NS", "-1");
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
  }
}

TEST(EnvValidationTest, FaultEnvRoundTrips) {
  EnvGuard seed("JHPC_FAULT_SEED", "4242");
  EnvGuard drop("JHPC_FAULT_DROP", "0.25");
  EnvGuard jitter("JHPC_FAULT_JITTER_NS", "750");
  EnvGuard down("JHPC_FAULT_DOWN", "1000:2000");
  EnvGuard links("JHPC_FAULT_LINKS", "1>0:drop=1.0");
  const FaultPlan plan = minimpi::UniverseConfig{}.fabric.faults;
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 4242u);
  EXPECT_DOUBLE_EQ(plan.link_defaults.drop_prob, 0.25);
  EXPECT_EQ(plan.link_defaults.jitter_ns, 750);
  EXPECT_EQ(plan.link_defaults.down_from_ns, 1000);
  EXPECT_EQ(plan.link_defaults.down_until_ns, 2000);
  EXPECT_DOUBLE_EQ(plan.link(1, 0).drop_prob, 1.0);
  EXPECT_EQ(plan.link(1, 0).jitter_ns, 750) << "override inherits defaults";
}

}  // namespace
}  // namespace jhpc::netsim
