// Configuration plumbing: the knob registry's environment and docs,
// suite profiles, run options of both binding libraries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "jhpc/jhpcd/jhpcd.hpp"
#include "jhpc/minijvm/direct_memory.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/netsim/fabric.hpp"
#include "jhpc/ombj/harness.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "jhpc/support/knobs.hpp"

namespace jhpc {
namespace {

/// Every test starts with no JHPC_* knob set; the knobs the process had
/// (a CI flight-dump path, say) come back afterwards.
class EnvOverrideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const KnobRow& row : kKnobs) {
      if (const char* v = std::getenv(row.name)) saved_.emplace_back(row.name, v);
      ::unsetenv(row.name);
    }
  }
  void TearDown() override {
    for (const KnobRow& row : kKnobs) ::unsetenv(row.name);
    for (const auto& [name, value] : saved_)
      ::setenv(name.c_str(), value.c_str(), 1);
  }

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
};

TEST_F(EnvOverrideTest, FabricFromEnv) {
  ::setenv("JHPC_PPN", "8", 1);
  ::setenv("JHPC_INTER_LAT_NS", "2500", 1);
  ::setenv("JHPC_INTER_BW_MBPS", "5000", 1);
  ::setenv("JHPC_INTRA_LAT_NS", "50", 1);
  const auto cfg = minimpi::UniverseConfig{}.fabric;
  EXPECT_EQ(cfg.ranks_per_node, 8);
  EXPECT_EQ(cfg.inter_latency_ns, 2500);
  EXPECT_DOUBLE_EQ(cfg.inter_bandwidth_mbps, 5000.0);
  EXPECT_EQ(cfg.intra_latency_ns, 50);
}

TEST_F(EnvOverrideTest, FabricDefaultsWhenUnset) {
  const auto cfg = minimpi::UniverseConfig{}.fabric;
  EXPECT_EQ(cfg.ranks_per_node, 0);
  EXPECT_EQ(cfg.inter_latency_ns, 1800);
  EXPECT_DOUBLE_EQ(cfg.inter_bandwidth_mbps, 12500.0);
}

TEST_F(EnvOverrideTest, PlacementFromEnv) {
  ::setenv("JHPC_PLACEMENT", "rr", 1);
  EXPECT_EQ(minimpi::UniverseConfig{}.fabric.placement,
            netsim::Placement::kRoundRobin);
  ::setenv("JHPC_PLACEMENT", "block", 1);
  EXPECT_EQ(minimpi::UniverseConfig{}.fabric.placement,
            netsim::Placement::kBlock);
  ::setenv("JHPC_PLACEMENT", "diagonal", 1);
  EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError);
}

TEST_F(EnvOverrideTest, UniverseEagerLimitFromEnv) {
  ::setenv("JHPC_EAGER_LIMIT", "4096", 1);
  EXPECT_EQ(minimpi::UniverseConfig{}.eager_limit, 4096u);
}

TEST_F(EnvOverrideTest, JvmConfigFromEnv) {
  ::setenv("JHPC_HEAP_MB", "16", 1);
  ::setenv("JHPC_JNI_CROSS_NS", "123", 1);
  const auto cfg = mv2j::RunOptions{}.jvm;
  EXPECT_EQ(cfg.heap_bytes, 16u << 20);
  EXPECT_EQ(cfg.jni_crossing_ns, 123);
}

TEST_F(EnvOverrideTest, PoolConfigFromEnv) {
  ::setenv("JHPC_POOL_MIN_CAPACITY", "1024", 1);
  ::setenv("JHPC_POOL_MAX_BUFFERS", "7", 1);
  const auto cfg = mv2j::RunOptions{}.pool;
  EXPECT_EQ(cfg.min_capacity, 1024u);
  EXPECT_EQ(cfg.max_pooled_buffers, 7u);
}

// The rows that had no range before the registry: one rejected value each.
TEST_F(EnvOverrideTest, RowsWithNewRangesRejectOutsideValues) {
  const std::pair<const char*, const char*> universe_bad[] = {
      {"JHPC_EAGER_LIMIT", "-1"},
      {"JHPC_FAULT_SEED", "-1"},
      {"JHPC_FAULT_BW_FACTOR", "2"}};
  for (const auto& [name, value] : universe_bad) {
    ::setenv(name, value, 1);
    EXPECT_THROW(minimpi::UniverseConfig{}, InvalidArgumentError) << name;
    ::unsetenv(name);
  }
  const std::pair<const char*, const char*> bindings_bad[] = {
      {"JHPC_HEAP_MB", "-1"},
      {"JHPC_JNI_CROSS_NS", "-400"},
      {"JHPC_POOL_MIN_CAPACITY", "63"},
      {"JHPC_POOL_MAX_BUFFERS", "-1"}};
  for (const auto& [name, value] : bindings_bad) {
    ::setenv(name, value, 1);
    EXPECT_THROW(mv2j::RunOptions{}, InvalidArgumentError) << name;
    ::unsetenv(name);
  }
  // DirectMemory reads its knob once per process; check the row itself.
  EXPECT_THROW(parse_knob<std::size_t>("JHPC_MAX_DIRECT_MB", "-1"),
               InvalidArgumentError);
}

// compiled default < environment < program code < command-line flag.
TEST_F(EnvOverrideTest, PrecedenceDefaultEnvCodeFlag) {
  ::setenv("JHPC_PPN", "8", 1);
  ::setenv("JHPC_PVARS", "1", 1);
  ::setenv("JHPC_HEAP_MB", "16", 1);
  ::setenv("JHPC_POOL_MAX_BUFFERS", "7", 1);
  // The building blocks keep their compiled defaults.
  EXPECT_EQ(netsim::FabricConfig{}.ranks_per_node, 0);
  EXPECT_FALSE(obs::ObsConfig{}.pvars);
  EXPECT_EQ(minijvm::JvmConfig{}.heap_bytes, 64u << 20);
  EXPECT_EQ(mpjbuf::FactoryConfig{}.max_pooled_buffers, 64u);
  // The four entry configs take the environment.
  EXPECT_TRUE(minimpi::UniverseConfig{}.obs.pvars);
  EXPECT_EQ(ompij::RunOptions{}.fabric.ranks_per_node, 8);
  EXPECT_TRUE(ompij::RunOptions{}.obs.pvars);
  ombj::FigureSpec fig;
  EXPECT_EQ(fig.ppn, 8);
  EXPECT_TRUE(fig.obs.pvars);
  // Program code beats the environment, and a flag beats both.
  fig.ppn = 2;
  std::string ppn_flag[] = {"fig", "--ppn", "4"};
  char* argv[] = {ppn_flag[0].data(), ppn_flag[1].data(),
                  ppn_flag[2].data()};
  ombj::parse_flags(fig, 3, argv,
                    [](const std::string&, auto) {
                      return false;
                    });
  EXPECT_EQ(fig.ppn, 4);
}

TEST_F(EnvOverrideTest, CollFromEnvBringsItsProfileAndReachesFigures) {
  ::setenv("JHPC_COLL", "basic", 1);
  const minimpi::UniverseConfig u;
  EXPECT_EQ(u.suite, minimpi::CollectiveSuite::kOmpiBasic);
  EXPECT_GT(u.intra_send_overhead_ns, 0) << "the suite's channel profile";
  EXPECT_EQ(ombj::FigureSpec{}.coll, "basic");
  // Binding jobs keep their vendor's suite.
  EXPECT_EQ(mv2j::RunOptions{}.universe_config().suite,
            minimpi::CollectiveSuite::kMv2);
}

TEST_F(EnvOverrideTest, ServiceConfigFromEnv) {
  ::setenv("JHPC_SVC_POOL_CAP", "3", 1);
  EXPECT_EQ(jhpcd::ServiceConfig{}.pool_capacity, 3u);
}

/// README's Configuration table: the knob name and default of each row.
std::map<std::string, std::string> readme_knobs() {
  std::ifstream f(JHPC_README);
  std::map<std::string, std::string> out;
  bool in_section = false;
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Configuration";
    if (!in_section || line.rfind("| `JHPC_", 0) != 0) continue;
    const std::size_t name_end = line.find('`', 3);
    const std::size_t last = line.rfind('|', line.size() - 2);
    std::string deflt = line.substr(last + 1);
    deflt = deflt.substr(0, deflt.rfind('|'));
    deflt.erase(0, deflt.find_first_not_of(' '));
    deflt.erase(deflt.find_last_not_of(' ') + 1);
    out[line.substr(3, name_end - 3)] = deflt;
  }
  return out;
}

TEST_F(EnvOverrideTest, ReadmeTableMatchesTheRegistry) {
  const std::map<std::string, std::string> readme = readme_knobs();
  std::set<std::string> registry;
  for (const KnobRow& row : kKnobs) registry.insert(row.name);
  for (const std::string& name : registry)
    EXPECT_TRUE(readme.count(name)) << name << " has no README row";
  for (const auto& [name, deflt] : readme)
    EXPECT_TRUE(registry.count(name)) << name << " has no registry row";

  // Each default README writes as a number is the default-constructed
  // config's, in a clean environment.
  const minimpi::UniverseConfig u;
  const netsim::FaultPlan& f = u.fabric.faults;
  const mv2j::RunOptions r;
  const jhpcd::ServiceConfig s;
  const std::map<std::string, double> actual = {
      {"JHPC_PPN", u.fabric.ranks_per_node},
      {"JHPC_INTER_LAT_NS", u.fabric.inter_latency_ns},
      {"JHPC_INTER_BW_MBPS", u.fabric.inter_bandwidth_mbps},
      {"JHPC_INTRA_LAT_NS", u.fabric.intra_latency_ns},
      {"JHPC_EAGER_LIMIT", u.eager_limit},
      {"JHPC_HIER_FLAG_NS", u.hier_flag_ns},
      {"JHPC_DET_CLOCK", u.deterministic_clock},
      {"JHPC_JNI_CROSS_NS", r.jvm.jni_crossing_ns},
      {"JHPC_HEAP_MB", r.jvm.heap_bytes >> 20},
      {"JHPC_MAX_DIRECT_MB", minijvm::DirectMemory::instance().limit() >> 20},
      {"JHPC_POOL_MIN_CAPACITY", r.pool.min_capacity},
      {"JHPC_POOL_MAX_BUFFERS", r.pool.max_pooled_buffers},
      {"JHPC_TRACE_CAPACITY", u.obs.trace_capacity},
      {"JHPC_FLIGHT_RECORDER_CAPACITY", u.obs.flight_capacity},
      {"JHPC_FAULT_SEED", f.seed},
      {"JHPC_FAULT_DROP", f.link_defaults.drop_prob},
      {"JHPC_FAULT_JITTER_NS", f.link_defaults.jitter_ns},
      {"JHPC_FAULT_BW_FACTOR", f.link_defaults.bandwidth_factor},
      {"JHPC_FAULT_RTO_NS", f.rto_ns},
      {"JHPC_FAULT_RTO_MAX_NS", f.rto_max_ns},
      {"JHPC_FAULT_TIMEOUT_NS", f.delivery_timeout_ns},
      {"JHPC_FAULT_HB_NS", f.heartbeat_ns},
      {"JHPC_SVC_WORKERS", s.workers},
      {"JHPC_SVC_QUEUE_CAP", s.queue_capacity},
      {"JHPC_SVC_POOL_CAP", s.pool_capacity},
      {"JHPC_SVC_LATENCY_WEIGHT", s.latency_weight},
      {"JHPC_SVC_MAX_RANKS", s.max_ranks_per_job}};
  int numeric = 0;
  for (const auto& [name, deflt] : readme) {
    char* end = nullptr;
    const double v = std::strtod(deflt.c_str(), &end);
    if (deflt.empty() || *end != '\0') continue;
    ++numeric;
    ASSERT_TRUE(actual.count(name)) << name;
    EXPECT_DOUBLE_EQ(actual.at(name), v) << name;
  }
  EXPECT_EQ(numeric, static_cast<int>(actual.size()))
      << "every numeric default above is written as a number in README";
}

TEST(SuiteProfileTest, Mv2jRunsOnMv2WithCheapShmChannel) {
  mv2j::RunOptions o;
  const auto cfg = o.universe_config();
  EXPECT_EQ(cfg.suite, minimpi::CollectiveSuite::kMv2);
  EXPECT_EQ(cfg.intra_send_overhead_ns, 0);
}

TEST(SuiteProfileTest, OmpijRunsOnBasicWithCostlierShmChannel) {
  ompij::RunOptions o;
  const auto cfg = o.universe_config();
  EXPECT_EQ(cfg.suite, minimpi::CollectiveSuite::kOmpiBasic);
  EXPECT_GT(cfg.intra_send_overhead_ns, 0);
}

// Both bindings can swap the hierarchical engine in underneath without
// changing their library identity/profile (docs/API.md).
TEST(SuiteProfileTest, HierCollectivesOverrideSelectsHierSuite) {
  mv2j::RunOptions m;
  m.hier_collectives = true;
  EXPECT_EQ(m.universe_config().suite, minimpi::CollectiveSuite::kHier);
  EXPECT_EQ(m.universe_config().intra_send_overhead_ns, 0);
  ompij::RunOptions o;
  o.hier_collectives = true;
  EXPECT_EQ(o.universe_config().suite, minimpi::CollectiveSuite::kHier);
}

TEST(SuiteProfileTest, IntraOverheadChargedInVirtualTime) {
  // Two universes differing only in the shm-channel profile: the costlier
  // one must measure a visibly higher intra-node ping-pong in vtime.
  auto measure = [](std::int64_t overhead_ns) {
    minimpi::UniverseConfig cfg;
    cfg.world_size = 2;
    cfg.obs = obs::ObsConfig{};  // time the channel, not the recorder
    cfg.intra_send_overhead_ns = overhead_ns;
    std::int64_t out = 0;
    minimpi::Universe::launch(cfg, [&](minimpi::Comm& world) {
      char b = 0;
      world.barrier();
      const auto t0 = world.vtime_ns();
      for (int i = 0; i < 50; ++i) {
        if (world.rank() == 0) {
          world.send(&b, 1, 1, 0);
          world.recv(&b, 1, 1, 0);
        } else {
          world.recv(&b, 1, 0, 0);
          world.send(&b, 1, 0, 0);
        }
      }
      if (world.rank() == 0) out = (world.vtime_ns() - t0) / 50;
    });
    return out;
  };
  const auto cheap = measure(0);
  const auto costly = measure(10'000);
  EXPECT_GT(costly, cheap + 15'000)
      << "2 x 10 us per round trip must be visible";
}

}  // namespace
}  // namespace jhpc
