// Unit tests for the jhpc support library.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "jhpc/support/byte_order.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"
#include "jhpc/support/knobs.hpp"
#include "jhpc/support/sizes.hpp"
#include "jhpc/support/stats.hpp"
#include "jhpc/support/table.hpp"

namespace jhpc {
namespace {

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(JHPC_REQUIRE(false, "nope"), InvalidArgumentError);
  EXPECT_NO_THROW(JHPC_REQUIRE(true, "fine"));
}

TEST(ErrorTest, AssertThrowsInternal) {
  EXPECT_THROW(JHPC_ASSERT(false, "bug"), InternalError);
}

TEST(ErrorTest, MessageContainsContext) {
  try {
    JHPC_REQUIRE(1 == 2, "my context message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("my context message"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ClockTest, Monotonic) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(ClockTest, WaitUntilReachesDeadline) {
  const auto deadline = now_ns() + 200'000;  // 200 us
  const auto observed = wait_until_ns(deadline);
  EXPECT_GE(observed, deadline);
  // And not wildly past it (sanity on an oversubscribed box).
  EXPECT_LT(observed, deadline + 50'000'000);
}

TEST(ClockTest, WaitUntilPastDeadlineReturnsImmediately) {
  const auto t0 = now_ns();
  wait_until_ns(t0 - 1'000'000);
  EXPECT_LT(now_ns() - t0, 10'000'000);
}

TEST(ClockTest, BurnTakesRoughlyRequestedTime) {
  burn_ns(1000);  // warm the calibration
  const auto t0 = now_ns();
  burn_ns(2'000'000);  // 2 ms
  const auto dt = now_ns() - t0;
  EXPECT_GT(dt, 500'000);  // at least 0.5 ms even with noise
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(StatsTest, RunningStatsMergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, SampleSetPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(StatsTest, SampleSetEmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.min(), InvalidArgumentError);
  EXPECT_THROW(s.percentile(50), InvalidArgumentError);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(StatsTest, BandwidthFormula) {
  // 1e6 bytes in 1e6 ns = 1 byte/ns = 1000 MB/s.
  EXPECT_DOUBLE_EQ(bandwidth_mbps(1'000'000, 1'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(1000, 0), 0.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(geometric_mean({5.0}), 5.0, 1e-9);
  EXPECT_THROW(geometric_mean({}), InvalidArgumentError);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), InvalidArgumentError);
}

TEST(StatsTest, BootstrapCI) {
  // Deterministic: same samples + seed give identical intervals.
  const std::vector<double> s{10, 11, 9, 12, 10, 11, 10, 9, 10, 12};
  const BootstrapCI a = bootstrap_ci(s);
  const BootstrapCI b = bootstrap_ci(s);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_NEAR(a.mean, 10.4, 1e-12);
  // The interval brackets the point estimate and is narrower than the
  // sample range.
  EXPECT_LE(a.lo, a.mean);
  EXPECT_GE(a.hi, a.mean);
  EXPECT_GE(a.lo, 9.0);
  EXPECT_LE(a.hi, 12.0);
  // Wider confidence never shrinks the interval.
  const BootstrapCI wide = bootstrap_ci(s, 1000, 0.99);
  EXPECT_LE(wide.lo, a.lo);
  EXPECT_GE(wide.hi, a.hi);
  // Degenerate cases.
  const BootstrapCI one = bootstrap_ci({42.0});
  EXPECT_DOUBLE_EQ(one.lo, 42.0);
  EXPECT_DOUBLE_EQ(one.hi, 42.0);
  EXPECT_THROW(bootstrap_ci({}), InvalidArgumentError);
  EXPECT_THROW(bootstrap_ci(s, 0), InvalidArgumentError);
  EXPECT_THROW(bootstrap_ci(s, 100, 1.5), InvalidArgumentError);
}

TEST(SizesTest, ParseSize) {
  EXPECT_EQ(parse_size("17"), 17u);
  EXPECT_EQ(parse_size("4K"), 4096u);
  EXPECT_EQ(parse_size("4k"), 4096u);
  EXPECT_EQ(parse_size("1M"), 1u << 20);
  EXPECT_EQ(parse_size("2G"), 2ull << 30);
  EXPECT_THROW(parse_size("abc"), InvalidArgumentError);
  EXPECT_THROW(parse_size("4X"), InvalidArgumentError);
  EXPECT_THROW(parse_size(""), InvalidArgumentError);
}

TEST(SizesTest, FormatSize) {
  EXPECT_EQ(format_size(17), "17");
  EXPECT_EQ(format_size(4096), "4K");
  EXPECT_EQ(format_size(1u << 20), "1M");
  EXPECT_EQ(format_size(3u << 20), "3M");
  EXPECT_EQ(format_size((1u << 20) + 1), std::to_string((1u << 20) + 1));
}

TEST(SizesTest, SweepIsPowersOfTwoInclusive) {
  const auto s = size_sweep(1, 16);
  const std::vector<std::size_t> want{1, 2, 4, 8, 16};
  EXPECT_EQ(s, want);
}

TEST(SizesTest, SweepFromZeroIncludesZero) {
  const auto s = size_sweep(0, 4);
  const std::vector<std::size_t> want{0, 1, 2, 4};
  EXPECT_EQ(s, want);
}

TEST(SizesTest, SweepRejectsNonPow2) {
  EXPECT_THROW(size_sweep(3, 16), InvalidArgumentError);
  EXPECT_THROW(size_sweep(1, 24), InvalidArgumentError);
  EXPECT_THROW(size_sweep(16, 4), InvalidArgumentError);
}

TEST(TableTest, TextAndCsv) {
  Table t({"Size", "Latency(us)"});
  t.add_row({"1", "0.50"});
  t.add_row({"2", "0.55"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string txt = t.to_text();
  EXPECT_NE(txt.find("Size"), std::string::npos);
  EXPECT_NE(txt.find("0.55"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("Size,Latency(us)\n"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(TableTest, WriteCsvReportsIoErrors) {
  Table t({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/out.csv"), Error);
}

/// Sets one environment variable for a scope, restoring its old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, old_.c_str(), 1);
    }
  }

 private:
  const char* name_;
  std::string old_;
};

TEST(EnvTest, Int64ParseAndDefault) {
  ::unsetenv("JHPC_SVC_POOL_CAP");
  std::size_t cap = 42;
  EXPECT_FALSE(KnobEnv().get("JHPC_SVC_POOL_CAP", cap));
  EXPECT_EQ(cap, 42u) << "an unset knob leaves the field alone";
  ScopedEnv e("JHPC_SVC_POOL_CAP", "17");
  EXPECT_TRUE(KnobEnv().get("JHPC_SVC_POOL_CAP", cap));
  EXPECT_EQ(cap, 17u);
  ::setenv("JHPC_SVC_POOL_CAP", "junk", 1);
  EXPECT_THROW(KnobEnv().get("JHPC_SVC_POOL_CAP", cap), InvalidArgumentError);
  ::setenv("JHPC_SVC_POOL_CAP", "17x", 1);
  EXPECT_THROW(KnobEnv().get("JHPC_SVC_POOL_CAP", cap), InvalidArgumentError);
  ::setenv("JHPC_SVC_POOL_CAP", "", 1);
  EXPECT_FALSE(KnobEnv().get("JHPC_SVC_POOL_CAP", cap)) << "empty = unset";
}

TEST(EnvTest, Int64RangeValidates) {
  int workers = 7;  // JHPC_SVC_WORKERS: an integer in [1, 256]
  ScopedEnv e("JHPC_SVC_WORKERS", "5");
  EXPECT_TRUE(KnobEnv().get("JHPC_SVC_WORKERS", workers));
  EXPECT_EQ(workers, 5);
  // Below the minimum: typed failure naming the knob.
  ::setenv("JHPC_SVC_WORKERS", "0", 1);
  try {
    KnobEnv().get("JHPC_SVC_WORKERS", workers);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("JHPC_SVC_WORKERS"),
              std::string::npos);
  }
  // Above the maximum.
  ::setenv("JHPC_SVC_WORKERS", "300", 1);
  EXPECT_THROW(KnobEnv().get("JHPC_SVC_WORKERS", workers),
               InvalidArgumentError);
  // No maximum admits any large value the field holds...
  std::size_t cap = 0;
  EXPECT_EQ(parse_knob<std::size_t>("JHPC_SVC_QUEUE_CAP", "100000000000"),
            100000000000u);
  // ...and an int field rejects one it cannot hold.
  EXPECT_THROW(parse_knob<int>("JHPC_SVC_MAX_RANKS", "3000000000"),
               InvalidArgumentError);
  // Garbage still fails the underlying parse.
  ::setenv("JHPC_SVC_WORKERS", "junk", 1);
  EXPECT_THROW(KnobEnv().get("JHPC_SVC_WORKERS", cap), InvalidArgumentError);
}

TEST(EnvTest, BoolForms) {
  bool on = false;
  ScopedEnv e("JHPC_PVARS", "TRUE");
  EXPECT_TRUE(KnobEnv().get("JHPC_PVARS", on));
  EXPECT_TRUE(on);
  ::setenv("JHPC_PVARS", "0", 1);
  KnobEnv().get("JHPC_PVARS", on);
  EXPECT_FALSE(on);
  ::setenv("JHPC_PVARS", "maybe", 1);
  EXPECT_THROW(KnobEnv().get("JHPC_PVARS", on), InvalidArgumentError);
}

TEST(KnobTest, TableRowsAreWellFormed) {
  EXPECT_EQ(std::size(kKnobs), 40u);
  std::set<std::string> names;
  for (const KnobRow& row : kKnobs) {
    EXPECT_EQ(std::string(row.name).rfind("JHPC_", 0), 0u) << row.name;
    EXPECT_TRUE(names.insert(row.name).second) << row.name << " twice";
    EXPECT_NE(std::string(row.doc), "") << row.name;
    EXPECT_EQ(row.type == KnobType::kChoice, row.choices != nullptr)
        << row.name;
    if (row.type == KnobType::kInt || row.type == KnobType::kReal) {
      EXPECT_LE(row.lo, row.hi) << row.name;
      EXPECT_GT(row.lo, -1e300) << row.name << " has no lower bound";
    }
  }
}

TEST(KnobTest, RealRowsCheckOpenAndClosedBounds) {
  EXPECT_DOUBLE_EQ(parse_knob<double>("JHPC_FAULT_DROP", "1"), 1.0);
  EXPECT_THROW(parse_knob<double>("JHPC_FAULT_DROP", "7"),
               InvalidArgumentError);
  EXPECT_THROW(parse_knob<double>("JHPC_FAULT_DROP", "nan"),
               InvalidArgumentError);
  EXPECT_THROW(parse_knob<double>("JHPC_INTER_BW_MBPS", "0"),
               InvalidArgumentError);
  EXPECT_DOUBLE_EQ(parse_knob<double>("JHPC_INTER_BW_MBPS", "0.5"), 0.5);
}

TEST(KnobTest, ChoiceRowsSelectByPosition) {
  enum class Placement { kBlock, kRoundRobin };
  EXPECT_EQ(parse_knob<Placement>("JHPC_PLACEMENT", "rr"),
            Placement::kRoundRobin);
  EXPECT_EQ(parse_knob<std::string>("JHPC_COLL", "hier"), "hier");
  try {
    parse_knob<std::string>("JHPC_COLL", "bogus");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("mv2|basic|hier"),
              std::string::npos);
  }
  EXPECT_EQ(parse_knob<std::string>("JHPC_TRACE", "any/path.json"),
            "any/path.json");
}

TEST(KnobTest, EnvIgnoresNamesWithNoRow) {
  ScopedEnv unknown("JHPC_NOT_A_KNOB", "x");
  ScopedEnv known("JHPC_TRACE", "t.json");
  const KnobEnv env;
  EXPECT_STREQ(env.raw("JHPC_TRACE"), "t.json");
}

TEST(ByteOrderTest, RoundTripBothOrders) {
  alignas(8) unsigned char buf[8];
  store_ordered<std::int32_t>(buf, 0x12345678, ByteOrder::kBigEndian);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[3], 0x78);
  EXPECT_EQ(load_ordered<std::int32_t>(buf, ByteOrder::kBigEndian),
            0x12345678);
  store_ordered<std::int32_t>(buf, 0x12345678, ByteOrder::kLittleEndian);
  EXPECT_EQ(buf[0], 0x78);
  EXPECT_EQ(load_ordered<std::int32_t>(buf, ByteOrder::kLittleEndian),
            0x12345678);
}

TEST(ByteOrderTest, DoubleSurvivesSwap) {
  alignas(8) unsigned char buf[8];
  const double v = -12345.6789e-3;
  store_ordered(buf, v, ByteOrder::kBigEndian);
  EXPECT_DOUBLE_EQ(load_ordered<double>(buf, ByteOrder::kBigEndian), v);
  store_ordered(buf, v, ByteOrder::kLittleEndian);
  EXPECT_DOUBLE_EQ(load_ordered<double>(buf, ByteOrder::kLittleEndian), v);
}

}  // namespace
}  // namespace jhpc
