// Tests of the benchmark's own machinery: the percentile rule, seeded
// inputs, layer-peel arithmetic and payload verification. The metric
// output of every workload is checked end to end by test_output.py.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common.hpp"
#include "plans.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileLeavingTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(0), 0.0);
}

TEST(PercentileRule, InterpolatesBetweenRanks) {
  std::vector<double> v(101);
  std::iota(v.begin(), v.end(), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Seeds, SameSeedSameOpsDifferentSeedDifferentOps) {
  EXPECT_EQ(p2p_sizes(7, 3, Series::kOmpijArrays, 100),
            p2p_sizes(7, 3, Series::kOmpijArrays, 100));
  EXPECT_NE(p2p_sizes(7, 3, Series::kOmpijArrays, 100),
            p2p_sizes(8, 3, Series::kOmpijArrays, 100));
  EXPECT_NE(p2p_sizes(7, 3, Series::kOmpijArrays, 100),
            p2p_sizes(7, 4, Series::kOmpijArrays, 100));
  for (const std::size_t b : p2p_sizes(7, 0, Series::kMv2jBuffer, 1000)) {
    EXPECT_GE(b, kP2pMinBytes);
    EXPECT_LE(b, kP2pMaxBytes);
    EXPECT_EQ(b % 8, 0u);
  }

  auto bulk = [](std::uint64_t seed) {
    std::vector<std::size_t> v;
    for (int i = 0; i < 64; ++i) {
      const BulkOp op = bulk_op(seed, i);
      EXPECT_GE(op.bytes, kBulkMinBytes);
      EXPECT_LE(op.bytes, kBulkMaxBytes);
      v.push_back(op.bytes * 16 + static_cast<std::size_t>(op.kind) * 4 +
                  static_cast<std::size_t>(op.root) + (op.arrays ? 1000 : 0));
    }
    return v;
  };
  EXPECT_EQ(bulk(1), bulk(1));
  EXPECT_NE(bulk(1), bulk(2));

  EXPECT_EQ(cg_problem(5, 2).freq, cg_problem(5, 2).freq);
  EXPECT_NE(cg_problem(5, 2).freq, cg_problem(6, 2).freq);

  const auto a1 = service_arrivals(3, 1000.0, 500);
  const auto a2 = service_arrivals(3, 1000.0, 500);
  const auto b1 = service_arrivals(4, 1000.0, 500);
  ASSERT_EQ(a1.size(), a2.size());
  bool same = true, differs = false;
  int hogs = 0;
  for (std::size_t i = 0; i < a1.size(); ++i) {
    same = same && a1[i].due_ns == a2[i].due_ns && a1[i].hog == a2[i].hog;
    differs = differs || a1[i].due_ns != b1[i].due_ns;
    hogs += a1[i].hog ? 1 : 0;
    if (i > 0) {
      EXPECT_GE(a1[i].due_ns, a1[i - 1].due_ns);
    }
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
  EXPECT_EQ(hogs, 50);  // exactly one in every block of ten
  // Mean inter-arrival of 1 ms at 1000/s, within sampling error.
  EXPECT_NEAR(static_cast<double>(a1.back().due_ns) / 500.0, 1e6, 2e5);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(LayerPeel, SelfTimesNonNegativeAndSumToTheOp) {
  // op -> {minimpi -> {clock}, mpjbuf -> {jni}}
  std::vector<PeelNode> nodes = {{"op", 5000, {1, 3}},
                                 {"minimpi", 3000, {2}},
                                 {"clock", 2300, {}},
                                 {"mpjbuf", 800, {4}},
                                 {"jni", 300, {}}};
  std::vector<double> self = peel_self(nodes);
  EXPECT_DOUBLE_EQ(self[0], 1200);
  EXPECT_DOUBLE_EQ(self[1], 700);
  EXPECT_DOUBLE_EQ(self[2], 2300);
  EXPECT_DOUBLE_EQ(self[3], 500);
  EXPECT_DOUBLE_EQ(self[4], 300);
  EXPECT_NEAR(sum(self), 5000, 1e-6);

  // Noisy replays: the children add up to more than their parent.
  Rng r(42);
  for (int trial = 0; trial < 1000; ++trial) {
    for (PeelNode& n : nodes) n.boundary_ns = 10000 * r.unit() - 500;
    self = peel_self(nodes);
    for (const double s : self) EXPECT_GE(s, 0.0);
    EXPECT_NEAR(sum(self), std::max(0.0, nodes[0].boundary_ns), 1e-6);
  }
}

TEST(LayerPeel, SpansNestInsideTheirParents) {
  const std::vector<PeelNode> nodes = {{"op", 5000, {1, 3}},
                                       {"minimpi", 3000, {2}},
                                       {"clock", 2300, {}},
                                       {"mpjbuf", 3000, {4}},
                                       {"jni", 300, {}}};
  SpanLog log;
  const int root = add_peel_spans(log, nodes, {}, 7, 1000);
  ASSERT_EQ(log.size(), nodes.size());
  const auto& s = log.spans();
  EXPECT_EQ(s[static_cast<std::size_t>(root)].end_ns - s[0].start_ns, 5000);
  for (std::size_t i = 1; i < s.size(); ++i) {
    ASSERT_GE(s[i].parent, 0);
    const Span& p = s[static_cast<std::size_t>(s[i].parent)];
    EXPECT_GE(s[i].start_ns, p.start_ns);
    EXPECT_LE(s[i].end_ns, p.end_ns);
    EXPECT_EQ(s[i].op, 7);
  }
}

TEST(Patterns, DetectCorruptionAtSampledWords) {
  for (const std::size_t bytes : {std::size_t{4}, std::size_t{8},
                                  std::size_t{24}, std::size_t{4096},
                                  std::size_t{65544}, std::size_t{4 << 20}}) {
    std::vector<unsigned char> buf(bytes);
    fill_pattern(buf.data(), bytes, 99);
    EXPECT_TRUE(check_pattern(buf.data(), bytes, 99)) << bytes;
    EXPECT_FALSE(check_pattern(buf.data(), bytes, 100)) << bytes;
    buf[0] ^= 1;
    EXPECT_FALSE(check_pattern(buf.data(), bytes, 99)) << bytes;
    buf[0] ^= 1;
    buf[bytes - 1] ^= 1;
    EXPECT_FALSE(check_pattern(buf.data(), bytes, 99)) << bytes;
  }
}

}  // namespace
}  // namespace perfbench
