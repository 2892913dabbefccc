// Seeded inputs of the four workloads. Every element is a pure function
// of (seed, index), so all ranks derive the same op sequence without
// exchanging it, and the program receives only these generated inputs.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

// --- p2p_small ---------------------------------------------------------------

/// The four Fig 5 series, in rotation order.
enum class Series : int { kMv2jBuffer, kMv2jArrays, kOmpijBuffer, kOmpijArrays };
inline constexpr std::array<const char*, 4> kSeriesName = {
    "mv2j.buffer", "mv2j.arrays", "ompij.buffer", "ompij.arrays"};
inline constexpr std::size_t kP2pMinBytes = 8;
inline constexpr std::size_t kP2pMaxBytes = 4096;

/// Series order of pass `pass`: the four series rotated by a seeded start.
inline std::array<Series, 4> p2p_series_order(std::uint64_t seed, int pass) {
  const auto start = static_cast<int>(mix(seed, 1, static_cast<std::uint64_t>(pass)) % 4);
  std::array<Series, 4> order{};
  for (int i = 0; i < 4; ++i) order[static_cast<std::size_t>(i)] = static_cast<Series>((start + i) % 4);
  return order;
}

/// Payload size of every round of one (pass, series) segment: log-uniform
/// in [8 B, 4 KiB], all eager.
inline std::vector<std::size_t> p2p_sizes(std::uint64_t seed, int pass,
                                          Series s, int rounds) {
  Rng r(mix(seed, 2 + static_cast<std::uint64_t>(s), static_cast<std::uint64_t>(pass)));
  std::vector<std::size_t> v(static_cast<std::size_t>(rounds));
  for (auto& b : v) b = r.log_size(kP2pMinBytes, kP2pMaxBytes, 8);
  return v;
}

// --- bulk --------------------------------------------------------------------

struct BulkOp {
  enum Kind : int { kBcast, kAllreduce, kPingpong } kind = kBcast;
  std::size_t bytes = 0;  ///< multiple of 8 (doubles for allreduce)
  bool arrays = false;    ///< Java array payload instead of a ByteBuffer
  int root = 0;           ///< bcast root
};
inline constexpr std::size_t kBulkMinBytes = 64 * 1024;
inline constexpr std::size_t kBulkMaxBytes = 4 * 1024 * 1024;

inline BulkOp bulk_op(std::uint64_t seed, std::int64_t i) {
  Rng r(mix(seed, 10, static_cast<std::uint64_t>(i)));
  BulkOp op;
  op.kind = static_cast<BulkOp::Kind>(r.range(0, 2));
  op.bytes = r.log_size(kBulkMinBytes, kBulkMaxBytes, 8);
  op.arrays = (r.next() & 1) != 0;
  op.root = static_cast<int>(r.range(0, 3));
  return op;
}

// --- cg_app ---------------------------------------------------------------------

/// Manufactured solution x*(g) = amp * sin(freq * g / n + phase) + shift.
struct CgProblem {
  double amp = 1.0, freq = 3.0, phase = 0.0, shift = 0.25;
};

inline CgProblem cg_problem(std::uint64_t seed, int solve) {
  Rng r(mix(seed, 20, static_cast<std::uint64_t>(solve)));
  CgProblem p;
  p.amp = 0.5 + r.unit();
  p.freq = 2.0 + 3.0 * r.unit();
  p.phase = 3.14159 * r.unit();
  p.shift = 0.1 + 0.4 * r.unit();
  return p;
}

// --- service -------------------------------------------------------------------

struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the start of the open loop
  bool hog = false;         ///< bandwidth-class job
};

/// Job classes: the 90/10 mix with exactly one hog in every block of ten
/// consecutive jobs, at a seeded position, so every block of a stream
/// carries the same work. `stream` separates the open loop from the
/// bursts.
inline bool is_hog(std::uint64_t seed, std::uint64_t stream, std::int64_t i) {
  const auto block = static_cast<std::uint64_t>(i / 10);
  return static_cast<std::uint64_t>(i % 10) == mix(seed, stream, block) % 10;
}

/// Poisson arrivals at `rate_per_s`.
inline std::vector<Arrival> service_arrivals(std::uint64_t seed,
                                             double rate_per_s, int count) {
  Rng r(mix(seed, 30));
  std::vector<Arrival> v(static_cast<std::size_t>(count));
  double t = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    t += -std::log(1.0 - r.unit()) / rate_per_s;
    v[i].due_ns = static_cast<std::int64_t>(t * 1e9);
    v[i].hog = is_hog(seed, 31, static_cast<std::int64_t>(i));
  }
  return v;
}

/// Class sequence of the closed bursts.
inline bool burst_is_hog(std::uint64_t seed, std::int64_t i) {
  return is_hog(seed, 32, i);
}

}  // namespace perfbench
