// Differential collective-correctness suite: five engines, one oracle.
//
// Every sampled case (comm size, payload size, dtype, op, root) runs
// through the basic suite, the mv2 suite, the nonblocking schedule
// engine on both of those suites, AND the topology-aware hier suite, and
// each rank's output must be bit-identical to a single-threaded scalar
// oracle — including non-power-of-two comm sizes, zero-size payloads,
// single-rank comms, multi-node topologies (single-node, one-rank-per-
// node, and everything between), and (for a sampled subset) under seeded
// fault injection.
// Reduction inputs are drawn so every (kind, op) combination is exact
// and order-independent (small integers for float sums, bounded
// magnitudes for integer products), so an algorithm is never excused by
// "floating point reassociates" — hier's node-local fold order must
// yield the same bits as the oracle's rank-order fold.
//
// The file also carries the user-tag reservation regression (tags >=
// 2^28 rejected; kMaxUserTag still fine) and the mixed p2p + collective
// wait_all contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "detail/coll.hpp"
#include "detail/coll_nbc.hpp"
#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/obs/pvar.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

enum class Engine { kBasic, kMv2, kNbc, kNbcBasic, kHier };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kBasic:
      return "basic";
    case Engine::kMv2:
      return "mv2";
    case Engine::kNbc:
      return "nbc";
    case Engine::kNbcBasic:
      return "nbc-basic";
    case Engine::kHier:
      return "hier";
  }
  return "?";
}

constexpr Engine kEngines[] = {Engine::kBasic, Engine::kMv2, Engine::kNbc,
                               Engine::kNbcBasic, Engine::kHier};

/// The nonblocking engines run the i-collectives, on the suite below.
bool is_nbc(Engine e) { return e == Engine::kNbc || e == Engine::kNbcBasic; }

CollectiveSuite suite_of(Engine e) {
  switch (e) {
    case Engine::kBasic:
    case Engine::kNbcBasic:
      return CollectiveSuite::kOmpiBasic;
    case Engine::kHier:
      return CollectiveSuite::kHier;
    default:
      return CollectiveSuite::kMv2;
  }
}

enum class CollOp {
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
};

constexpr CollOp kByteOps[] = {CollOp::kBcast, CollOp::kGather,
                               CollOp::kScatter, CollOp::kAllgather,
                               CollOp::kAlltoall};

/// Exact, order-independent (kind, op) combinations for the reductions.
struct ReduceCase {
  BasicKind kind;
  ReduceOp op;
};
constexpr ReduceCase kReduceCases[] = {
    {BasicKind::kInt, ReduceOp::kSum},   {BasicKind::kInt, ReduceOp::kMax},
    {BasicKind::kInt, ReduceOp::kMin},   {BasicKind::kInt, ReduceOp::kBand},
    {BasicKind::kInt, ReduceOp::kBor},   {BasicKind::kInt, ReduceOp::kBxor},
    {BasicKind::kLong, ReduceOp::kSum},  {BasicKind::kByte, ReduceOp::kBor},
    {BasicKind::kDouble, ReduceOp::kSum}, {BasicKind::kFloat, ReduceOp::kMax},
};

UniverseConfig diff_cfg(int ranks, CollectiveSuite suite) {
  UniverseConfig c;
  c.world_size = ranks;
  c.suite = suite;
  c.obs = obs::ObsConfig{};  // hermetic: ignore JHPC_PVARS/JHPC_TRACE
  return c;
}

/// Per-rank input block: seeded, rank-keyed, byte-exact.
std::vector<std::uint8_t> byte_input(std::uint32_t case_seed, int rank,
                                     std::size_t n) {
  std::mt19937 rng(case_seed * 7919u + static_cast<std::uint32_t>(rank));
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

/// Typed reduction input, constrained so every listed (kind, op) is
/// exact: integers stay small enough that sums cannot overflow and
/// float/double elements are small whole numbers (exactly representable,
/// associativity-safe).
std::vector<std::uint8_t> typed_input(std::uint32_t case_seed, int rank,
                                      std::size_t count, BasicKind kind) {
  std::mt19937 rng(case_seed * 104729u + static_cast<std::uint32_t>(rank));
  std::vector<std::uint8_t> v(count * basic_size(kind));
  for (std::size_t i = 0; i < count; ++i) {
    const auto r = static_cast<std::int64_t>(rng() % 2001) - 1000;
    switch (kind) {
      case BasicKind::kInt: {
        const auto x = static_cast<std::int32_t>(r);
        std::memcpy(v.data() + i * 4, &x, 4);
        break;
      }
      case BasicKind::kLong: {
        const std::int64_t x = r * 1000003;
        std::memcpy(v.data() + i * 8, &x, 8);
        break;
      }
      case BasicKind::kByte: {
        const auto x = static_cast<std::uint8_t>(rng());
        v[i] = x;
        break;
      }
      case BasicKind::kDouble: {
        const auto x = static_cast<double>(r % 64);
        std::memcpy(v.data() + i * 8, &x, 8);
        break;
      }
      case BasicKind::kFloat: {
        const auto x = static_cast<float>(r % 64);
        std::memcpy(v.data() + i * 4, &x, 4);
        break;
      }
      default:
        ADD_FAILURE() << "unsupported kind in generator";
    }
  }
  return v;
}

/// Scalar oracle for the reductions: fold the ranks in order 0..n-1.
/// Every sampled (kind, op) is exact, so any evaluation order an engine
/// picks must yield these bits.
std::vector<std::uint8_t> oracle_reduce(
    const std::vector<std::vector<std::uint8_t>>& inputs, std::size_t count,
    BasicKind kind, ReduceOp op) {
  std::vector<std::uint8_t> acc = inputs[0];
  for (std::size_t r = 1; r < inputs.size(); ++r) {
    apply_reduce(op, kind, acc.data(), inputs[r].data(), count);
  }
  return acc;
}

struct CaseResult {
  /// Output buffer of every rank, in rank order.
  std::vector<std::vector<std::uint8_t>> out;
};

/// Run one collective once on one engine and collect each rank's output.
CaseResult run_case(Engine eng, CollOp what, int ranks, std::size_t size,
                    BasicKind kind, ReduceOp op, int root,
                    std::uint32_t case_seed, const UniverseConfig* base) {
  UniverseConfig c = base != nullptr ? *base : diff_cfg(ranks, suite_of(eng));
  c.world_size = ranks;
  c.suite = suite_of(eng);

  const auto n = static_cast<std::size_t>(ranks);
  const bool typed = what == CollOp::kReduce || what == CollOp::kAllreduce;
  const std::size_t esz = typed ? basic_size(kind) : 1;
  const std::size_t block = size * esz;

  CaseResult res;
  res.out.assign(n, {});
  Universe::launch(c, [&](Comm& world) {
    const int r = world.rank();
    // Inputs are regenerated per rank inside the job (no sharing).
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    switch (what) {
      case CollOp::kBcast: {
        out = r == root ? byte_input(case_seed, root, size)
                        : std::vector<std::uint8_t>(size, 0xee);
        if (is_nbc(eng)) {
          world.ibcast(out.data(), out.size(), root).wait();
        } else {
          world.bcast(out.data(), out.size(), root);
        }
        break;
      }
      case CollOp::kReduce:
      case CollOp::kAllreduce: {
        in = typed_input(case_seed, r, size, kind);
        out.assign(block, 0xee);
        if (what == CollOp::kReduce) {
          if (is_nbc(eng)) {
            world.ireduce(in.data(), out.data(), size, kind, op, root)
                .wait();
          } else {
            world.reduce(in.data(), out.data(), size, kind, op, root);
          }
          // Only the root's buffer is defined after a reduce.
          if (r != root) out.assign(block, 0xee);
        } else {
          if (is_nbc(eng)) {
            world.iallreduce(in.data(), out.data(), size, kind, op).wait();
          } else {
            world.allreduce(in.data(), out.data(), size, kind, op);
          }
        }
        break;
      }
      case CollOp::kGather: {
        in = byte_input(case_seed, r, size);
        out.assign(r == root ? size * n : 0, 0xee);
        if (is_nbc(eng)) {
          world.igather(in.data(), size, out.data(), root).wait();
        } else {
          world.gather(in.data(), size, out.data(), root);
        }
        break;
      }
      case CollOp::kScatter: {
        in = r == root ? byte_input(case_seed, root, size * n)
                       : std::vector<std::uint8_t>{};
        out.assign(size, 0xee);
        if (is_nbc(eng)) {
          world.iscatter(in.data(), size, out.data(), root).wait();
        } else {
          world.scatter(in.data(), size, out.data(), root);
        }
        break;
      }
      case CollOp::kAllgather: {
        in = byte_input(case_seed, r, size);
        out.assign(size * n, 0xee);
        if (is_nbc(eng)) {
          world.iallgather(in.data(), size, out.data()).wait();
        } else {
          world.allgather(in.data(), size, out.data());
        }
        break;
      }
      case CollOp::kAlltoall: {
        in = byte_input(case_seed, r, size * n);
        out.assign(size * n, 0xee);
        if (is_nbc(eng)) {
          world.ialltoall(in.data(), size, out.data()).wait();
        } else {
          world.alltoall(in.data(), size, out.data());
        }
        break;
      }
    }
    res.out[static_cast<std::size_t>(r)] = out;
  });
  return res;
}

/// Oracle for every operation, built from the same generators.
CaseResult oracle_case(CollOp what, int ranks, std::size_t size,
                       BasicKind kind, ReduceOp op, int root,
                       std::uint32_t case_seed) {
  const auto n = static_cast<std::size_t>(ranks);
  const bool typed = what == CollOp::kReduce || what == CollOp::kAllreduce;
  const std::size_t esz = typed ? basic_size(kind) : 1;
  const std::size_t block = size * esz;

  CaseResult res;
  res.out.assign(n, {});
  switch (what) {
    case CollOp::kBcast: {
      const auto v = byte_input(case_seed, root, size);
      for (auto& o : res.out) o = v;
      break;
    }
    case CollOp::kReduce:
    case CollOp::kAllreduce: {
      std::vector<std::vector<std::uint8_t>> ins(n);
      for (std::size_t r = 0; r < n; ++r)
        ins[r] = typed_input(case_seed, static_cast<int>(r), size, kind);
      const auto red = oracle_reduce(ins, size, kind, op);
      for (std::size_t r = 0; r < n; ++r) {
        res.out[r] = what == CollOp::kAllreduce || static_cast<int>(r) == root
                         ? red
                         : std::vector<std::uint8_t>(block, 0xee);
      }
      break;
    }
    case CollOp::kGather: {
      std::vector<std::uint8_t> all;
      for (std::size_t r = 0; r < n; ++r) {
        const auto v = byte_input(case_seed, static_cast<int>(r), size);
        all.insert(all.end(), v.begin(), v.end());
      }
      for (std::size_t r = 0; r < n; ++r)
        res.out[r] = static_cast<int>(r) == root ? all
                                                 : std::vector<std::uint8_t>{};
      break;
    }
    case CollOp::kScatter: {
      const auto all = byte_input(case_seed, root, size * n);
      for (std::size_t r = 0; r < n; ++r)
        res.out[r].assign(all.begin() + static_cast<std::ptrdiff_t>(r * size),
                          all.begin() +
                              static_cast<std::ptrdiff_t>((r + 1) * size));
      break;
    }
    case CollOp::kAllgather: {
      std::vector<std::uint8_t> all;
      for (std::size_t r = 0; r < n; ++r) {
        const auto v = byte_input(case_seed, static_cast<int>(r), size);
        all.insert(all.end(), v.begin(), v.end());
      }
      for (auto& o : res.out) o = all;
      break;
    }
    case CollOp::kAlltoall: {
      std::vector<std::vector<std::uint8_t>> ins(n);
      for (std::size_t r = 0; r < n; ++r)
        ins[r] = byte_input(case_seed, static_cast<int>(r), size * n);
      for (std::size_t r = 0; r < n; ++r) {
        res.out[r].resize(size * n);
        for (std::size_t s = 0; s < n && size > 0; ++s) {
          std::memcpy(res.out[r].data() + s * size,
                      ins[s].data() + r * size, size);
        }
      }
      break;
    }
  }
  return res;
}

std::string case_label(CollOp what, Engine eng, int ranks, std::size_t size,
                       int root) {
  return std::string("op=") + std::to_string(static_cast<int>(what)) +
         " engine=" + engine_name(eng) + " ranks=" + std::to_string(ranks) +
         " size=" + std::to_string(size) + " root=" + std::to_string(root);
}

void expect_case_matches_oracle(CollOp what, int ranks, std::size_t size,
                                BasicKind kind, ReduceOp op, int root,
                                std::uint32_t case_seed,
                                const UniverseConfig* base = nullptr) {
  const CaseResult want =
      oracle_case(what, ranks, size, kind, op, root, case_seed);
  for (const Engine eng : kEngines) {
    const CaseResult got =
        run_case(eng, what, ranks, size, kind, op, root, case_seed, base);
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(got.out[static_cast<std::size_t>(r)],
                want.out[static_cast<std::size_t>(r)])
          << case_label(what, eng, ranks, size, root) << " rank=" << r;
    }
  }
}

// --- Derived-datatype differential cases -----------------------------------
//
// The typed collective surface packs through the shared slab-scratch
// shim, so all four engines must stay bit-identical on strided payloads
// too — including the bytes the datatype does NOT own (gaps keep their
// poison). The oracle is the byte/scalar oracle above applied to the
// dense equivalent, unpacked into a poisoned buffer.

enum class DtShape { kVector, kIndexed, kStruct };

const char* shape_name(DtShape s) {
  switch (s) {
    case DtShape::kVector:
      return "vector";
    case DtShape::kIndexed:
      return "indexed";
    case DtShape::kStruct:
      return "struct";
  }
  return "?";
}

/// One representative noncontiguous type per constructor family, all
/// with int leaves so the reductions stay exact. Each has gaps (its
/// size is strictly less than its extent).
Datatype shape_type(DtShape s) {
  switch (s) {
    case DtShape::kVector:
      // 4 ints at stride 3 ints: size 16, extent 40.
      return Datatype::vector(4, 1, 3, Datatype::int_type());
    case DtShape::kIndexed: {
      const std::vector<int> lens{2, 1, 1};
      const std::vector<int> displs{0, 3, 5};
      return Datatype::indexed(lens, displs, Datatype::int_type());
    }
    case DtShape::kStruct: {
      const std::vector<int> lens{1, 2};
      const std::vector<std::ptrdiff_t> displs{0, 8};
      const std::vector<Datatype> fields{Datatype::int_type(),
                                         Datatype::int_type()};
      return Datatype::struct_type(lens, displs, fields);
    }
  }
  throw std::logic_error("bad shape");
}

/// A poisoned strided buffer with `elems` elements of dense payload
/// scattered into place; gap bytes keep the 0xee poison.
std::vector<std::uint8_t> raw_from_dense(
    const Datatype& dt, std::size_t elems,
    const std::vector<std::uint8_t>& dense) {
  std::vector<std::uint8_t> raw(dt.extent() * elems, 0xee);
  if (elems > 0) dt.unpack(dense.data(), raw.data(), static_cast<int>(elems));
  return raw;
}

std::vector<std::uint8_t> poison_raw(const Datatype& dt, std::size_t elems) {
  return std::vector<std::uint8_t>(dt.extent() * elems, 0xee);
}

/// Run one typed collective on one engine and collect each rank's raw
/// (strided, poison-gapped) output buffer.
CaseResult run_typed_case(Engine eng, CollOp what, int ranks, int count,
                          DtShape shape, ReduceOp op, int root,
                          std::uint32_t case_seed,
                          const UniverseConfig* base = nullptr) {
  UniverseConfig c = base != nullptr ? *base : diff_cfg(ranks, suite_of(eng));
  c.world_size = ranks;
  c.suite = suite_of(eng);

  const auto n = static_cast<std::size_t>(ranks);
  CaseResult res;
  res.out.assign(n, {});
  Universe::launch(c, [&](Comm& world) {
    const Datatype dt = shape_type(shape);
    const int r = world.rank();
    const bool red = what == CollOp::kReduce || what == CollOp::kAllreduce;
    const auto cnt = static_cast<std::size_t>(count);
    // The dense equivalent of `elems` typed elements, from the same
    // generators the byte oracle uses.
    auto dense_in = [&](int rank_, std::size_t elems) {
      return red ? typed_input(case_seed, rank_, dt.size() / 4 * elems,
                               BasicKind::kInt)
                 : byte_input(case_seed, rank_, dt.size() * elems);
    };
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    switch (what) {
      case CollOp::kBcast: {
        out = r == root ? raw_from_dense(dt, cnt, dense_in(root, cnt))
                        : poison_raw(dt, cnt);
        if (is_nbc(eng)) {
          world.ibcast(out.data(), count, dt, root).wait();
        } else {
          world.bcast(out.data(), count, dt, root);
        }
        break;
      }
      case CollOp::kReduce:
      case CollOp::kAllreduce: {
        in = raw_from_dense(dt, cnt, dense_in(r, cnt));
        out = poison_raw(dt, cnt);
        if (what == CollOp::kReduce) {
          if (is_nbc(eng)) {
            world.ireduce(in.data(), out.data(), count, dt, op, root).wait();
          } else {
            world.reduce(in.data(), out.data(), count, dt, op, root);
          }
          // Only the root's buffer is defined after a reduce.
          if (r != root) out = poison_raw(dt, cnt);
        } else {
          if (is_nbc(eng)) {
            world.iallreduce(in.data(), out.data(), count, dt, op).wait();
          } else {
            world.allreduce(in.data(), out.data(), count, dt, op);
          }
        }
        break;
      }
      case CollOp::kGather: {
        in = raw_from_dense(dt, cnt, dense_in(r, cnt));
        out = r == root ? poison_raw(dt, cnt * n) : std::vector<std::uint8_t>{};
        if (is_nbc(eng)) {
          world.igather(in.data(), count, dt, out.data(), root).wait();
        } else {
          world.gather(in.data(), count, dt, out.data(), root);
        }
        break;
      }
      case CollOp::kScatter: {
        in = r == root ? raw_from_dense(dt, cnt * n, dense_in(root, cnt * n))
                       : std::vector<std::uint8_t>{};
        out = poison_raw(dt, cnt);
        if (is_nbc(eng)) {
          world.iscatter(in.data(), count, dt, out.data(), root).wait();
        } else {
          world.scatter(in.data(), count, dt, out.data(), root);
        }
        break;
      }
      case CollOp::kAllgather: {
        in = raw_from_dense(dt, cnt, dense_in(r, cnt));
        out = poison_raw(dt, cnt * n);
        if (is_nbc(eng)) {
          world.iallgather(in.data(), count, dt, out.data()).wait();
        } else {
          world.allgather(in.data(), count, dt, out.data());
        }
        break;
      }
      case CollOp::kAlltoall: {
        in = raw_from_dense(dt, cnt * n, dense_in(r, cnt * n));
        out = poison_raw(dt, cnt * n);
        if (is_nbc(eng)) {
          world.ialltoall(in.data(), count, dt, out.data()).wait();
        } else {
          world.alltoall(in.data(), count, dt, out.data());
        }
        break;
      }
    }
    res.out[static_cast<std::size_t>(r)] = out;
  });
  return res;
}

/// Typed oracle: the dense oracle above, scattered into poisoned raw
/// buffers exactly as the typed surface is contracted to do.
CaseResult oracle_typed_case(CollOp what, int ranks, int count, DtShape shape,
                             ReduceOp op, int root, std::uint32_t case_seed) {
  const Datatype dt = shape_type(shape);
  const auto n = static_cast<std::size_t>(ranks);
  const auto cnt = static_cast<std::size_t>(count);
  const bool red = what == CollOp::kReduce || what == CollOp::kAllreduce;
  // Dense block size in the byte oracle's units: int elements for the
  // reductions, bytes for the data movers.
  const std::size_t size = red ? dt.size() / 4 * cnt : dt.size() * cnt;
  const CaseResult dense =
      oracle_case(what, ranks, size, BasicKind::kInt, op, root, case_seed);

  CaseResult res;
  res.out.assign(n, {});
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t elems = cnt;
    if (what == CollOp::kGather) {
      elems = static_cast<int>(r) == root ? cnt * n : 0;
    } else if (what == CollOp::kAllgather || what == CollOp::kAlltoall) {
      elems = cnt * n;
    }
    if (elems == 0 || dense.out[r].empty()) {
      res.out[r] = elems == 0 ? std::vector<std::uint8_t>{}
                              : poison_raw(dt, elems);
      continue;
    }
    res.out[r] = raw_from_dense(dt, elems, dense.out[r]);
  }
  return res;
}

void expect_typed_case_matches_oracle(CollOp what, int ranks, int count,
                                      DtShape shape, ReduceOp op, int root,
                                      std::uint32_t case_seed,
                                      const UniverseConfig* base = nullptr) {
  const CaseResult want =
      oracle_typed_case(what, ranks, count, shape, op, root, case_seed);
  for (const Engine eng : kEngines) {
    const CaseResult got = run_typed_case(eng, what, ranks, count, shape, op,
                                          root, case_seed, base);
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(got.out[static_cast<std::size_t>(r)],
                want.out[static_cast<std::size_t>(r)])
          << case_label(what, eng, ranks, static_cast<std::size_t>(count),
                        root)
          << " shape=" << shape_name(shape) << " rank=" << r;
    }
  }
}

// --- Seeded random sweep ---------------------------------------------------

TEST(CollDiffTest, RandomByteCollectivesMatchOracle) {
  std::mt19937 rng(20260807u);
  // Non-powers-of-two on purpose; 1 exercises the single-rank schedules.
  const int sizes[] = {1, 2, 3, 4, 5, 7, 8};
  const std::size_t blocks[] = {1, 3, 17, 257, 1024};
  for (int i = 0; i < 40; ++i) {
    const CollOp what = kByteOps[rng() % std::size(kByteOps)];
    const int ranks = sizes[rng() % std::size(sizes)];
    const std::size_t block = blocks[rng() % std::size(blocks)];
    const int root = static_cast<int>(rng() % static_cast<unsigned>(ranks));
    expect_case_matches_oracle(what, ranks, block, BasicKind::kByte,
                               ReduceOp::kSum, root, rng());
  }
}

TEST(CollDiffTest, RandomReductionsMatchOracleBitForBit) {
  std::mt19937 rng(777001u);
  const int sizes[] = {1, 2, 3, 5, 6, 8};
  const std::size_t counts[] = {1, 2, 33, 500};
  for (int i = 0; i < 30; ++i) {
    const CollOp what = (rng() & 1) != 0 ? CollOp::kReduce
                                         : CollOp::kAllreduce;
    const ReduceCase rc = kReduceCases[rng() % std::size(kReduceCases)];
    const int ranks = sizes[rng() % std::size(sizes)];
    const std::size_t count = counts[rng() % std::size(counts)];
    const int root = static_cast<int>(rng() % static_cast<unsigned>(ranks));
    expect_case_matches_oracle(what, ranks, count, rc.kind, rc.op, root,
                               rng());
  }
}

TEST(CollDiffTest, ZeroSizePayloadsCompleteOnEveryEngine) {
  for (const CollOp what :
       {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce, CollOp::kGather,
        CollOp::kScatter, CollOp::kAllgather, CollOp::kAlltoall}) {
    expect_case_matches_oracle(what, 3, 0, BasicKind::kInt, ReduceOp::kSum,
                               1, 42u);
  }
}

TEST(CollDiffTest, LargePayloadsCrossTheRendezvousThreshold) {
  // 64 KiB blocks with the default 16 KiB eager limit: every engine's
  // schedule must survive rendezvous sends parking unexpectedly.
  expect_case_matches_oracle(CollOp::kBcast, 5, 64 * 1024, BasicKind::kByte,
                             ReduceOp::kSum, 2, 99u);
  expect_case_matches_oracle(CollOp::kAllreduce, 4, 16 * 1024,
                             BasicKind::kInt, ReduceOp::kSum, 0, 98u);
  expect_case_matches_oracle(CollOp::kAlltoall, 3, 40 * 1024,
                             BasicKind::kByte, ReduceOp::kSum, 0, 97u);
}

TEST(CollDiffTest, TopologySweepAllEnginesMatchOracle) {
  // Every engine, with the hier suite as the protagonist, across the node
  // decompositions it specialises on: single node (ppn=0, pure intra),
  // one rank per node (pure inter: the hierarchy degenerates to the
  // leader team), and uneven multi-node splits (1..4 nodes, including a
  // last node with fewer ranks). Ranks include non-powers-of-two.
  std::mt19937 rng(60313u);
  const struct {
    int ranks;
    int ppn;  // FabricConfig::ranks_per_node; 0 = everyone on one node
  } topos[] = {
      {1, 0}, {2, 0}, {5, 0},          // single node
      {2, 1}, {5, 1},                  // one rank per node
      {4, 2}, {6, 2}, {7, 2}, {8, 2},  // 2..4 nodes, last node uneven
      {5, 3}, {8, 3},
  };
  const CollOp ops[] = {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                        CollOp::kGather};
  for (const auto& t : topos) {
    UniverseConfig c;
    c.world_size = t.ranks;
    c.fabric.ranks_per_node = t.ppn;
    c.obs = obs::ObsConfig{};
    for (const CollOp what : ops) {
      const int root =
          static_cast<int>(rng() % static_cast<unsigned>(t.ranks));
      const bool typed =
          what == CollOp::kReduce || what == CollOp::kAllreduce;
      expect_case_matches_oracle(what, t.ranks, typed ? 65 : 129,
                                 BasicKind::kInt, ReduceOp::kSum, root,
                                 rng(), &c);
    }
  }
}

TEST(CollDiffTest, NonLeaderRootsAcrossTopologies) {
  // Rooted hier collectives special-case three root placements: root is
  // a node leader, root is a non-leader member, root shares or does not
  // share a node with other ranks. Pin each explicitly.
  UniverseConfig c;
  c.world_size = 6;
  c.fabric.ranks_per_node = 3;  // nodes {0,1,2} {3,4,5}; leaders 0 and 3
  c.obs = obs::ObsConfig{};
  for (const int root : {0, 1, 3, 5}) {
    expect_case_matches_oracle(CollOp::kBcast, 6, 257, BasicKind::kByte,
                               ReduceOp::kSum, root, 808u + root, &c);
    expect_case_matches_oracle(CollOp::kReduce, 6, 33, BasicKind::kLong,
                               ReduceOp::kSum, root, 909u + root, &c);
    expect_case_matches_oracle(CollOp::kGather, 6, 65, BasicKind::kByte,
                               ReduceOp::kSum, root, 1010u + root, &c);
  }
}

TEST(CollDiffTest, RendezvousPayloadsAcrossNodesOnEveryEngine) {
  // 64 KiB blocks over a 2-node topology with the default 16 KiB eager
  // limit: the hier inter-node leg and the single-copy intra leg must
  // both survive rendezvous parking.
  UniverseConfig c;
  c.world_size = 6;
  c.fabric.ranks_per_node = 3;
  c.obs = obs::ObsConfig{};
  expect_case_matches_oracle(CollOp::kBcast, 6, 64 * 1024, BasicKind::kByte,
                             ReduceOp::kSum, 4, 303u, &c);
  expect_case_matches_oracle(CollOp::kAllreduce, 6, 16 * 1024,
                             BasicKind::kInt, ReduceOp::kSum, 0, 304u, &c);
  expect_case_matches_oracle(CollOp::kGather, 6, 48 * 1024, BasicKind::kByte,
                             ReduceOp::kSum, 1, 305u, &c);
}

TEST(CollDiffTest, RandomCasesUnderFaultInjectionMatchOracle) {
  // The same differential contract with a seeded drop/jitter plan: the
  // reliable transport must make every engine's schedule exactly-once.
  std::mt19937 rng(5150u);
  for (int i = 0; i < 8; ++i) {
    const CollOp what = kByteOps[rng() % std::size(kByteOps)];
    const int ranks = 2 + static_cast<int>(rng() % 4u);  // 2..5
    const int root = static_cast<int>(rng() % static_cast<unsigned>(ranks));
    UniverseConfig c;
    c.world_size = ranks;
    c.fabric.ranks_per_node = 1;
    c.fabric.faults.seed = 1000u + static_cast<std::uint64_t>(i);
    c.fabric.faults.link_defaults.drop_prob = 0.04;
    c.fabric.faults.link_defaults.jitter_ns = 300;
    c.obs = obs::ObsConfig{};
    expect_case_matches_oracle(what, ranks, 513, BasicKind::kByte,
                               ReduceOp::kSum, root, rng(), &c);
  }
  // And one typed reduction under faults.
  UniverseConfig c;
  c.world_size = 4;
  c.fabric.ranks_per_node = 1;
  c.fabric.faults.seed = 31337u;
  c.fabric.faults.link_defaults.drop_prob = 0.05;
  c.fabric.faults.link_defaults.jitter_ns = 250;
  c.obs = obs::ObsConfig{};
  expect_case_matches_oracle(CollOp::kAllreduce, 4, 64, BasicKind::kInt,
                             ReduceOp::kSum, 0, 4242u, &c);
}

// --- Derived-datatype differential sweep -----------------------------------

TEST(CollDiffTest, DerivedDatatypeCollectivesMatchOracle) {
  // Every constructor family x every collective, non-power-of-two comm
  // sizes included, multi-element counts so the i*count*extent block
  // layout is exercised — across all four engines.
  std::mt19937 rng(314159u);
  const DtShape shapes[] = {DtShape::kVector, DtShape::kIndexed,
                            DtShape::kStruct};
  const int ranks_pool[] = {2, 3, 5};
  const int counts[] = {1, 2, 5};
  const CollOp ops[] = {CollOp::kBcast,     CollOp::kReduce,
                        CollOp::kAllreduce, CollOp::kGather,
                        CollOp::kScatter,   CollOp::kAllgather,
                        CollOp::kAlltoall};
  for (const DtShape shape : shapes) {
    for (const CollOp what : ops) {
      const int ranks = ranks_pool[rng() % std::size(ranks_pool)];
      const int count = counts[rng() % std::size(counts)];
      const int root = static_cast<int>(rng() % static_cast<unsigned>(ranks));
      const ReduceOp op = (rng() & 1) != 0 ? ReduceOp::kSum : ReduceOp::kMax;
      expect_typed_case_matches_oracle(what, ranks, count, shape, op, root,
                                       rng());
    }
  }
}

TEST(CollDiffTest, DerivedDatatypeZeroCountCompletesOnEveryEngine) {
  for (const CollOp what :
       {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce, CollOp::kGather,
        CollOp::kScatter, CollOp::kAllgather, CollOp::kAlltoall}) {
    expect_typed_case_matches_oracle(what, 3, 0, DtShape::kVector,
                                     ReduceOp::kSum, 1, 271u);
  }
}

TEST(CollDiffTest, DerivedDatatypeRendezvousSizedPayloads) {
  // 1500 vector elements = 24000 payload bytes per block, past the
  // 16 KiB eager limit: the typed pack shim must compose with the
  // rendezvous protocol on every engine.
  expect_typed_case_matches_oracle(CollOp::kBcast, 3, 1500, DtShape::kVector,
                                   ReduceOp::kSum, 2, 611u);
  expect_typed_case_matches_oracle(CollOp::kAllreduce, 4, 1500,
                                   DtShape::kVector, ReduceOp::kSum, 0, 612u);
  // And across a 2-node hier topology.
  UniverseConfig c;
  c.world_size = 6;
  c.fabric.ranks_per_node = 3;
  c.obs = obs::ObsConfig{};
  expect_typed_case_matches_oracle(CollOp::kBcast, 6, 1500, DtShape::kVector,
                                   ReduceOp::kSum, 4, 613u, &c);
}

TEST(CollDiffTest, DerivedDatatypeUnderFaultInjectionMatchesOracle) {
  // The typed surface with a seeded drop/jitter plan: the reliable
  // transport must keep the strided payloads exactly-once too.
  for (int i = 0; i < 3; ++i) {
    UniverseConfig c;
    c.world_size = 4;
    c.fabric.ranks_per_node = 1;
    c.fabric.faults.seed = 2000u + static_cast<std::uint64_t>(i);
    c.fabric.faults.link_defaults.drop_prob = 0.04;
    c.fabric.faults.link_defaults.jitter_ns = 300;
    c.obs = obs::ObsConfig{};
    const CollOp what = i == 0   ? CollOp::kAllreduce
                        : i == 1 ? CollOp::kAlltoall
                                 : CollOp::kBcast;
    expect_typed_case_matches_oracle(what, 4, 3, DtShape::kIndexed,
                                     ReduceOp::kSum, 1,
                                     7000u + static_cast<std::uint32_t>(i),
                                     &c);
  }
}

// --- Nonblocking-specific contracts ---------------------------------------

TEST(CollDiffTest, NbcOverlapsComputeAndTestPolls) {
  UniverseConfig c = diff_cfg(4, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    const int r = world.rank();
    std::vector<std::int64_t> in(256, r + 1);
    std::vector<std::int64_t> out(256, 0);
    Request req = world.iallreduce(in.data(), out.data(), in.size(),
                                   BasicKind::kLong, ReduceOp::kSum);
    // Genuine compute between post and wait; then drain via test().
    volatile std::int64_t sink = 0;
    for (int i = 0; i < 50000; ++i) sink = sink + i;
    while (!req.test()) {
    }
    const std::int64_t want = 1 + 2 + 3 + 4;
    for (const std::int64_t v : out) EXPECT_EQ(v, want);
    EXPECT_FALSE(req.valid()) << "test() success must null the request";
  });
}

TEST(CollDiffTest, NbcLocalStepsAreChargedOnceUnderTheRealClock) {
  // A schedule's copies and reductions are rank CPU like any other: the
  // virtual clock must fold them in exactly once. 4 Mi doubles make the
  // local steps a large share of the call; a near-infinite link bandwidth
  // takes the modelled rendezvous serialization out of the picture, and a
  // raised recursive-doubling threshold keeps the one-exchange shape.
  // Whichever rank matches a rendezvous does its payload copy, so one
  // rank can wait out the other's copies: the bound is on the virtual
  // time of both ranks against the CPU both spent.
  UniverseConfig c = diff_cfg(2, CollectiveSuite::kMv2);
  c.fabric.inter_bandwidth_mbps = 1e9;
  c.allreduce_rd_max = std::size_t{64} << 20;
  std::int64_t vt[2] = {0, 0};
  std::int64_t cpu[2] = {0, 0};
  Universe::launch(c, [&](Comm& world) {
    const std::size_t count = std::size_t{4} << 20;
    std::vector<double> in(count, world.rank() + 1.0);
    std::vector<double> out(count, 0.0);
    // A warm-up call first, so the measured one reuses warm heap pages.
    world.iallreduce(in.data(), out.data(), count, BasicKind::kDouble,
                     ReduceOp::kSum)
        .wait();
    world.barrier();
    const std::int64_t v0 = world.vtime_ns();
    const std::int64_t c0 = thread_cpu_ns();
    world.iallreduce(in.data(), out.data(), count, BasicKind::kDouble,
                     ReduceOp::kSum)
        .wait();
    const std::int64_t v1 = world.vtime_ns();
    cpu[world.rank()] = thread_cpu_ns() - c0;
    vt[world.rank()] = v1 - v0;
    EXPECT_EQ(out[count - 1], 3.0);
  });
  EXPECT_LE(static_cast<double>(vt[0] + vt[1]),
            1.3 * static_cast<double>(cpu[0] + cpu[1]))
      << "vtime advanced " << vt[0] << " / " << vt[1]
      << " ns over thread CPU " << cpu[0] << " / " << cpu[1] << " ns";
}

TEST(CollDiffTest, ConcurrentNbcOpsOnOneCommCompleteOutOfOrder) {
  // Two collectives in flight at once, waited in the "wrong" order on
  // half the ranks: the progress engine must drive both.
  UniverseConfig c = diff_cfg(4, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    const int r = world.rank();
    std::int32_t a_in = r, a_out = -1;
    std::vector<std::uint8_t> b(512);
    if (r == 2) b = std::vector<std::uint8_t>(512, 0xab);
    Request a = world.iallreduce(&a_in, &a_out, 1, BasicKind::kInt,
                                 ReduceOp::kSum);
    Request bc = world.ibcast(b.data(), b.size(), 2);
    if (r % 2 == 0) {
      a.wait();
      bc.wait();
    } else {
      bc.wait();
      a.wait();
    }
    EXPECT_EQ(a_out, 0 + 1 + 2 + 3);
    EXPECT_EQ(b, std::vector<std::uint8_t>(512, 0xab));
  });
}

TEST(CollDiffTest, WaitAllOverMixedP2pAndCollectiveRequests) {
  UniverseConfig c = diff_cfg(3, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    const int r = world.rank();
    const int n = world.size();
    std::int32_t ring_in = -1;
    const std::int32_t ring_out = 100 + r;
    std::int64_t red_in = r + 1, red_out = 0;
    Request reqs[3];
    reqs[0] = world.irecv(&ring_in, sizeof(ring_in), (r + n - 1) % n, 5);
    reqs[1] = world.iallreduce(&red_in, &red_out, 1, BasicKind::kLong,
                               ReduceOp::kSum);
    reqs[2] = world.isend(&ring_out, sizeof(ring_out), (r + 1) % n, 5);
    Request::wait_all(reqs);
    EXPECT_EQ(ring_in, 100 + (r + n - 1) % n);
    EXPECT_EQ(red_out, 1 + 2 + 3);
    for (Request& q : reqs) EXPECT_FALSE(q.valid());
  });
}

TEST(CollDiffTest, IbarrierSynchronizes) {
  UniverseConfig c = diff_cfg(5, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    // An ibarrier between the two phases: no rank may observe phase-2
    // traffic before every rank entered the barrier. Completion +
    // correctness of the dissemination schedule is what we check here.
    for (int iter = 0; iter < 10; ++iter) {
      Request b = world.ibarrier();
      b.wait();
      EXPECT_FALSE(b.valid());
    }
  });
}

TEST(CollDiffTest, NbcOnDupAndSplitCommunicators) {
  // The per-context tag counters must keep schedules on different
  // communicators from cross-matching.
  UniverseConfig c = diff_cfg(4, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    Comm dup = world.dup();
    Comm half = world.split(world.rank() % 2, world.rank());
    std::int32_t in = world.rank() + 1, out_w = 0, out_h = 0;
    Request rw = dup.iallreduce(&in, &out_w, 1, BasicKind::kInt,
                                ReduceOp::kSum);
    Request rh = half.iallreduce(&in, &out_h, 1, BasicKind::kInt,
                                 ReduceOp::kSum);
    rh.wait();
    rw.wait();
    EXPECT_EQ(out_w, 1 + 2 + 3 + 4);
    // Ranks {0,2} -> colors 0 sums 1+3; ranks {1,3} -> color 1 sums 2+4.
    EXPECT_EQ(out_h, world.rank() % 2 == 0 ? 1 + 3 : 2 + 4);
  });
}

// --- Deterministic-clock golden --------------------------------------------
//
// Every blocking algorithm of basic, mv2 and hier, plus the nonblocking
// engine on mv2, runs under the deterministic clock at 1..8 ranks and at
// sizes on both sides of every mv2 threshold and of the 16 KiB eager
// limit. Topologies are those where each directed inter-node link has a
// single sender, so link contention cannot depend on thread timing: one
// node, one rank per node, and (hier's own collectives only) two ranks
// per node, where only the node leaders cross nodes. A row records each
// rank's final vtime_ns with observability off and its coll.* pvar counts
// with observability on. The committed table pins both byte for byte;
// every run also writes the table it produced to coll_golden.actual.txt
// in the working directory, so an intended change is a reviewed diff of
// the two files.

enum class GoldenOp {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kReduceScatter,
  kScan,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kGatherv,
  kScatterv,
  kAllgatherv,
  kAlltoallv,
};

constexpr GoldenOp kGoldenOps[] = {
    GoldenOp::kBarrier,   GoldenOp::kBcast,     GoldenOp::kReduce,
    GoldenOp::kAllreduce, GoldenOp::kReduceScatter, GoldenOp::kScan,
    GoldenOp::kGather,    GoldenOp::kScatter,   GoldenOp::kAllgather,
    GoldenOp::kAlltoall,  GoldenOp::kGatherv,   GoldenOp::kScatterv,
    GoldenOp::kAllgatherv, GoldenOp::kAlltoallv,
};

const char* golden_op_name(GoldenOp op, bool nbc) {
  constexpr const char* kNames[] = {
      "barrier",   "bcast",   "reduce",    "allreduce", "reduce_scatter",
      "scan",      "gather",  "scatter",   "allgather", "alltoall",
      "gatherv",   "scatterv", "allgatherv", "alltoallv"};
  constexpr const char* kNbcNames[] = {
      "ibarrier", "ibcast",  "ireduce",    "iallreduce", "",
      "",         "igather", "iscatter",   "iallgather", "ialltoall"};
  const auto i = static_cast<std::size_t>(op);
  return nbc ? kNbcNames[i] : kNames[i];
}

/// Operations with a nonblocking form.
bool golden_has_nbc(GoldenOp op) {
  return op != GoldenOp::kReduceScatter && op != GoldenOp::kScan &&
         op < GoldenOp::kGatherv;
}

/// Operations hier runs itself (the rest fall back to mv2's algorithms,
/// which cross nodes from every rank).
bool golden_hier_own(GoldenOp op) {
  return op == GoldenOp::kBarrier || op == GoldenOp::kBcast ||
         op == GoldenOp::kReduce || op == GoldenOp::kAllreduce ||
         op == GoldenOp::kGather;
}

/// Thresholds of the nonblocking rows: a quarter of the defaults, so both
/// sides of each fit under the eager limit. A round that posts several
/// rendezvous sends at once is timed by whichever receiver posts first,
/// so nonblocking fan-outs (ibcast, iscatter) stay eager here.
constexpr std::size_t kNbcBcastMax = 4096;
constexpr std::size_t kNbcAllreduceMax = 4096;
constexpr std::size_t kNbcAllgatherMax = 8192;

/// Sizes of one op on an n-rank comm, in the op's own unit: bytes (bcast),
/// bytes per rank (gather, scatter, allgather, alltoall), doubles (the
/// reductions) or a block-size pattern (the vectored ops).
std::vector<std::size_t> golden_sizes(GoldenOp op, int n, bool nbc) {
  if (nbc) {
    switch (op) {
      case GoldenOp::kBcast:
        return {8, kNbcBcastMax, kNbcBcastMax + 1};
      case GoldenOp::kAllreduce:
        return {1, kNbcAllreduceMax / 8, kNbcAllreduceMax / 8 + 1, 20000};
      case GoldenOp::kScatter:
        return {1, 2048};
      case GoldenOp::kAllgather: {
        const std::size_t rd = kNbcAllgatherMax / static_cast<std::size_t>(n);
        return {1, rd, rd + 1, 16385};
      }
      default:
        break;
    }
  }
  switch (op) {
    case GoldenOp::kBarrier:
      return {0};
    case GoldenOp::kBcast:
      // bcast_binomial_max = eager limit = 16 KiB; 140000 B puts
      // scatter-ring chunks past the eager limit on 8 ranks.
      return {8, 16384, 16385, 140000};
    case GoldenOp::kReduce:
      return {1, 2048, 2049};
    case GoldenOp::kAllreduce:
      // allreduce_rd_max = 2048 doubles; 20000 doubles puts ring chunks
      // past the eager limit.
      return {1, 2048, 2049, 20000};
    case GoldenOp::kReduceScatter:
    case GoldenOp::kScan:
      return {1, 2049};
    case GoldenOp::kGather:
    case GoldenOp::kScatter:
      return {1, 2048, 16385};
    case GoldenOp::kAllgather: {
      // allgather_rd_max = 32 KiB across the whole comm.
      const std::size_t rd = 32768 / static_cast<std::size_t>(n);
      std::vector<std::size_t> v{1, rd, rd + 1};
      if (rd + 1 != 16385) v.push_back(16385);
      return v;
    }
    case GoldenOp::kAlltoall:
      return {1, 16385};
    default:
      return {0, 1};  // small blocks; blocks straddling the eager limit
  }
}

/// Bytes rank `from` sends to rank `to` in a vectored golden row.
std::size_t golden_vcount(std::size_t pattern, int from, int to) {
  return (pattern == 0 ? 1 : 16380) +
         static_cast<std::size_t>((3 * from + 5 * to) % 7);
}

/// Counts and gapped displacements of a vectored layout.
struct VLayout {
  std::vector<std::size_t> counts, displs;
  std::size_t span = 0;
};

template <typename CountOf>
VLayout golden_layout(int n, CountOf count_of) {
  VLayout l;
  for (int r = 0; r < n; ++r) {
    l.counts.push_back(count_of(r));
    l.displs.push_back(l.span + 3);
    l.span += l.counts.back() + 3;
  }
  return l;
}

void run_golden_op(Comm& w, GoldenOp op, bool nbc, std::size_t size) {
  const int n = w.size();
  const int me = w.rank();
  const int root = n / 2;
  const auto un = static_cast<std::size_t>(n);
  const bool red = op == GoldenOp::kReduce || op == GoldenOp::kAllreduce ||
                   op == GoldenOp::kReduceScatter || op == GoldenOp::kScan;
  const std::size_t per_rank = op == GoldenOp::kBcast ? 1 : un;
  std::vector<double> din(red ? size * un : 0, me + 1.0);
  std::vector<double> dout(din.size());
  std::vector<std::uint8_t> in(red ? 0 : size * per_rank,
                               static_cast<std::uint8_t>(me));
  std::vector<std::uint8_t> out(in.size());
  switch (op) {
    case GoldenOp::kBarrier:
      nbc ? w.ibarrier().wait() : w.barrier();
      break;
    case GoldenOp::kBcast:
      nbc ? w.ibcast(out.data(), size, root).wait()
          : w.bcast(out.data(), size, root);
      break;
    case GoldenOp::kReduce:
      nbc ? w.ireduce(din.data(), dout.data(), size, BasicKind::kDouble,
                      ReduceOp::kSum, root)
                .wait()
          : w.reduce(din.data(), dout.data(), size, BasicKind::kDouble,
                     ReduceOp::kSum, root);
      break;
    case GoldenOp::kAllreduce:
      nbc ? w.iallreduce(din.data(), dout.data(), size, BasicKind::kDouble,
                         ReduceOp::kSum)
                .wait()
          : w.allreduce(din.data(), dout.data(), size, BasicKind::kDouble,
                        ReduceOp::kSum);
      break;
    case GoldenOp::kReduceScatter:
      w.reduce_scatter_block(din.data(), dout.data(), size,
                             BasicKind::kDouble, ReduceOp::kSum);
      break;
    case GoldenOp::kScan:
      w.scan(din.data(), dout.data(), size, BasicKind::kDouble,
             ReduceOp::kSum);
      break;
    case GoldenOp::kGather:
      nbc ? w.igather(in.data(), size, out.data(), root).wait()
          : w.gather(in.data(), size, out.data(), root);
      break;
    case GoldenOp::kScatter:
      nbc ? w.iscatter(in.data(), size, out.data(), root).wait()
          : w.scatter(in.data(), size, out.data(), root);
      break;
    case GoldenOp::kAllgather:
      nbc ? w.iallgather(in.data(), size, out.data()).wait()
          : w.allgather(in.data(), size, out.data());
      break;
    case GoldenOp::kAlltoall:
      nbc ? w.ialltoall(in.data(), size, out.data()).wait()
          : w.alltoall(in.data(), size, out.data());
      break;
    case GoldenOp::kGatherv: {
      const VLayout l = golden_layout(
          n, [&](int r) { return golden_vcount(size, r, root); });
      std::vector<std::uint8_t> s(l.counts[static_cast<std::size_t>(me)]);
      std::vector<std::uint8_t> r(l.span);
      w.gatherv(s.data(), s.size(), r.data(), l.counts, l.displs, root);
      break;
    }
    case GoldenOp::kScatterv: {
      const VLayout l = golden_layout(
          n, [&](int r) { return golden_vcount(size, root, r); });
      std::vector<std::uint8_t> s(l.span);
      std::vector<std::uint8_t> r(l.counts[static_cast<std::size_t>(me)]);
      w.scatterv(s.data(), l.counts, l.displs, r.data(), r.size(), root);
      break;
    }
    case GoldenOp::kAllgatherv: {
      const VLayout l =
          golden_layout(n, [&](int r) { return golden_vcount(size, r, 0); });
      std::vector<std::uint8_t> s(l.counts[static_cast<std::size_t>(me)]);
      std::vector<std::uint8_t> r(l.span);
      w.allgatherv(s.data(), s.size(), r.data(), l.counts, l.displs);
      break;
    }
    case GoldenOp::kAlltoallv: {
      const VLayout sl = golden_layout(
          n, [&](int r) { return golden_vcount(size, me, r); });
      const VLayout rl = golden_layout(
          n, [&](int r) { return golden_vcount(size, r, me); });
      std::vector<std::uint8_t> s(sl.span);
      std::vector<std::uint8_t> r(rl.span);
      w.alltoallv(s.data(), sl.counts, sl.displs, r.data(), rl.counts,
                  rl.displs);
      break;
    }
  }
}

/// "<engine> <op> n=<ranks> ppn=<ppn> size=<size> vt=<per rank> <pvar>=
/// <per rank>...", listing every coll.* pvar some rank moved.
std::vector<std::string> golden_table() {
  struct Eng {
    const char* name;
    CollectiveSuite suite;
    bool nbc;
  };
  const Eng engines[] = {{"basic", CollectiveSuite::kOmpiBasic, false},
                         {"mv2", CollectiveSuite::kMv2, false},
                         {"hier", CollectiveSuite::kHier, false},
                         {"nbc", CollectiveSuite::kMv2, true}};
  std::vector<std::string> rows;
  for (const Eng& eng : engines) {
    for (int n = 1; n <= 8; ++n) {
      for (const int ppn : {0, 1, 2}) {
        const bool hier = eng.suite == CollectiveSuite::kHier;
        if ((ppn == 2 && !hier) || (n == 1 && ppn != 0)) continue;
        UniverseConfig cfg;
        cfg.world_size = n;
        cfg.suite = eng.suite;
        cfg.fabric.ranks_per_node = ppn;
        cfg.deterministic_clock = true;
        cfg.obs = obs::ObsConfig{};
        if (eng.nbc) {
          cfg.bcast_binomial_max = kNbcBcastMax;
          cfg.allreduce_rd_max = kNbcAllreduceMax;
          cfg.allgather_rd_max = kNbcAllgatherMax;
        }
        Universe off(cfg);
        cfg.obs.pvars = true;
        cfg.obs.quiet = true;
        Universe on(cfg);
        for (const GoldenOp op : kGoldenOps) {
          if (eng.nbc && !golden_has_nbc(op)) continue;
          if (ppn == 2 && !golden_hier_own(op)) continue;
          for (const std::size_t size : golden_sizes(op, n, eng.nbc)) {
            std::vector<std::int64_t> vt(static_cast<std::size_t>(n));
            off.run([&](Comm& w) {
              run_golden_op(w, op, eng.nbc, size);
              vt[static_cast<std::size_t>(w.rank())] = w.vtime_ns();
            });
            const obs::PvarRegistry* reg = nullptr;
            on.run([&](Comm& w) {
              run_golden_op(w, op, eng.nbc, size);
              if (w.rank() == 0) reg = w.pvars();
            });
            std::string row = std::string(eng.name) + " " +
                              golden_op_name(op, eng.nbc) +
                              " n=" + std::to_string(n) +
                              " ppn=" + std::to_string(ppn) +
                              " size=" + std::to_string(size) + " vt=";
            for (int r = 0; r < n; ++r) {
              row += (r == 0 ? "" : ",") +
                     std::to_string(vt[static_cast<std::size_t>(r)]);
            }
            for (const auto& p : reg->snapshot()) {
              if (p.name.rfind("coll.", 0) != 0 || p.total == 0) continue;
              row += " " + p.name + "=";
              for (int r = 0; r < n; ++r) {
                row += (r == 0 ? "" : ",") +
                       std::to_string(p.values[static_cast<std::size_t>(r)]);
              }
            }
            rows.push_back(std::move(row));
          }
        }
      }
    }
  }
  return rows;
}

TEST(CollGoldenTest, DetClockVtimeAndCollPvarsMatchTable) {
  const std::vector<std::string> got = golden_table();
  {
    std::ofstream actual("coll_golden.actual.txt");
    for (const std::string& row : got) actual << row << '\n';
  }
  // Rows are keyed by everything before " vt=".
  auto key_of = [](const std::string& row) {
    return row.substr(0, row.find(" vt="));
  };
  std::map<std::string, std::string> want;
  std::ifstream table(JHPC_COLL_GOLDEN_TABLE);
  ASSERT_TRUE(table.good()) << "missing " << JHPC_COLL_GOLDEN_TABLE;
  for (std::string line; std::getline(table, line);) {
    if (!line.empty()) want[key_of(line)] = line;
  }
  int mismatches = 0;
  for (const std::string& row : got) {
    const auto it = want.find(key_of(row));
    if (it != want.end() && it->second == row) {
      want.erase(it);
      continue;
    }
    if (++mismatches <= 20) {
      ADD_FAILURE() << "golden row differs\n  want: "
                    << (it == want.end() ? "(none)" : it->second)
                    << "\n  got:  " << row;
    }
    if (it != want.end()) want.erase(it);
  }
  EXPECT_EQ(mismatches, 0) << "rows differing from " << JHPC_COLL_GOLDEN_TABLE
                           << " (see coll_golden.actual.txt)";
  EXPECT_TRUE(want.empty()) << want.size() << " table rows were not produced";
}

// --- User-tag reservation regression ---------------------------------------

TEST(TagReservationTest, MaxUserTagStillWorks) {
  UniverseConfig c = diff_cfg(2, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    char t = 'x';
    if (world.rank() == 0) {
      world.send(&t, 1, 1, kMaxUserTag);
    } else {
      Status st;
      world.recv(&t, 1, 0, kMaxUserTag, &st);
      EXPECT_EQ(st.tag, kMaxUserTag);
    }
  });
}

TEST(TagReservationTest, ReservedTagsThrowForUserTraffic) {
  UniverseConfig c = diff_cfg(2, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    char t = 'x';
    const int reserved = kMaxUserTag + 1;  // == kTagBase
    if (world.rank() == 0) {
      EXPECT_THROW(world.send(&t, 1, 1, reserved), Error);
      EXPECT_THROW(world.isend(&t, 1, 1, reserved), Error);
    } else {
      EXPECT_THROW(world.recv(&t, 1, 0, reserved), Error);
      EXPECT_THROW(world.irecv(&t, 1, 0, reserved), Error);
    }
    // Collectives still own the reserved space internally.
    world.barrier();
  });
}

TEST(TagReservationTest, WindowSyncTagsStayClearOfTheNbcBlock) {
  // Window w's sync tokens take kTagWinSync + 2w and kTagWinSync + 2w + 1,
  // open-ended upward, so the window block must start above every tag a
  // nonblocking-collective round can use; the fixed collective tags stay
  // below the NBC block.
  EXPECT_GE(detail::kTagWinSync, detail::kTagNbcBase + detail::kNbcTagSpan);
  EXPECT_LT(detail::kTagCommMgmt, detail::kTagNbcBase);
  EXPECT_LT(detail::kTagHierRootXfer, detail::kTagNbcBase);
}

TEST(TagReservationTest, NegativeTagStillRejected) {
  UniverseConfig c = diff_cfg(2, CollectiveSuite::kMv2);
  Universe::launch(c, [](Comm& world) {
    char t = 'x';
    if (world.rank() == 0) {
      EXPECT_THROW(world.send(&t, 1, 1, -3), Error);
    }
    world.barrier();
  });
}

}  // namespace
}  // namespace jhpc::minimpi
