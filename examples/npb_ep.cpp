// NPB EP (Embarrassingly Parallel) kernel on the MVAPICH2-J bindings.
//
// The paper cites NPB-MPJ — the NAS Parallel Benchmarks for Java MPI — as
// the canonical legacy workload of the mpiJava 1.2 / MPJ era. This is the
// EP kernel in that style: each rank generates its slice of a shared
// pseudorandom stream with NPB's linear congruential generator, accepts
// pairs inside the unit circle, bins the resulting Gaussian deviates into
// annuli, and the counts/sums are combined with Allreduce.
//
// Verification: the result must be EXACTLY independent of the rank count
// (the stream is deterministic and the decomposition must not change it),
// checked here against a sequential recomputation on rank 0.
//
//   ./npb_ep [ranks] [log2_pairs]
#include <array>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

namespace {

// NPB's 46-bit linear congruential generator: x_{k+1} = a*x_k mod 2^46.
constexpr double kR23 = 1.0 / 8388608.0;          // 2^-23
constexpr double kR46 = kR23 * kR23;              // 2^-46
constexpr double kT23 = 8388608.0;                // 2^23
constexpr double kT46 = kT23 * kT23;              // 2^46
constexpr double kA = 1220703125.0;               // 5^13
constexpr double kSeed = 271828183.0;

/// One LCG step: returns the uniform deviate in (0,1) and advances x.
double randlc(double* x, double a) {
  const double t1a = kR23 * a;
  const double a1 = static_cast<double>(static_cast<long long>(t1a));
  const double a2 = a - kT23 * a1;
  const double t1 = kR23 * *x;
  const double x1 = static_cast<double>(static_cast<long long>(t1));
  const double x2 = *x - kT23 * x1;
  const double t2 = a1 * x2 + a2 * x1;
  const double t3 = static_cast<double>(static_cast<long long>(kR23 * t2));
  const double z = t2 - kT23 * t3;
  const double t4 = kT23 * z + a2 * x2;
  const double t5 = static_cast<double>(static_cast<long long>(kR46 * t4));
  *x = t4 - kT46 * t5;
  return kR46 * *x;
}

/// a^n mod 2^46 via binary exponentiation over the same arithmetic
/// (randlc(&x, q) computes x = q*x mod 2^46, i.e. a multiply-mod).
double ipow46(double a, long long n) {
  double result = 1.0;
  double q = a;
  while (n > 0) {
    if (n & 1) (void)randlc(&result, q);  // result *= q (mod 2^46)
    (void)randlc(&q, q);                  // q *= q (mod 2^46)
    n >>= 1;
  }
  return result;
}

/// Seed after `steps` LCG steps: a^steps * seed mod 2^46 — the stream
/// jump that makes the block decomposition exact.
double seed_at(long long steps) {
  double s = kSeed;
  (void)randlc(&s, ipow46(kA, steps));
  return s;
}

struct EpResult {
  double sx = 0.0;
  double sy = 0.0;
  std::array<long long, 10> q{};  // annulus counts
  bool operator==(const EpResult& o) const {
    return sx == o.sx && sy == o.sy && q == o.q;
  }
};

/// Run EP over pair indices [first, last).
EpResult ep_range(long long first, long long last) {
  EpResult r;
  constexpr int kChunk = 1 << 12;  // pairs per seed re-derivation
  for (long long base = first; base < last; base += kChunk) {
    const long long end = std::min(base + kChunk, last);
    // Jump the stream to pair index `base` (2 deviates per pair).
    double x = seed_at(2 * base);
    for (long long i = base; i < end; ++i) {
      const double u1 = 2.0 * randlc(&x, kA) - 1.0;
      const double u2 = 2.0 * randlc(&x, kA) - 1.0;
      const double t = u1 * u1 + u2 * u2;
      if (t > 1.0) continue;
      const double f = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = u1 * f;
      const double gy = u2 * f;
      r.sx += gx;
      r.sy += gy;
      const auto bin = static_cast<std::size_t>(
          std::max(std::abs(gx), std::abs(gy)));
      if (bin < r.q.size()) ++r.q[bin];
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int log2_pairs = argc > 2 ? std::atoi(argv[2]) : 18;
  const long long pairs = 1ll << log2_pairs;

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int n = world.getSize();
    const int me = world.getRank();

    // Block decomposition of the pair index space.
    const long long first = pairs * me / n;
    const long long last = pairs * (me + 1) / n;
    const EpResult local = ep_range(first, last);

    // Combine: 2 doubles + 10 counts.
    auto sums = env.newArray<minijvm::jdouble>(2);
    auto gsums = env.newArray<minijvm::jdouble>(2);
    sums[0] = local.sx;
    sums[1] = local.sy;
    world.allReduce(sums, gsums, 2, mv2j::DOUBLE, mv2j::SUM);

    auto counts = env.newArray<minijvm::jlong>(10);
    auto gcounts = env.newArray<minijvm::jlong>(10);
    for (std::size_t i = 0; i < 10; ++i) counts[i] = local.q[i];
    world.allReduce(counts, gcounts, 10, mv2j::LONG, mv2j::SUM);

    if (me == 0) {
      long long accepted = 0;
      for (std::size_t i = 0; i < 10; ++i) accepted += gcounts[i];
      std::cout << std::setprecision(15) << "EP: 2^" << log2_pairs
                << " pairs on " << n << " ranks\n"
                << "  sx=" << gsums[0] << " sy=" << gsums[1]
                << " accepted=" << accepted << "\n";
      // Verification: decomposition independence.
      const EpResult seq = ep_range(0, pairs);
      long long seq_accepted = 0;
      for (long long c : seq.q) seq_accepted += c;
      const bool ok = std::abs(seq.sx - gsums[0]) < 1e-9 &&
                      std::abs(seq.sy - gsums[1]) < 1e-9 &&
                      seq_accepted == accepted;
      std::cout << (ok ? "EP verification: PASS\n"
                       : "EP verification: FAIL\n");
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
