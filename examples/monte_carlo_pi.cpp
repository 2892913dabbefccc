// Monte-Carlo estimation of pi — the classic first parallel program,
// written against the MVAPICH2-J bindings the way a Java HPC course would
// write it: per-rank sampling, then one allReduce of the hit counters.
//
//   ./monte_carlo_pi [ranks] [samples_per_rank]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const long long samples_per_rank =
      argc > 2 ? std::atoll(argv[2]) : 400'000;

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();

    // Deterministic per-rank stream: same answer on every run.
    std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^
                        static_cast<unsigned long long>(world.getRank()));
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    long long hits = 0;
    for (long long i = 0; i < samples_per_rank; ++i) {
      const double x = uniform(rng);
      const double y = uniform(rng);
      if (x * x + y * y <= 1.0) ++hits;
    }

    auto local = env.newArray<minijvm::jlong>(2);
    auto global = env.newArray<minijvm::jlong>(2);
    local[0] = hits;
    local[1] = samples_per_rank;
    world.allReduce(local, global, 2, mv2j::LONG, mv2j::SUM);

    if (world.getRank() == 0) {
      const double pi = 4.0 * static_cast<double>(global[0]) /
                        static_cast<double>(global[1]);
      std::cout << std::fixed << std::setprecision(6)
                << "pi ~= " << pi << "  (" << global[1] << " samples on "
                << world.getSize() << " ranks, error "
                << std::abs(pi - 3.141592653589793) << ")\n";
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
