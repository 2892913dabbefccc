// 1-D heat diffusion with halo exchange — the canonical stencil pattern
// of MPI courses, on the MVAPICH2-J bindings.
//
// The domain is split block-wise across ranks; every step each rank
// exchanges one boundary cell with each neighbour using NON-BLOCKING
// point-to-point on direct ByteBuffers (the path a performance-conscious
// Java code would choose), then applies the stencil and reports the
// residual with an allReduce every few hundred steps.
//
//   ./heat1d [ranks] [cells_per_rank] [steps]
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int cells = argc > 2 ? std::atoi(argv[2]) : 4096;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 1000;
  constexpr double kAlpha = 0.25;  // diffusion coefficient (stable)

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int rank = world.getRank();
    const int size = world.getSize();
    const int left = rank - 1;
    const int right = rank + 1;

    // Local field with two ghost cells; a hot spike in the middle of the
    // global domain.
    std::vector<double> u(static_cast<std::size_t>(cells) + 2, 0.0);
    std::vector<double> next = u;
    const long long global_mid =
        static_cast<long long>(cells) * size / 2;
    const long long my_first = static_cast<long long>(cells) * rank;
    if (global_mid >= my_first && global_mid < my_first + cells)
      u[static_cast<std::size_t>(global_mid - my_first) + 1] = 1000.0;

    // Halo buffers: one direct ByteBuffer per direction.
    auto send_left = env.newDirectBuffer(8);
    auto send_right = env.newDirectBuffer(8);
    auto recv_left = env.newDirectBuffer(8);
    auto recv_right = env.newDirectBuffer(8);

    constexpr int kHaloTag = 7;
    for (int step = 0; step < steps; ++step) {
      std::vector<mv2j::Request> reqs;
      if (left >= 0) {
        reqs.push_back(world.iRecv(recv_left, 8, mv2j::BYTE, left, kHaloTag));
        send_left.put_double(0, u[1]);
        reqs.push_back(world.iSend(send_left, 8, mv2j::BYTE, left, kHaloTag));
      }
      if (right < size) {
        reqs.push_back(
            world.iRecv(recv_right, 8, mv2j::BYTE, right, kHaloTag));
        send_right.put_double(0, u[static_cast<std::size_t>(cells)]);
        reqs.push_back(
            world.iSend(send_right, 8, mv2j::BYTE, right, kHaloTag));
      }
      mv2j::Request::waitAll(reqs);
      u[0] = left >= 0 ? recv_left.get_double(0) : u[1];
      u[static_cast<std::size_t>(cells) + 1] =
          right < size ? recv_right.get_double(0)
                       : u[static_cast<std::size_t>(cells)];

      for (int i = 1; i <= cells; ++i) {
        const auto j = static_cast<std::size_t>(i);
        next[j] = u[j] + kAlpha * (u[j - 1] - 2.0 * u[j] + u[j + 1]);
      }
      std::swap(u, next);

      if ((step + 1) % 250 == 0 || step + 1 == steps) {
        double local_heat = 0.0;
        for (int i = 1; i <= cells; ++i)
          local_heat += u[static_cast<std::size_t>(i)];
        auto mine = env.newArray<minijvm::jdouble>(1);
        auto total = env.newArray<minijvm::jdouble>(1);
        mine[0] = local_heat;
        world.allReduce(mine, total, 1, mv2j::DOUBLE, mv2j::SUM);
        if (rank == 0) {
          std::cout << "step " << std::setw(5) << step + 1
                    << "  total heat = " << std::fixed
                    << std::setprecision(3) << total[0] << "\n";
        }
      }
    }

    // Conservation check: diffusion with reflecting boundaries preserves
    // total heat (1000.0 from the initial spike).
    double local_heat = 0.0;
    for (int i = 1; i <= cells; ++i)
      local_heat += u[static_cast<std::size_t>(i)];
    auto mine = env.newArray<minijvm::jdouble>(1);
    auto total = env.newArray<minijvm::jdouble>(1);
    mine[0] = local_heat;
    world.allReduce(mine, total, 1, mv2j::DOUBLE, mv2j::SUM);
    if (rank == 0) {
      const bool ok = std::abs(total[0] - 1000.0) < 1e-6;
      std::cout << (ok ? "heat conserved: PASS\n"
                       : "heat NOT conserved: FAIL\n");
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
