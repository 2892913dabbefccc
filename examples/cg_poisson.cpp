// Distributed conjugate gradient on a 1-D Poisson system — the NPB CG
// communication pattern (sparse matvec + dot-product reductions) on the
// MVAPICH2-J bindings, with a Cartesian topology from the substrate.
//
// The tridiagonal system A = tridiag(-1, 2, -1) is partitioned by block
// rows. Each CG iteration needs:
//   * one halo exchange (one boundary element per neighbour) for the
//     matvec — non-blocking iSend/iRecv on direct ByteBuffers,
//   * two global dot products — allReduce,
// which is exactly NPB CG's traffic shape in miniature.
//
// Verification: b is manufactured from a known x*, and CG must recover it
// (relative error < 1e-8) in well under the dimension's iteration bound.
//
//   ./cg_poisson [ranks] [rows_per_rank]
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

namespace {

/// One rank's slice of the CG state.
struct LocalVectors {
  std::vector<double> x, r, p, ap;
};

}  // namespace

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int local_n = argc > 2 ? std::atoi(argv[2]) : 2000;

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int size = world.getSize();
    const int me = world.getRank();
    const long long n = static_cast<long long>(local_n) * size;

    const int up = me > 0 ? me - 1 : -1;
    const int down = me + 1 < size ? me + 1 : -1;

    // Halo buffers: one double per direction.
    auto send_up = env.newDirectBuffer(8);
    auto send_down = env.newDirectBuffer(8);
    auto recv_up = env.newDirectBuffer(8);
    auto recv_down = env.newDirectBuffer(8);
    auto dot_in = env.newArray<minijvm::jdouble>(1);
    auto dot_out = env.newArray<minijvm::jdouble>(1);

    constexpr int kHaloTag = 11;
    // y = A*v for the tridiagonal Laplacian, with halo exchange.
    auto matvec = [&](const std::vector<double>& v, std::vector<double>& y) {
      std::vector<mv2j::Request> reqs;
      if (up >= 0) {
        reqs.push_back(world.iRecv(recv_up, 8, mv2j::BYTE, up, kHaloTag));
        send_up.put_double(0, v.front());
        reqs.push_back(world.iSend(send_up, 8, mv2j::BYTE, up, kHaloTag));
      }
      if (down >= 0) {
        reqs.push_back(world.iRecv(recv_down, 8, mv2j::BYTE, down, kHaloTag));
        send_down.put_double(0, v.back());
        reqs.push_back(world.iSend(send_down, 8, mv2j::BYTE, down, kHaloTag));
      }
      mv2j::Request::waitAll(reqs);
      const double ghost_up = up >= 0 ? recv_up.get_double(0) : 0.0;
      const double ghost_down = down >= 0 ? recv_down.get_double(0) : 0.0;
      const auto ln = static_cast<std::size_t>(local_n);
      for (std::size_t i = 0; i < ln; ++i) {
        const double left = i > 0 ? v[i - 1] : ghost_up;
        const double right = i + 1 < ln ? v[i + 1] : ghost_down;
        y[i] = 2.0 * v[i] - left - right;
      }
    };

    auto dot = [&](const std::vector<double>& a,
                   const std::vector<double>& b) {
      double local = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
      dot_in[0] = local;
      world.allReduce(dot_in, dot_out, 1, mv2j::DOUBLE, mv2j::SUM);
      return dot_out[0];
    };

    // Manufacture b = A * x_true for a known smooth x_true.
    const auto ln = static_cast<std::size_t>(local_n);
    std::vector<double> x_true(ln);
    for (std::size_t i = 0; i < ln; ++i) {
      const auto g = static_cast<double>(me * local_n + static_cast<int>(i));
      x_true[i] = std::sin(3.0 * g / static_cast<double>(n)) + 0.25;
    }
    std::vector<double> b(ln);
    matvec(x_true, b);

    // CG from x = 0.
    LocalVectors v{std::vector<double>(ln, 0.0), b, b,
                   std::vector<double>(ln, 0.0)};
    double rr = dot(v.r, v.r);
    const double rr0 = rr;
    int iterations = 0;
    const int max_iters = 8 * local_n * size;
    while (rr > 1e-22 * rr0 && iterations < max_iters) {
      matvec(v.p, v.ap);
      const double alpha = rr / dot(v.p, v.ap);
      for (std::size_t i = 0; i < ln; ++i) {
        v.x[i] += alpha * v.p[i];
        v.r[i] -= alpha * v.ap[i];
      }
      const double rr_new = dot(v.r, v.r);
      const double beta = rr_new / rr;
      for (std::size_t i = 0; i < ln; ++i)
        v.p[i] = v.r[i] + beta * v.p[i];
      rr = rr_new;
      ++iterations;
    }

    // Verification: relative error against the manufactured solution.
    double local_err = 0.0, local_norm = 0.0;
    for (std::size_t i = 0; i < ln; ++i) {
      local_err += (v.x[i] - x_true[i]) * (v.x[i] - x_true[i]);
      local_norm += x_true[i] * x_true[i];
    }
    dot_in[0] = local_err;
    world.allReduce(dot_in, dot_out, 1, mv2j::DOUBLE, mv2j::SUM);
    const double err = dot_out[0];
    dot_in[0] = local_norm;
    world.allReduce(dot_in, dot_out, 1, mv2j::DOUBLE, mv2j::SUM);
    const double norm = dot_out[0];
    const double rel = std::sqrt(err / norm);

    if (me == 0) {
      std::cout << std::scientific << std::setprecision(3)
                << "CG: n=" << n << " on " << size << " ranks, "
                << iterations << " iterations, relative error " << rel
                << "\n"
                << (rel < 1e-8 ? "CG verification: PASS\n"
                               : "CG verification: FAIL\n");
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
