// Distributed matrix transpose using DERIVED DATATYPES and the OFFSET
// API — the two MVAPICH2-J extensions this reproduction implements on top
// of the buffering layer (paper Section IV-B).
//
// Each rank owns a block-row of an (n*ranks) x (n*ranks) matrix. To
// transpose, rank r sends to rank c the COLUMN block that becomes c's row
// block — extracted in one call with a vector datatype (no manual
// packing), addressed with an element offset (no sub-array copies).
//
//   ./matrix_transpose [ranks] [block]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int n = argc > 2 ? std::atoi(argv[2]) : 64;  // block edge

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int p = world.getSize();
    const int me = world.getRank();
    const int cols = n * p;  // my block-row is n x cols, row-major

    auto mine = env.newArray<minijvm::jint>(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(cols));
    auto result = env.newArray<minijvm::jint>(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(cols));
    // Global element (row, col) carries row * 100000 + col.
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < cols; ++c)
        mine[static_cast<std::size_t>(r * cols + c)] =
            (me * n + r) * 100000 + c;

    // One column-block of my row-block: n rows of n consecutive ints,
    // stride = cols ints. size() = n*n ints.
    const mv2j::Datatype block = mv2j::Datatype::vector(n, n, cols, mv2j::INT);

    // Exchange: post receives for every peer's block (it arrives packed,
    // n*n contiguous ints), then send column block c to rank c using the
    // offset API to address it — no manual staging anywhere.
    std::vector<minijvm::JArray<minijvm::jint>> inbox;
    std::vector<mv2j::Request> reqs;
    for (int c = 0; c < p; ++c) {
      inbox.push_back(env.newArray<minijvm::jint>(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n)));
      if (c == me) continue;
      reqs.push_back(world.iRecv(inbox.back(), 0, n * n, mv2j::INT, c, 0));
    }
    for (int c = 0; c < p; ++c) {
      if (c == me) {
        // Local block: pack through the same datatype machinery.
        world.send(mine, /*offset=*/c * n, 1, block, me, 1);
        world.recv(inbox[static_cast<std::size_t>(me)], 0, n * n, mv2j::INT,
                   me, 1);
        continue;
      }
      world.send(mine, /*offset=*/c * n, /*count=*/1, block, c, 0);
    }
    mv2j::Request::waitAll(reqs);

    // Assemble my transposed block-row: received block b holds the
    // (me-th column block of rank b's row block); transposing it in
    // place gives rows of the result.
    for (int b = 0; b < p; ++b) {
      const auto& blk = inbox[static_cast<std::size_t>(b)];
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
          result[static_cast<std::size_t>(r * cols + b * n + c)] =
              blk[static_cast<std::size_t>(c * n + r)];
    }

    // Verify: result(row, col) must equal original(col, row).
    long long errors = 0;
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < cols; ++c) {
        const int want = c * 100000 + (me * n + r);
        if (result[static_cast<std::size_t>(r * cols + c)] != want) ++errors;
      }
    auto mine_err = env.newArray<minijvm::jlong>(1);
    auto total_err = env.newArray<minijvm::jlong>(1);
    mine_err[0] = errors;
    world.allReduce(mine_err, total_err, 1, mv2j::LONG, mv2j::SUM);
    if (me == 0) {
      std::cout << "transpose of " << n * p << "x" << n * p << " across "
                << p << " ranks: "
                << (total_err[0] == 0 ? "PASS" : "FAIL") << " ("
                << total_err[0] << " mismatches)\n";
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
