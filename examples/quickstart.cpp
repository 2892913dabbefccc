// Quickstart: the MVAPICH2-J bindings in one file.
//
// Launches a 4-rank job (each rank = one simulated JVM on the shared
// virtual cluster), then demonstrates the basic API surface a Java MPI
// program would touch: rank/size, direct-ByteBuffer point-to-point, Java
// arrays, a broadcast and an allReduce.
//
//   ./quickstart            # 4 ranks on one virtual node
//   JHPC_PPN=2 ./quickstart # 2 virtual nodes
#include <iostream>
#include <mutex>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

int main() try {
  // Default-constructed options take the JHPC_* knobs (JHPC_PPN and the
  // rest of README's Configuration table); code and flags override them.
  mv2j::RunOptions options;
  options.ranks = 4;

  std::mutex print_mu;  // keep the hello lines intact
  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int rank = world.getRank();
    const int size = world.getSize();

    {
      std::lock_guard<std::mutex> lk(print_mu);
      std::cout << "Hello from rank " << rank << " of " << size << "\n";
    }
    world.barrier();

    // --- Point-to-point with direct ByteBuffers (zero-copy path) ---
    if (rank == 0) {
      mv2j::ByteBuffer msg = env.newDirectBuffer(8);
      msg.put_long(0, 20260704);
      world.send(msg, 8, mv2j::BYTE, /*dest=*/1, /*tag=*/0);
    } else if (rank == 1) {
      mv2j::ByteBuffer msg = env.newDirectBuffer(8);
      world.recv(msg, 8, mv2j::BYTE, /*source=*/0, /*tag=*/0);
      std::lock_guard<std::mutex> lk(print_mu);
      std::cout << "rank 1 received " << msg.get_long(0)
                << " via direct ByteBuffer\n";
    }

    // --- The same with a Java array (staged through the buffer pool) ---
    auto arr = env.newArray<minijvm::jint>(4);
    if (rank == 0)
      for (std::size_t i = 0; i < 4; ++i) arr[i] = static_cast<int>(10 * i);
    world.bcast(arr, 4, mv2j::INT, /*root=*/0);

    // --- A reduction everyone participates in ---
    auto mine = env.newArray<minijvm::jlong>(1);
    auto total = env.newArray<minijvm::jlong>(1);
    mine[0] = rank + 1;
    world.allReduce(mine, total, 1, mv2j::LONG, mv2j::SUM);

    if (rank == 0) {
      std::lock_guard<std::mutex> lk(print_mu);
      std::cout << "bcast payload arr[3] = " << arr[3]
                << ", allReduce sum 1..n = " << total[0] << "\n"
                << "buffer pool stats: " << env.pool().stats().requests
                << " requests, " << env.pool().stats().pool_hits
                << " pool hits\n";
    }
  });
  std::cout << "quickstart finished OK\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
