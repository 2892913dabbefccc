// Distributed word histogram — a Big-Data-flavoured workload (the paper's
// motivation for Java in HPC is the Hadoop/Spark ecosystem) built on the
// MVAPICH2-J bindings: generate text shards per rank, hash-partition word
// counts with allToAllv, merge, and gather the global top-10 at rank 0.
//
//   ./word_histogram [ranks] [words_per_rank]
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

namespace {

// A small Zipf-ish vocabulary: low ids are much more frequent.
const char* kVocabulary[] = {
    "the",  "of",   "and",    "to",      "data",    "node",   "java",
    "mpi",  "heap", "buffer", "latency", "kernel",  "thread", "rank",
    "ring", "tree", "packet", "memory",  "compute", "fabric",
};
constexpr int kVocabSize = static_cast<int>(std::size(kVocabulary));

int zipf_pick(std::mt19937_64& rng) {
  // P(k) ~ 1/(k+1): cheap inverse-CDF on precomputed weights.
  static const std::vector<double> cdf = [] {
    std::vector<double> c;
    double acc = 0.0;
    for (int k = 0; k < kVocabSize; ++k) {
      acc += 1.0 / (k + 1);
      c.push_back(acc);
    }
    for (double& v : c) v /= acc;
    return c;
  }();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double x = u(rng);
  return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), x) -
                          cdf.begin());
}

}  // namespace

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 6;
  const long long words_per_rank =
      argc > 2 ? std::atoll(argv[2]) : 200'000;

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int rank = world.getRank();
    const int size = world.getSize();

    // 1. "Map": local counting of this rank's shard.
    std::mt19937_64 rng(42ull + static_cast<unsigned long long>(rank));
    std::vector<long long> local(kVocabSize, 0);
    for (long long i = 0; i < words_per_rank; ++i) ++local[static_cast<std::size_t>(zipf_pick(rng))];

    // 2. "Shuffle": word w belongs to reducer w % size. Pack per-reducer
    //    (word id, count) pairs and exchange with allToAllv.
    std::vector<int> send_counts(static_cast<std::size_t>(size), 0);
    for (int w = 0; w < kVocabSize; ++w)
      send_counts[static_cast<std::size_t>(w % size)] += 2;  // id + count
    std::vector<int> send_displs(static_cast<std::size_t>(size), 0);
    for (int r = 1; r < size; ++r)
      send_displs[static_cast<std::size_t>(r)] =
          send_displs[static_cast<std::size_t>(r - 1)] +
          send_counts[static_cast<std::size_t>(r - 1)];

    const int total_send = send_displs.back() + send_counts.back();
    auto send_buf =
        env.newArray<minijvm::jlong>(static_cast<std::size_t>(total_send));
    {
      std::vector<int> cursor = send_displs;
      for (int w = 0; w < kVocabSize; ++w) {
        auto& c = cursor[static_cast<std::size_t>(w % size)];
        send_buf[static_cast<std::size_t>(c++)] = w;
        send_buf[static_cast<std::size_t>(c++)] =
            local[static_cast<std::size_t>(w)];
      }
    }
    // Every rank sends the same layout, so recv counts mirror send counts
    // of each peer — here uniform per construction.
    std::vector<int> recv_counts(static_cast<std::size_t>(size));
    std::vector<int> recv_displs(static_cast<std::size_t>(size));
    int total_recv = 0;
    for (int r = 0; r < size; ++r) {
      int mine = 0;
      for (int w = 0; w < kVocabSize; ++w)
        if (w % size == rank) mine += 2;
      recv_counts[static_cast<std::size_t>(r)] = mine;
      recv_displs[static_cast<std::size_t>(r)] = total_recv;
      total_recv += mine;
    }
    auto recv_buf =
        env.newArray<minijvm::jlong>(static_cast<std::size_t>(total_recv));
    world.allToAllv(send_buf, send_counts, send_displs, mv2j::LONG,
                    recv_buf, recv_counts, recv_displs);

    // 3. "Reduce": merge my partition.
    std::map<int, long long> merged;
    for (int i = 0; i < total_recv; i += 2) {
      merged[static_cast<int>(recv_buf[static_cast<std::size_t>(i)])] +=
          recv_buf[static_cast<std::size_t>(i + 1)];
    }

    // 4. Gather all partitions at rank 0 (gatherv: partitions differ in
    //    size when vocab % ranks != 0).
    std::vector<long long> mine_flat;
    for (const auto& [w, c] : merged) {
      mine_flat.push_back(w);
      mine_flat.push_back(c);
    }
    auto my_part = env.newArray<minijvm::jlong>(mine_flat.size());
    for (std::size_t i = 0; i < mine_flat.size(); ++i)
      my_part[i] = mine_flat[i];

    std::vector<int> part_counts(static_cast<std::size_t>(size));
    std::vector<int> part_displs(static_cast<std::size_t>(size));
    int part_total = 0;
    for (int r = 0; r < size; ++r) {
      int words = 0;
      for (int w = 0; w < kVocabSize; ++w)
        if (w % size == r) ++words;
      part_counts[static_cast<std::size_t>(r)] = 2 * words;
      part_displs[static_cast<std::size_t>(r)] = part_total;
      part_total += 2 * words;
    }
    auto all_parts =
        env.newArray<minijvm::jlong>(static_cast<std::size_t>(part_total));
    world.gatherv(my_part, static_cast<int>(mine_flat.size()), mv2j::LONG,
                  all_parts, part_counts, part_displs, 0);

    if (rank == 0) {
      std::vector<std::pair<long long, int>> ranked;  // (count, word)
      long long grand_total = 0;
      for (int i = 0; i < part_total; i += 2) {
        ranked.emplace_back(all_parts[static_cast<std::size_t>(i + 1)],
                            static_cast<int>(
                                all_parts[static_cast<std::size_t>(i)]));
        grand_total += all_parts[static_cast<std::size_t>(i + 1)];
      }
      std::sort(ranked.rbegin(), ranked.rend());
      std::cout << "total words: " << grand_total << " (expected "
                << words_per_rank * size << ")\n"
                << "top words:\n";
      for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
        std::cout << "  " << kVocabulary[ranked[i].second] << ": "
                  << ranked[i].first << "\n";
      }
      std::cout << (grand_total == words_per_rank * size
                        ? "histogram complete: PASS\n"
                        : "histogram LOST WORDS: FAIL\n");
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
