// NPB IS (Integer Sort) kernel on the MVAPICH2-J bindings.
//
// The second NPB-MPJ-style workload: parallel bucket sort of uniformly
// distributed integer keys. Each rank generates its block of keys,
// computes a local histogram of the global buckets, learns every bucket's
// total with allReduce, redistributes keys so rank r owns bucket range r
// (allToAllv — the heavy communication step), sorts locally by counting,
// and the result is verified for global sortedness and key conservation.
//
//   ./npb_is [ranks] [log2_keys]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <random>
#include <vector>

#include "jhpc/mv2j/env.hpp"

using namespace jhpc;

int main(int argc, char** argv) try {
  mv2j::RunOptions options;
  options.ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int log2_keys = argc > 2 ? std::atoi(argv[2]) : 18;
  const long long total_keys = 1ll << log2_keys;
  constexpr int kMaxKey = 1 << 16;

  mv2j::run(options, [&](mv2j::Env& env) {
    mv2j::Comm& world = env.COMM_WORLD();
    const int n = world.getSize();
    const int me = world.getRank();
    const long long my_keys = total_keys / n +
                              (me < total_keys % n ? 1 : 0);

    // 1. Key generation (deterministic per rank).
    std::mt19937 rng(1303u + static_cast<unsigned>(me) * 7919u);
    std::uniform_int_distribution<int> dist(0, kMaxKey - 1);
    auto keys = env.newArray<minijvm::jint>(
        static_cast<std::size_t>(my_keys));
    for (long long i = 0; i < my_keys; ++i)
      keys[static_cast<std::size_t>(i)] = dist(rng);

    // 2. Per-destination counts: key k goes to rank k / (kMaxKey / n).
    const int keys_per_rank_range = (kMaxKey + n - 1) / n;
    auto owner = [&](int key) { return key / keys_per_rank_range; };
    std::vector<int> send_counts(static_cast<std::size_t>(n), 0);
    for (long long i = 0; i < my_keys; ++i)
      ++send_counts[static_cast<std::size_t>(
          owner(keys[static_cast<std::size_t>(i)]))];

    // 3. Exchange counts (alltoall of one int per pair) to size receive
    //    buffers.
    auto sc = env.newArray<minijvm::jint>(static_cast<std::size_t>(n));
    auto rc = env.newArray<minijvm::jint>(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      sc[static_cast<std::size_t>(r)] = send_counts[static_cast<std::size_t>(r)];
    world.allToAll(sc, 1, mv2j::INT, rc);

    // 4. Pack keys by destination and redistribute with allToAllv.
    std::vector<int> sdispls(static_cast<std::size_t>(n), 0);
    for (int r = 1; r < n; ++r)
      sdispls[static_cast<std::size_t>(r)] =
          sdispls[static_cast<std::size_t>(r - 1)] +
          send_counts[static_cast<std::size_t>(r - 1)];
    auto packed = env.newArray<minijvm::jint>(
        static_cast<std::size_t>(my_keys));
    {
      std::vector<int> cursor = sdispls;
      for (long long i = 0; i < my_keys; ++i) {
        const int k = keys[static_cast<std::size_t>(i)];
        packed[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(owner(k))]++)] = k;
      }
    }
    std::vector<int> recv_counts(static_cast<std::size_t>(n));
    std::vector<int> rdispls(static_cast<std::size_t>(n), 0);
    long long incoming = 0;
    for (int r = 0; r < n; ++r) {
      recv_counts[static_cast<std::size_t>(r)] =
          rc[static_cast<std::size_t>(r)];
      rdispls[static_cast<std::size_t>(r)] = static_cast<int>(incoming);
      incoming += rc[static_cast<std::size_t>(r)];
    }
    auto mine = env.newArray<minijvm::jint>(
        static_cast<std::size_t>(std::max<long long>(incoming, 1)));
    world.allToAllv(packed, send_counts, sdispls, mv2j::INT, mine,
                    recv_counts, rdispls);

    // 5. Local counting sort of my bucket range.
    const int lo = me * keys_per_rank_range;
    const int hi = std::min(kMaxKey, lo + keys_per_rank_range);
    std::vector<long long> hist(static_cast<std::size_t>(hi - lo), 0);
    for (long long i = 0; i < incoming; ++i) {
      const int k = mine[static_cast<std::size_t>(i)];
      ++hist[static_cast<std::size_t>(k - lo)];
    }
    std::vector<int> sorted;
    sorted.reserve(static_cast<std::size_t>(incoming));
    for (int k = lo; k < hi; ++k)
      for (long long c = 0; c < hist[static_cast<std::size_t>(k - lo)]; ++c)
        sorted.push_back(k);

    // 6. Verification.
    //    (a) Key conservation: total keys unchanged.
    auto cnt = env.newArray<minijvm::jlong>(1);
    auto total = env.newArray<minijvm::jlong>(1);
    cnt[0] = incoming;
    world.allReduce(cnt, total, 1, mv2j::LONG, mv2j::SUM);
    //    (b) Global sortedness: my max <= right neighbour's min (ranks
    //        with no keys pass sentinels through).
    auto boundary = env.newArray<minijvm::jint>(1);
    boundary[0] = sorted.empty() ? lo : sorted.back();
    int left_max = -1;
    if (me + 1 < n) world.send(boundary, 1, mv2j::INT, me + 1, 1);
    if (me > 0) {
      auto in = env.newArray<minijvm::jint>(1);
      world.recv(in, 1, mv2j::INT, me - 1, 1);
      left_max = in[0];
    }
    const bool locally_sorted =
        std::is_sorted(sorted.begin(), sorted.end());
    const bool boundary_ok =
        sorted.empty() || left_max <= sorted.front();
    auto ok = env.newArray<minijvm::jint>(1);
    auto all_ok = env.newArray<minijvm::jint>(1);
    ok[0] = locally_sorted && boundary_ok ? 1 : 0;
    world.allReduce(ok, all_ok, 1, mv2j::INT, mv2j::MIN);

    if (me == 0) {
      std::cout << "IS: 2^" << log2_keys << " keys, " << n << " ranks, "
                << "max key " << kMaxKey << "\n"
                << "  conservation: "
                << (total[0] == total_keys ? "OK" : "LOST KEYS") << " ("
                << total[0] << "/" << total_keys << ")\n"
                << "  sortedness:   " << (all_ok[0] == 1 ? "OK" : "BROKEN")
                << "\n"
                << ((total[0] == total_keys && all_ok[0] == 1)
                        ? "IS verification: PASS\n"
                        : "IS verification: FAIL\n");
    }
  });
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
