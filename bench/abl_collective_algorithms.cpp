// Ablation: the two native collective-algorithm suites head to head, per
// collective, with no Java layer. This isolates the cause the paper
// assigns to its Figures 14-17 gaps: "performance differences in the
// native MPI libraries".
#include <iostream>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  int rc = 0;
  for (const BenchKind kind :
       {BenchKind::kBcast, BenchKind::kReduce, BenchKind::kAllreduce,
        BenchKind::kGather, BenchKind::kScatter, BenchKind::kAllgather,
        BenchKind::kAlltoall}) {
    rc |= figure_main(argc, argv, [kind](FigureSpec& fig) {
      fig.id = std::string("abl_coll_") + bench_name(kind);
      fig.title = std::string("native suite ablation: osu_") +
                  bench_name(kind) + ", 16 ranks x 4 nodes";
      fig.kind = kind;
      fig.ranks = 16;
      fig.ppn = 4;
      fig.options.min_size = 4;
      fig.options.max_size = 256 * 1024;  // alltoall allocates size*ranks
      fig.options.iters_small = 60;
      fig.options.iters_large = 10;
      fig.series = {{Library::kNativeMv2, Api::kBuffer, "mv2 suite"},
                    {Library::kNativeOmpi, Api::kBuffer, "basic suite"}};
      fig.ratios = {{"basic suite", "mv2 suite"}};
    });
    std::cout << "\n";
  }
  return rc;
}
