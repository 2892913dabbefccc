// Ablation: the vendor shared-memory channel model in isolation — native
// mv2 vs native basic suites, intra-node point-to-point, no Java layer.
// This is the single calibrated difference behind the paper's Figure 5
// (MVAPICH2-J ~2.46x ahead of Open MPI-J for small intra-node messages):
// a kernel-assisted single-copy channel vs a costlier per-message path.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  int rc = 0;
  for (const BenchKind kind : {BenchKind::kLatency, BenchKind::kBandwidth}) {
    rc |= figure_main(argc, argv, [kind](FigureSpec& fig) {
      fig.id = std::string("abl_shm_") + bench_name(kind);
      fig.title = std::string("shared-memory channel ablation: osu_") +
                  bench_name(kind) + ", 2 ranks, one node, native only";
      fig.kind = kind;
      fig.ranks = 2;
      fig.ppn = 0;
      fig.options.min_size = 1;
      fig.options.max_size = 64 * 1024;
      fig.series = {{Library::kNativeMv2, Api::kBuffer, "mv2 shm channel"},
                    {Library::kNativeOmpi, Api::kBuffer, "basic shm channel"}};
      fig.ratios = {{"basic shm channel", "mv2 shm channel"}};
    });
  }
  return rc;
}
