// Paper Figure 16: osu_allreduce latency, small messages, 64 ranks.
// Headline: MVAPICH2-J beats Open MPI-J by ~2.76x (buffer) / ~1.62x
// (arrays) on average over all sizes.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig16";
    fig.title = "Allreduce latency, small messages, 64 ranks (paper Fig. 16)";
    fig.kind = BenchKind::kAllreduce;
    paper_collective_geometry(fig);
    fig.options.min_size = 4;
    fig.options.max_size = 1024;
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
