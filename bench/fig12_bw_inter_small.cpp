// Paper Figure 12: inter-node osu_bw, small messages (no Open MPI-J
// arrays series, as in the paper).
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig12";
    fig.title = "Inter-node bandwidth, small messages (paper Fig. 12)";
    fig.kind = BenchKind::kBandwidth;
    fig.ranks = 2;
    fig.ppn = 1;
    small_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
