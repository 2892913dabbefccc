// Paper Figure 8: intra-node osu_bw, large messages ("MVAPICH2-J buffer
// picks up performance-wise with Open MPI-J buffer").
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig08";
    fig.title = "Intra-node bandwidth, large messages (paper Fig. 8)";
    fig.kind = BenchKind::kBandwidth;
    fig.ranks = 2;
    fig.ppn = 0;
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
