// Paper Figure 13: inter-node osu_bw, large messages (both buffer series
// approach the fabric's line rate).
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig13";
    fig.title = "Inter-node bandwidth, large messages (paper Fig. 13)";
    fig.kind = BenchKind::kBandwidth;
    fig.ranks = 2;
    fig.ppn = 1;
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
