// Paper Figure 7: intra-node osu_bw, small messages. The Open MPI-J
// arrays series is absent (no Java arrays with non-blocking p2p) — this
// binary reproduces that as an "n/a" column.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig07";
    fig.title = "Intra-node bandwidth, small messages (paper Fig. 7)";
    fig.kind = BenchKind::kBandwidth;
    fig.ranks = 2;
    fig.ppn = 0;
    small_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
