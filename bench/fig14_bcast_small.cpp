// Paper Figure 14: osu_bcast latency, small messages, 4 nodes x 16 ppn.
// Headline: MVAPICH2-J beats Open MPI-J by ~6.2x (buffer) / ~2.2x
// (arrays) on average over all sizes — driven by the native suites.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig14";
    fig.title = "Broadcast latency, small messages, 64 ranks (paper Fig. 14)";
    fig.kind = BenchKind::kBcast;
    paper_collective_geometry(fig);
    small_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
