// Paper Figure 5: intra-node osu_latency, small messages, both libraries
// and both APIs. Headline: MVAPICH2-J buffer beats Open MPI-J buffer by
// ~2.46x on average in the paper's runs.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig05";
    fig.title = "Intra-node latency, small messages (paper Fig. 5)";
    fig.kind = BenchKind::kLatency;
    fig.ranks = 2;
    fig.ppn = 0;  // same virtual node
    small_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
