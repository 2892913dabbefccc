// Paper Figure 9: inter-node osu_latency, small messages (the two
// libraries' buffer series are comparable).
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig09";
    fig.title = "Inter-node latency, small messages (paper Fig. 9)";
    fig.kind = BenchKind::kLatency;
    fig.ranks = 2;
    fig.ppn = 1;  // one rank per virtual node
    small_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
