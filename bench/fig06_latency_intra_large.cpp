// Paper Figure 6: intra-node osu_latency, large messages. Buffers of the
// two libraries converge; MVAPICH2-J arrays pay the buffering-layer copy.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig06";
    fig.title = "Intra-node latency, large messages (paper Fig. 6)";
    fig.kind = BenchKind::kLatency;
    fig.ranks = 2;
    fig.ppn = 0;
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
