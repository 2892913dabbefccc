// Paper Figure 10: inter-node osu_latency, large messages ("MVAPICH2-J
// arrays picks up in performance compared with Open MPI-J arrays").
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig10";
    fig.title = "Inter-node latency, large messages (paper Fig. 10)";
    fig.kind = BenchKind::kLatency;
    fig.ranks = 2;
    fig.ppn = 1;
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
