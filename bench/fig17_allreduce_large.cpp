// Paper Figure 17: osu_allreduce latency, large messages, 64 ranks.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig17";
    fig.title = "Allreduce latency, large messages, 64 ranks (paper Fig. 17)";
    fig.kind = BenchKind::kAllreduce;
    paper_collective_geometry(fig);
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
