// Paper Figure 15: osu_bcast latency, large messages, 4 nodes x 16 ppn.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig15";
    fig.title = "Broadcast latency, large messages, 64 ranks (paper Fig. 15)";
    fig.kind = BenchKind::kBcast;
    paper_collective_geometry(fig);
    large_sizes(fig);
    fig.series = four_series();
    fig.ratios = four_ratios();
  });
}
