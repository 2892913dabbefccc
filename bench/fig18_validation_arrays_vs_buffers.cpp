// Paper Figure 18 (Section VI-F): inter-node osu_latency WITH DATA
// VALIDATION — buffers/arrays are populated at the sender and verified at
// the receiver inside the timed region. Headline: past 256 B Java arrays
// beat direct ByteBuffers (3x at 4 MB), because element reads/writes are
// faster on arrays than through the ByteBuffer accessor machinery.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(argc, argv, [](FigureSpec& fig) {
    fig.id = "fig18";
    fig.title =
        "Inter-node latency with data validation: MVAPICH2-J ByteBuffers vs "
        "Java arrays (paper Fig. 18)";
    fig.kind = BenchKind::kLatency;
    fig.ranks = 2;
    fig.ppn = 1;
    fig.options.min_size = 1;
    fig.options.max_size = 4u << 20;
    fig.options.validate = true;
    fig.series = {{Library::kMv2j, Api::kBuffer, "MVAPICH2-J buffer"},
                  {Library::kMv2j, Api::kArrays, "MVAPICH2-J arrays"}};
    fig.ratios = {{"MVAPICH2-J buffer", "MVAPICH2-J arrays"}};
  });
}
