// Paper Figure 11: inter-node latency OVERHEAD of the Java bindings over
// their native libraries, with direct ByteBuffers. The paper reports
// overheads "in the ballpark of 1 microsecond", MVAPICH2-J slightly below
// Open MPI-J. This binary runs osu_latency four ways (each native library
// and each binding) and prints both the raw latencies and the per-size
// difference columns the paper plots.
#include <iostream>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "jhpc/support/paths.hpp"
#include "jhpc/support/sizes.hpp"

namespace {

using jhpc::ombj::SeriesResult;

/// The plot itself: each binding's per-size latency over its native
/// library, mirrored to "<csv>.overhead.csv".
void print_overhead(const std::vector<SeriesResult>& results,
                    const std::string& csv_path) {
  jhpc::Table diff(
      {"Size", "MVAPICH2-J overhead us", "Open MPI-J overhead us"});
  for (const auto& base_row : results[0].rows) {
    auto value_of = [&](std::size_t series) {
      for (const auto& row : results[series].rows)
        if (row.size == base_row.size) return row.value;
      return 0.0;
    };
    diff.add_row({jhpc::format_size(base_row.size),
                  jhpc::fmt_double(value_of(1) - value_of(0), 2),
                  jhpc::fmt_double(value_of(3) - value_of(2), 2)});
  }
  std::cout << "\n-- Java-over-native overhead (the Fig. 11 plot) --\n"
            << diff.to_text();
  // "figX.csv" -> "figX.overhead.csv" (not "figX.csv.overhead.csv").
  if (!csv_path.empty())
    diff.write_csv(jhpc::path_with_tag(csv_path, "overhead"));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  return figure_main(
      argc, argv,
      [](FigureSpec& fig) {
        fig.id = "fig11";
        fig.title =
            "Inter-node latency overhead: Java bindings vs native libraries "
            "(paper Fig. 11)";
        fig.kind = BenchKind::kLatency;
        fig.ranks = 2;
        fig.ppn = 1;
        fig.options.min_size = 1;
        fig.options.max_size = 8192;  // the paper's small-message range
        fig.options.iters_small = 400;  // differences are sub-us
        fig.series = {{Library::kNativeMv2, Api::kBuffer, "MVAPICH2 native"},
                      {Library::kMv2j, Api::kBuffer, "MVAPICH2-J"},
                      {Library::kNativeOmpi, Api::kBuffer, "Open MPI native"},
                      {Library::kOmpij, Api::kBuffer, "Open MPI-J"}};
      },
      print_overhead);
}
