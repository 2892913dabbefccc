// ombj — the OMB-J command-line runner.
//
// The Java-bindings analogue of running an OSU micro-benchmark binary:
//
//   ombj --bench latency   --lib mv2j  --api buffer --ranks 2
//   ombj --bench bw        --lib ompij --api arrays            # reports n/a
//   ombj --bench allreduce --lib mv2j  --api arrays --ranks 16 --ppn 4
//   ombj --bench latency   --lib native-mv2 --ranks 2 --ppn 1  # Figure 11
//
// Flags mirror OMB where sensible (-m min:max via --min/--max, window via
// --window, validation via --validate).
#include <iostream>
#include <string>

#include "jhpc/ombj/harness.hpp"
#include "jhpc/support/error.hpp"

namespace {

void usage() {
  std::cout <<
      "ombj — OMB-J benchmark runner\n"
      "  --bench NAME   latency|bw|bibw|mbw_mr|multi_lat|bcast|reduce|\n"
      "                 allreduce|reduce_scatter|scan|gather|scatter|\n"
      "                 allgather|alltoall|gatherv|scatterv|allgatherv|\n"
      "                 alltoallv|barrier|ibcast|iallreduce|\n"
      "                 put_latency|get_bw (default latency;\n"
      "                 the i* benchmarks also report overlap %)\n"
      "  --lib NAME     mv2j|ompij|native-mv2|native-ompi (default mv2j)\n"
      "  --api NAME     buffer|arrays (default buffer)\n"
      "  --coll NAME    collective engine: mv2|basic|hier (default: the\n"
      "                 library's own suite; docs/API.md)\n"
      "  --ranks N      number of ranks (default 2)\n"
      "  --ppn N        ranks per virtual node, 0 = single node (default 0)\n"
      "  --min SZ       minimum message size (default 1)\n"
      "  --max SZ       maximum message size (default 4M)\n"
      "  --iters N      iterations per size (small-message count)\n"
      "  --window N     window size for bw benchmarks (default 64)\n"
      "  --validate     include populate+verify in the timed region\n"
      "  --csv PATH     mirror the table to CSV\n"
      "  --pvars        print MPI_T-style performance variables at finalize\n"
      "                 (with latency-distribution p50/p90/p99 columns)\n"
      "  --pvars-json FILE  write pvars + histograms + comm matrix as JSON\n"
      "  --comm-matrix FILE write the per-(src,dst) message/byte matrix as\n"
      "                 CSV and print the finalize heatmap\n"
      "  --trace FILE   write a Chrome trace (virtual clock) to FILE\n"
      "  --fault-seed N seed the deterministic fault injector (default 1)\n"
      "  --drop P       per-attempt drop probability on inter-node links\n"
      "  --fault-jitter NS  max deterministic latency jitter, ns\n"
      "  --kill-rank R@N    kill rank R at virtual time N ns and recover by\n"
      "                 revoke+shrink (repeatable; bcast/allreduce only;\n"
      "                 rank 0 reports results and must survive)\n"
      "                 (see docs/FAULTS.md; JHPC_FAULT_* env equivalents)\n";
}

jhpc::ombj::Library library_from(const std::string& s) {
  using jhpc::ombj::Library;
  if (s == "mv2j") return Library::kMv2j;
  if (s == "ompij") return Library::kOmpij;
  if (s == "native-mv2") return Library::kNativeMv2;
  if (s == "native-ompi") return Library::kNativeOmpi;
  throw jhpc::InvalidArgumentError("unknown --lib: " + s);
}

jhpc::ombj::Api api_from(const std::string& s) {
  JHPC_REQUIRE(s == "buffer" || s == "arrays",
               "--api must be buffer or arrays");
  return s == "buffer" ? jhpc::ombj::Api::kBuffer : jhpc::ombj::Api::kArrays;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jhpc::ombj;
  try {
    FigureSpec fig;
    fig.id = "ombj";
    SeriesSpec series{Library::kMv2j, Api::kBuffer, ""};
    std::string csv_path;
    bool help = false;
    parse_flags(fig, argc, argv, [&](const std::string& flag, auto value) {
      if (flag == "--bench") fig.kind = bench_from_name(value());
      else if (flag == "--lib") series.library = library_from(value());
      else if (flag == "--api") series.api = api_from(value());
      else if (flag == "--validate") fig.options.validate = true;
      else if (flag == "--csv") csv_path = value();
      else if (flag == "--help" || flag == "-h") help = true;
      else return false;
      return true;
    });
    if (help) {
      usage();
      return 0;
    }
    fig.options.api = series.api;
    fig.title = std::string("osu_") + bench_name(fig.kind) + " on " +
                library_name(series.library) + " (" +
                api_name(series.api) + ")";
    if (!fig.coll.empty()) fig.title += " [coll=" + fig.coll + "]";
    fig.series = {series};

    std::cout << "# OMB-J " << fig.title << "\n"
              << "# ranks=" << fig.ranks << " ppn=" << fig.ppn << "\n";
    const auto results = run_figure(fig);
    std::cout << figure_table(fig, results).to_text();
    for (const auto& r : results) {
      if (!r.supported) {
        std::cout << "unsupported: " << r.error << "\n";
        return 2;
      }
    }
    if (!csv_path.empty()) figure_table(fig, results).write_csv(csv_path);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ombj: " << e.what() << "\n";
    usage();
    return 1;
  }
}
