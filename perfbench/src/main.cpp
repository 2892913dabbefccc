// perfbench: one workload, one seed, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Prints every metric by name, unit and sample count, then one JSON
// result object as the last line of stdout. Exits 1 when any op failed
// verification, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  perfbench::Args a;
  bool trace_given = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
      trace_given = v == "0" || v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !trace_given ||
      !(a.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }

  using Run = void (*)(const perfbench::Args&, perfbench::Outcome&,
                       perfbench::SpanLog*);
  Run run = nullptr;
  if (a.workload == "p2p_small") run = perfbench::run_p2p_small;
  if (a.workload == "bulk") run = perfbench::run_bulk;
  if (a.workload == "cg_app") run = perfbench::run_cg_app;
  if (a.workload == "service") run = perfbench::run_service;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }

  perfbench::Outcome out;
  perfbench::SpanLog spans;
  try {
    run(a, out, a.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  if (a.trace && !a.trace_out.empty()) {
    spans.write_chrome(a.trace_out);
    std::printf("# trace: %zu spans (%zu dropped) written to %s\n",
                spans.size(), spans.dropped(), a.trace_out.c_str());
  }
  perfbench::print_result(out, a.trace);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
