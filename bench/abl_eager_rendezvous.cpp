// Ablation: the eager/rendezvous protocol switch. Sweeps the eager limit
// and shows the latency knee moving with it — the classic MPI tuning
// trade-off (eager buys latency via buffering, rendezvous buys memory
// safety and zero-copy for large payloads).
#include <iostream>
#include <string>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/ombj/benchmarks.hpp"
#include "jhpc/support/sizes.hpp"
#include "jhpc/support/table.hpp"

int main(int argc, char** argv) try {
  using namespace jhpc;
  using namespace jhpc::ombj;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  BenchOptions opt;
  opt.min_size = 1024;
  opt.max_size = 256 * 1024;
  opt.iters_small = quick ? 30 : 150;
  opt.warmup_small = quick ? 3 : 15;
  opt.iters_large = quick ? 10 : 40;
  opt.warmup_large = quick ? 2 : 5;

  const std::size_t kLimits[] = {1024, 16 * 1024, 256 * 1024};
  std::vector<std::string> headers{"Size"};
  for (const auto limit : kLimits)
    headers.push_back("eager<=" + format_size(limit) + " us");
  Table table(headers);

  std::vector<std::vector<ResultRow>> runs;
  for (const auto limit : kLimits) {
    minimpi::UniverseConfig cfg;
    cfg.world_size = 2;
    cfg.fabric.ranks_per_node = 1;  // inter-node: the protocols differ most
    cfg.eager_limit = limit;
    std::vector<ResultRow> rows;
    minimpi::Universe::launch(cfg, [&](minimpi::Comm& world) {
      NativeEnv env(world);
      auto r = run_benchmark(BenchKind::kLatency, env, opt);
      if (world.rank() == 0) rows = std::move(r);
    });
    runs.push_back(std::move(rows));
  }

  std::cout << "== abl_eager_rendezvous: inter-node latency vs eager limit "
               "(native, 2 ranks) ==\n";
  for (std::size_t r = 0; r < runs[0].size(); ++r) {
    std::vector<std::string> row{format_size(runs[0][r].size)};
    for (const auto& run : runs) row.push_back(fmt_double(run[r].value, 2));
    table.add_row(std::move(row));
  }
  std::cout << table.to_text()
            << "note: sizes above the eager limit rendezvous (extra "
               "handshake, sender blocks until the receive is posted).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
