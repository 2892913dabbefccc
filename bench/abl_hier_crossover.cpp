// Ablation: where does the topology-aware hierarchical engine overtake
// the flat trees? Sweeps bcast and allreduce over ppn = {2, 8, 16, 32}
// (two virtual nodes each) with all three native engines — mv2, basic,
// hier — on identical fabrics, and reports the mv2/hier latency ratio
// per geometry. Under the deterministic clock the crossover is a pure
// model statement: a flat binomial pays log2(ppn) intra-node channel
// hops (intra_latency_ns each) where hier pays two shared-flag hops
// (hier_flag_ns each) plus one inter-node exchange among leaders.
//
// A per-geometry pvar probe also records coll.hier.single_copy /
// coll.hier.single_copy_bytes so the zero-bounce intra-node path is
// evidenced, not assumed (basic/mv2 runs must report 0).
//
// Two tripwires: the probe must count exactly 6·(ppn−1) single copies,
// and at ppn >= 16 hier must beat mv2 at every size from 8 B to 4 KiB on
// deterministic-clock Universes of each suite. The crossover is a model
// statement, so it is checked where only modelled costs move the clock;
// the real-clock table is the reported figure.
//
// Output: figure tables per geometry, a combined CSV (--csv) and a
// schema-2 BENCH record (--json, default BENCH_hier_crossover.json;
// --baseline embeds an earlier one) for the perf-trajectory artifact.
// See docs/PERF.md.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fig_common.hpp"
#include "jhpc/minimpi/universe.hpp"

namespace {

using namespace jhpc;
using namespace jhpc::ombj;

struct GeoResult {
  BenchKind kind{};
  int ppn = 0;
  int ranks = 0;
  std::vector<SeriesResult> series;  // mv2, basic, hier (in that order)
  double mv2_over_hier = 0.0;        // geometric-mean latency ratio
  std::int64_t single_copies = 0;    // hier probe at this geometry
  std::int64_t single_copy_bytes = 0;
};

FigureSpec crossover_fig(BenchKind kind, int ppn, bool quick) {
  FigureSpec fig;
  fig.id = std::string("hier_xover_") + bench_name(kind) + "_ppn" +
           std::to_string(ppn);
  fig.title = std::string("hier crossover: osu_") + bench_name(kind) +
              ", 2 nodes x " + std::to_string(ppn) + " ppn";
  fig.kind = kind;
  fig.ranks = 2 * ppn;
  fig.ppn = ppn;
  fig.options.min_size = 8;
  fig.options.max_size = 16 * 1024;
  fig.options.iters_small = quick ? 10 : 40;
  fig.options.warmup_small = quick ? 2 : 5;
  fig.options.iters_large = quick ? 4 : 10;
  fig.options.warmup_large = quick ? 1 : 2;
  // Same library (and therefore the same transport profile) for all
  // three series — only the collective engine differs.
  fig.series = {{Library::kNativeMv2, Api::kBuffer, "mv2", "mv2"},
                {Library::kNativeMv2, Api::kBuffer, "basic", "basic"},
                {Library::kNativeMv2, Api::kBuffer, "hier", "hier"}};
  fig.ratios = {{"mv2", "hier"}, {"basic", "hier"}};
  return fig;
}

/// A native Universe of `suite` at the sweep geometry.
minimpi::UniverseConfig geometry(int ppn, minimpi::CollectiveSuite suite) {
  minimpi::UniverseConfig cfg;
  cfg.world_size = 2 * ppn;
  cfg.fabric.ranks_per_node = ppn;
  cfg.suite = suite;
  cfg.apply_suite_profile();
  cfg.obs = obs::ObsConfig{};
  return cfg;
}

/// One small hier job at the sweep geometry, reading the single-copy
/// pvars after a bcast + allreduce round: proof the intra-node fan-out
/// moved payload with one copy per consumer instead of tree hops. The
/// counts are read once every rank is through the job.
void probe_single_copy(int ppn, GeoResult& geo,
                       const std::string& pvar_dump) {
  minimpi::UniverseConfig cfg =
      geometry(ppn, minimpi::CollectiveSuite::kHier);
  // Arms the registry without the stderr table dump; the last
  // geometry's dump survives as a machine-readable artifact.
  cfg.obs.pvars_json_path = pvar_dump;
  minimpi::Universe u(cfg);
  u.run([](minimpi::Comm& world) {
    std::vector<char> buf(8192, static_cast<char>(world.rank()));
    std::vector<int> acc(256, world.rank()), out(256);
    world.bcast(buf.data(), buf.size(), 0);
    world.allreduce(acc.data(), out.data(), acc.size(),
                    minimpi::BasicKind::kInt, minimpi::ReduceOp::kSum);
  });
  geo.single_copies = u.pvar_total("coll.hier.single_copy");
  geo.single_copy_bytes = u.pvar_total("coll.hier.single_copy_bytes");
}

/// Virtual ns until the last rank is through one `kind` of each size from
/// 8 B to 4 KiB, on a deterministic-clock Universe of `suite` at the sweep
/// geometry. Every run starts all clocks at zero and only modelled costs
/// move them, so each value is exact.
std::vector<std::int64_t> det_clock_ns(BenchKind kind, int ppn,
                                       minimpi::CollectiveSuite suite) {
  minimpi::UniverseConfig cfg = geometry(ppn, suite);
  cfg.deterministic_clock = true;
  minimpi::Universe u(cfg);
  std::vector<std::int64_t> out;
  for (std::size_t bytes = 8; bytes <= 4096; bytes *= 2) {
    std::atomic<std::int64_t> last{0};
    u.run([&](minimpi::Comm& world) {
      std::vector<int> in(bytes / sizeof(int), world.rank()), sum(in.size());
      if (kind == BenchKind::kBcast) {
        world.bcast(in.data(), bytes, 0);
      } else {
        world.allreduce(in.data(), sum.data(), in.size(),
                        minimpi::BasicKind::kInt, minimpi::ReduceOp::kSum);
      }
      const std::int64_t v = world.vtime_ns();
      std::int64_t seen = last.load();
      while (v > seen && !last.compare_exchange_weak(seen, v)) {
      }
    });
    out.push_back(last.load());
  }
  return out;
}

/// The smallest per-size mv2/hier ratio of det_clock_ns.
double det_clock_min_ratio(BenchKind kind, int ppn) {
  const std::vector<std::int64_t> mv2 =
      det_clock_ns(kind, ppn, minimpi::CollectiveSuite::kMv2);
  const std::vector<std::int64_t> hier =
      det_clock_ns(kind, ppn, minimpi::CollectiveSuite::kHier);
  double min_ratio = 0.0;
  for (std::size_t i = 0; i < mv2.size(); ++i) {
    const double r =
        static_cast<double>(mv2[i]) / static_cast<double>(hier[i]);
    if (i == 0 || r < min_ratio) min_ratio = r;
  }
  return min_ratio;
}

void write_csv(const std::string& path, const std::vector<GeoResult>& geos) {
  std::ofstream f(path);
  f << "bench,ppn,ranks,size,mv2_us,basic_us,hier_us\n";
  for (const GeoResult& g : geos) {
    // Merge the three series' rows by size (all ran the same sweep).
    std::map<std::size_t, std::vector<double>> by_size;
    for (std::size_t s = 0; s < g.series.size(); ++s) {
      for (const ResultRow& row : g.series[s].rows) {
        auto& cells = by_size[row.size];
        cells.resize(g.series.size(), 0.0);
        cells[s] = row.value;
      }
    }
    for (const auto& [size, cells] : by_size) {
      f << bench_name(g.kind) << "," << g.ppn << "," << g.ranks << ","
        << size;
      for (const double v : cells) {
        char cell[32];
        std::snprintf(cell, sizeof(cell), ",%.3f", v);
        f << cell;
      }
      f << "\n";
    }
  }
  std::cerr << "[hier_crossover] csv written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::Args args = bench::parse_args(
      argc, argv, {.json = "BENCH_hier_crossover.json", .csv = true});
  const bool quick = args.quick;

  std::vector<GeoResult> geos;
  for (const BenchKind kind : {BenchKind::kBcast, BenchKind::kAllreduce}) {
    for (const int ppn : {2, 8, 16, 32}) {
      FigureSpec fig = crossover_fig(kind, ppn, quick);
      std::cout << "== " << fig.id << ": " << fig.title << " ==\n";
      GeoResult geo;
      geo.kind = kind;
      geo.ppn = ppn;
      geo.ranks = fig.ranks;
      geo.series = run_figure(fig);
      std::cout << figure_table(fig, geo.series).to_text();
      geo.mv2_over_hier = average_ratio(geo.series, "mv2", "hier");
      probe_single_copy(ppn, geo, args.json + ".pvars.json");
      char line[128];
      std::snprintf(line, sizeof(line),
                    "mv2/hier avg ratio: %.2fx  (single_copies=%lld)\n\n",
                    geo.mv2_over_hier,
                    static_cast<long long>(geo.single_copies));
      std::cout << line;
      geos.push_back(std::move(geo));
    }
  }

  if (!args.csv.empty()) write_csv(args.csv, geos);
  std::vector<bench::Fields> rows;
  for (const GeoResult& g : geos) {
    rows.push_back({{"kind", bench::str(bench_name(g.kind))},
                    {"ppn", bench::integer(g.ppn)},
                    {"ranks", bench::integer(g.ranks)},
                    {"mv2_over_hier", bench::num(g.mv2_over_hier)},
                    {"hier_single_copies", bench::integer(g.single_copies)},
                    {"hier_single_copy_bytes",
                     bench::integer(g.single_copy_bytes)}});
  }
  bench::write_json(args, "hier_crossover", {}, rows, {});

  // The model's headline: with enough ranks sharing a node, two
  // shared-flag hops beat log2(ppn) channel hops. Fail loudly if the
  // crossover disappears on the deterministic clock, or the probe counts
  // other than one single copy per consumer per phase.
  int rc = 0;
  for (const GeoResult& g : geos) {
    const std::int64_t want = 6 * (g.ppn - 1);
    if (g.single_copies != want) {
      std::cerr << "FAIL: hier probe recorded " << g.single_copies
                << " single-copy deliveries at ppn=" << g.ppn
                << ", expected " << want << "\n";
      rc = 1;
    }
    if (g.ppn < 16) continue;
    const double det = det_clock_min_ratio(g.kind, g.ppn);
    std::cout << "det-clock mv2/hier min ratio, " << bench_name(g.kind)
              << " ppn=" << g.ppn << ": " << det << "x\n";
    if (det <= 1.0) {
      std::cerr << "FAIL: hier did not beat mv2 at ppn=" << g.ppn << " for "
                << bench_name(g.kind) << " on the deterministic clock "
                << "(smallest ratio " << det << ")\n";
      rc = 1;
    }
  }
  return rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}
