#include "jhpc/ombj/harness.hpp"

#include <cctype>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/ombj/benchmarks.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "jhpc/support/error.hpp"
#include "jhpc/support/knobs.hpp"
#include "jhpc/support/paths.hpp"
#include "jhpc/support/sizes.hpp"
#include "jhpc/support/stats.hpp"

namespace jhpc::ombj {

namespace {

std::string default_label(const SeriesSpec& s) {
  return std::string(library_name(s.library)) + " " + api_name(s.api);
}

netsim::FabricConfig fabric_for(const FigureSpec& fig) {
  netsim::FabricConfig f = fig.fabric;
  f.ranks_per_node = fig.ppn;
  return f;
}

/// Filename-safe tag derived from a series label ("mv2j buffer" ->
/// "mv2j_buffer").
std::string label_slug(const std::string& label) {
  std::string out;
  for (const char ch : label) {
    out.push_back(
        std::isalnum(static_cast<unsigned char>(ch)) != 0 ? ch : '_');
  }
  return out;
}

/// The figure's obs config specialised for one series: multi-series
/// figures get one trace file per series so jobs do not overwrite each
/// other.
obs::ObsConfig obs_for(const FigureSpec& fig, const std::string& label) {
  obs::ObsConfig o = fig.obs;
  if (!o.trace_path.empty() && fig.series.size() > 1)
    o.trace_path = path_with_tag(o.trace_path, label_slug(label));
  return o;
}

/// The collective-engine override in effect for one series: the series'
/// own `coll` wins, then the figure-wide `--coll`/JHPC_COLL; none keeps
/// the library's own suite.
std::optional<minimpi::CollectiveSuite> suite_for(const FigureSpec& fig,
                                                  const SeriesSpec& series) {
  const std::string& coll = !series.coll.empty() ? series.coll : fig.coll;
  if (coll.empty()) return std::nullopt;
  return parse_knob<minimpi::CollectiveSuite>("JHPC_COLL", coll);
}

/// One bindings job of vendor P, its heap sized for the benchmark's
/// arrays (live payload plus copying-GC headroom). The bindings keep their
/// identity ("mv2j runs on MVAPICH2"); `--coll hier` swaps in the
/// hierarchical engine underneath.
template <bindings::VendorPolicy P>
std::vector<ResultRow> run_bindings(
    const FigureSpec& fig, const BenchOptions& options,
    const obs::ObsConfig& obs,
    std::optional<minimpi::CollectiveSuite> suite) {
  bindings::RunOptions<P> opts;
  opts.ranks = fig.ranks;
  opts.fabric = fabric_for(fig);
  opts.obs = obs;
  opts.hier_collectives = suite == minimpi::CollectiveSuite::kHier;
  opts.jvm.heap_bytes =
      std::max<std::size_t>(32ull << 20, 8 * fig.options.max_size);
  std::vector<ResultRow> rows;
  bindings::run<P>(opts, [&](bindings::Env<P>& env) {
    auto r = run_benchmark(fig.kind, env, options);
    if (env.COMM_WORLD().getRank() == 0) rows = std::move(r);
  });
  return rows;
}

}  // namespace

FigureSpec::FigureSpec() {
  const minimpi::UniverseConfig native;
  ppn = native.fabric.ranks_per_node;
  fabric = native.fabric;
  obs = native.obs;
  KnobEnv().get("JHPC_COLL", coll);
}

void parse_flags(FigureSpec& fig, int argc, char** argv,
                 const FlagFn& other) {
  netsim::FaultPlan& faults = fig.fabric.faults;
  netsim::LinkFaults& link = faults.link_defaults;
  obs::ObsConfig& o = fig.obs;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const std::function<std::string()> value = [&] {
      JHPC_REQUIRE(i + 1 < argc, "missing value for " + flag);
      return std::string(argv[++i]);
    };
    const auto count = [&] {  // --ranks, --iters, --window: at least 1
      const int n = std::stoi(value());
      if (n < 1) throw InvalidArgumentError(flag + " wants an integer >= 1");
      return n;
    };
    if (flag == "--ranks") {
      fig.ranks = count();
    } else if (flag == "--ppn") {
      fig.ppn = parse_knob<int>("JHPC_PPN", value());
    } else if (flag == "--min") {
      fig.options.min_size = parse_size(value());
    } else if (flag == "--max") {
      fig.options.max_size = parse_size(value());
    } else if (flag == "--iters") {
      fig.options.iters_small = count();
      fig.options.iters_large = std::max(1, fig.options.iters_small / 10);
    } else if (flag == "--window") {
      fig.options.window = count();
    } else if (flag == "--coll") {
      fig.coll = parse_knob<std::string>("JHPC_COLL", value());
    } else if (flag == "--pvars") {
      o.pvars = true;
    } else if (flag == "--pvars-json") {
      o.pvars_json_path = parse_knob<std::string>("JHPC_PVARS_JSON", value());
    } else if (flag == "--comm-matrix") {
      o.comm_matrix = true;
      o.comm_matrix_csv =
          parse_knob<std::string>("JHPC_COMM_MATRIX_CSV", value());
    } else if (flag == "--trace") {
      o.trace_path = parse_knob<std::string>("JHPC_TRACE", value());
    } else if (flag.rfind("--trace=", 0) == 0) {
      o.trace_path = parse_knob<std::string>("JHPC_TRACE", flag.substr(8));
    } else if (flag == "--fault-seed") {
      faults.seed = parse_knob<std::uint64_t>("JHPC_FAULT_SEED", value());
    } else if (flag == "--drop") {
      link.drop_prob = parse_knob<double>("JHPC_FAULT_DROP", value());
    } else if (flag == "--fault-jitter") {
      link.jitter_ns =
          parse_knob<std::int64_t>("JHPC_FAULT_JITTER_NS", value());
    } else if (flag == "--kill-rank") {
      faults.parse_kills(value());  // the JHPC_FAULT_KILL row's parser
      for (const auto& k : faults.kills)
        JHPC_REQUIRE(k.rank != 0,
                     "--kill-rank: rank 0 reports the results and must "
                     "survive; kill a nonzero rank");
      fig.options.resilient = true;
    } else if (!other(flag, value)) {
      throw InvalidArgumentError("unknown flag: " + flag);
    }
  }
}

SeriesResult run_series(const FigureSpec& fig, const SeriesSpec& series) {
  SeriesResult result;
  result.label = series.label.empty() ? default_label(series) : series.label;

  // The series decides which user-facing API the benchmark exercises.
  BenchOptions options = fig.options;
  options.api = series.api;
  const obs::ObsConfig obs = obs_for(fig, result.label);
  const std::optional<minimpi::CollectiveSuite> suite = suite_for(fig, series);

  try {
    switch (series.library) {
      case Library::kMv2j:
      case Library::kOmpij:
        result.rows = series.library == Library::kMv2j
                          ? run_bindings<bindings::kMv2j>(fig, options, obs,
                                                          suite)
                          : run_bindings<bindings::kOmpij>(fig, options, obs,
                                                           suite);
        break;
      case Library::kNativeMv2:
      case Library::kNativeOmpi: {
        minimpi::UniverseConfig cfg;
        cfg.world_size = fig.ranks;
        cfg.fabric = fabric_for(fig);
        cfg.suite = suite.value_or(series.library == Library::kNativeMv2
                                       ? minimpi::CollectiveSuite::kMv2
                                       : minimpi::CollectiveSuite::kOmpiBasic);
        cfg.apply_suite_profile();
        cfg.obs = obs;
        // The native library has one kind of payload, plain memory: both
        // APIs run the same calls.
        options.api = Api::kBuffer;
        minimpi::Universe::launch(cfg, [&](minimpi::Comm& world) {
          NativeEnv env(world);
          auto r = run_benchmark(fig.kind, env, options);
          if (world.rank() == 0) result.rows = std::move(r);
        });
        break;
      }
    }
  } catch (const UnsupportedOperationError& e) {
    // E.g. Open MPI-J + arrays + non-blocking (the bandwidth benches):
    // the figure reports the series as absent, exactly like the paper.
    result.supported = false;
    result.error = e.what();
  }
  return result;
}

std::vector<SeriesResult> run_figure(const FigureSpec& fig) {
  std::vector<SeriesResult> out;
  out.reserve(fig.series.size());
  for (const SeriesSpec& s : fig.series) {
    std::cerr << "[" << fig.id << "] running series: "
              << (s.label.empty() ? default_label(s) : s.label) << "\n";
    out.push_back(run_series(fig, s));
  }
  return out;
}

Table figure_table(const FigureSpec& fig,
                   const std::vector<SeriesResult>& results) {
  const bool is_bw = fig.kind == BenchKind::kBandwidth ||
                     fig.kind == BenchKind::kBiBandwidth;
  // The nonblocking benchmarks carry a second metric per series: the
  // communication/computation overlap percentage.
  const bool is_overlap = fig.kind == BenchKind::kIbcast ||
                          fig.kind == BenchKind::kIallreduce;
  const std::size_t per_series = is_overlap ? 2 : 1;
  std::vector<std::string> headers{"Size"};
  for (const auto& r : results) {
    headers.push_back(r.label + (is_bw ? " MB/s" : " us"));
    if (is_overlap) headers.push_back(r.label + " ovl%");
  }
  Table table(std::move(headers));

  // Union of sizes, ordered.
  const std::size_t width = results.size() * per_series;
  std::map<std::size_t, std::vector<std::string>> by_size;
  for (std::size_t c = 0; c < results.size(); ++c) {
    for (const auto& row : results[c].rows) {
      auto& cells = by_size[row.size];
      cells.resize(width, "-");
      cells[c * per_series] = fmt_double(row.value, 2);
      if (is_overlap) cells[c * per_series + 1] = fmt_double(row.overlap, 1);
    }
  }
  // Unsupported series: mark every row.
  for (auto& [size, cells] : by_size) {
    cells.resize(width, "-");
    for (std::size_t c = 0; c < results.size(); ++c) {
      if (!results[c].supported) {
        for (std::size_t k = 0; k < per_series; ++k)
          cells[c * per_series + k] = "n/a";
      }
    }
    std::vector<std::string> row{format_size(size)};
    row.insert(row.end(), cells.begin(), cells.end());
    table.add_row(std::move(row));
  }
  return table;
}

double average_ratio(const std::vector<SeriesResult>& results,
                     const std::string& baseline_label,
                     const std::string& candidate_label) {
  const SeriesResult* base = nullptr;
  const SeriesResult* cand = nullptr;
  for (const auto& r : results) {
    if (r.label == baseline_label) base = &r;
    if (r.label == candidate_label) cand = &r;
  }
  if (base == nullptr || cand == nullptr || !base->supported ||
      !cand->supported) {
    return 0.0;
  }
  std::vector<double> ratios;
  for (const auto& b : base->rows) {
    for (const auto& c : cand->rows) {
      if (b.size == c.size && c.value > 0.0) {
        ratios.push_back(b.value / c.value);
        break;
      }
    }
  }
  if (ratios.empty()) return 0.0;
  return geometric_mean(ratios);
}

int figure_main(
    int argc, char** argv, const std::function<void(FigureSpec&)>& setup,
    const std::function<void(const std::vector<SeriesResult>&,
                             const std::string& csv_path)>& report) {
  try {
    FigureSpec fig;
    setup(fig);
    std::string csv_path;
    bool quick = false;
    bool help = false;
    parse_flags(fig, argc, argv, [&](const std::string& flag, auto value) {
      if (flag == "--csv") csv_path = value();
      else if (flag == "--quick") quick = true;
      else if (flag == "--help" || flag == "-h") help = true;
      else return false;
      return true;
    });
    if (help) {
      std::cout << fig.id << ": " << fig.title << "\n"
                << "flags: --ranks N --ppn N --min SZ --max SZ --iters N "
                   "--window N --coll mv2|basic|hier --csv PATH --quick\n"
                   "       --pvars --pvars-json FILE --comm-matrix FILE "
                   "--trace FILE --fault-seed N --drop P --fault-jitter NS\n"
                   "       --kill-rank R@N (docs/FAULTS.md)\n";
      return 0;
    }
    if (quick) {
      fig.options.iters_small = std::min(fig.options.iters_small, 20);
      fig.options.iters_large = std::min(fig.options.iters_large, 5);
      fig.options.warmup_small = std::min(fig.options.warmup_small, 5);
      fig.options.warmup_large = std::min(fig.options.warmup_large, 2);
    }

    std::cout << "== " << fig.id << ": " << fig.title << " ==\n"
              << "ranks=" << fig.ranks << " ppn=" << fig.ppn
              << " sizes=[" << format_size(fig.options.min_size) << ","
              << format_size(fig.options.max_size) << "]\n";
    const auto results = run_figure(fig);
    const Table table = figure_table(fig, results);
    std::cout << table.to_text();
    for (const auto& r : results) {
      if (!r.supported)
        std::cout << "note: " << r.label << " not supported: " << r.error
                  << "\n";
    }
    const bool is_bw = fig.kind == BenchKind::kBandwidth ||
                       fig.kind == BenchKind::kBiBandwidth;
    for (const auto& [base, cand] : fig.ratios) {
      const double ratio = is_bw ? average_ratio(results, cand, base)
                                 : average_ratio(results, base, cand);
      if (ratio > 0.0) {
        std::cout << "avg ratio (" << base << " vs " << cand
                  << "): " << fmt_double(ratio, 2) << "x\n";
      }
    }
    if (report) report(results, csv_path);
    if (!csv_path.empty()) {
      table.write_csv(csv_path);
      std::cout << "csv written to " << csv_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << " failed: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace jhpc::ombj
