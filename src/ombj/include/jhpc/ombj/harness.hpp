// The figure harness: runs one benchmark kind across several
// library/API series — each series as its own job on a fresh virtual
// cluster — and merges the per-size results into one OMB-style table.
// Every fig*_ binary in bench/ is a thin FigureSpec around this.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "jhpc/netsim/fabric.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/ombj/options.hpp"
#include "jhpc/support/table.hpp"

namespace jhpc::ombj {

/// One plotted line of a paper figure.
struct SeriesSpec {
  Library library;
  Api api;
  std::string label;  ///< column header; defaults to "<lib> <api>" if empty
  /// Collective-engine override for this series: "mv2", "basic" or
  /// "hier" (empty = the library's own default suite). Lets one figure
  /// compare engines on the same library, e.g. the hier crossover
  /// ablation.
  std::string coll;
};

/// One paper figure (or ablation) to regenerate.
struct FigureSpec {
  /// Takes `ppn`, `fabric`, `obs` and `coll` from the JHPC_* knobs.
  FigureSpec();

  std::string id;            ///< e.g. "fig05"
  std::string title;         ///< human description printed above the table
  BenchKind kind = BenchKind::kLatency;
  BenchOptions options{};
  int ranks = 2;
  /// Ranks per virtual node (0 = all on one node, the intra-node setup).
  int ppn = 0;
  netsim::FabricConfig fabric{};  ///< latency/bandwidth knobs (ppn is set
                                  ///< from `ppn` above)
  std::vector<SeriesSpec> series;
  /// (baseline label, candidate label) pairs; figure_main prints the
  /// geometric-mean baseline/candidate ratio for each — the paper's
  /// "factor of N on average over all message sizes".
  std::vector<std::pair<std::string, std::string>> ratios;
  /// Observability for every series' job (--pvars / --trace flags, or the
  /// JHPC_PVARS / JHPC_TRACE env). Multi-series figures tag the trace
  /// path per series ("out.json" -> "out.mv2j_buffer.json").
  obs::ObsConfig obs{};
  /// Figure-wide collective-engine override (`--coll mv2|basic|hier`,
  /// JHPC_COLL); a series' own `coll` wins over this.
  std::string coll;
};

/// Takes a flag parse_flags does not know (and its `value()`); false
/// when the flag is unknown here too.
using FlagFn = std::function<bool(const std::string& flag,
                                  const std::function<std::string()>& value)>;

/// Applies the flags ombj and the figure binaries share to `fig`, in argv
/// order, and any other flag through `other`. A flag that mirrors a knob
/// parses through the knob's row; --ranks, --iters and --window must be
/// at least 1. Throws InvalidArgumentError on a bad value or flag.
void parse_flags(FigureSpec& fig, int argc, char** argv, const FlagFn& other);

/// Run one series in a fresh job; never throws for unsupported
/// combinations (reports them in the result instead).
SeriesResult run_series(const FigureSpec& fig, const SeriesSpec& series);

/// Run all series and merge rows by message size.
std::vector<SeriesResult> run_figure(const FigureSpec& fig);

/// Render merged results as an OMB-style table (first column: size).
Table figure_table(const FigureSpec& fig,
                   const std::vector<SeriesResult>& results);

/// Geometric-mean ratio between two series (baseline / candidate per
/// size), the paper's "factor of N on average over all message sizes".
/// Returns 0 when either series is missing/unsupported.
double average_ratio(const std::vector<SeriesResult>& results,
                     const std::string& baseline_label,
                     const std::string& candidate_label);

/// Standard entry point for the bench/fig*_ binaries: build a FigureSpec,
/// let `setup` fill it in, apply the shared flags plus --csv, --quick and
/// --help, run, print (then `report`, if given), write CSV. Returns the
/// exit code: 1, with the reason on stderr, when anything fails.
int figure_main(
    int argc, char** argv, const std::function<void(FigureSpec&)>& setup,
    const std::function<void(const std::vector<SeriesResult>&,
                             const std::string& csv_path)>& report = {});

}  // namespace jhpc::ombj
