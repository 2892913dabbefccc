// The measurement harness of the BENCH_*.json writers and the
// micro-ablations: one command-line parser, the sample loop with
// bootstrap CIs, the windowed wall-clock run and its transport.slab.misses
// probe, one schema-2 JSON writer with one embedded baseline level, the
// floor check, and the per-call timer of the micro-ablations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/obs/pvar.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/stats.hpp"
#include "jhpc/support/table.hpp"

namespace jhpc::bench {

// --- Command line -----------------------------------------------------------

/// What a binary accepts besides --quick: --json/--baseline when it
/// writes a BENCH file (`json` is the default path), a floor flag, --csv.
struct Spec {
  const char* json = nullptr;
  const char* floor = nullptr;  ///< e.g. "--min-speedup"
  bool csv = false;
};

struct Args {
  bool quick = false;
  std::string json;
  std::string baseline;  ///< the --baseline record's JSON text
  std::string csv;
  double floor = 0.0;  ///< 0: no floor
};

/// The baseline file's JSON with its own "baseline" dropped, so a record
/// embeds one level only. Exits 2 when the file cannot be read.
inline std::string read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string blob = ss.str();
  const std::size_t nested = blob.find(",\n  \"baseline\": ");
  if (nested != std::string::npos) blob = blob.substr(0, nested) + "\n}";
  while (!blob.empty() && (blob.back() == '\n' || blob.back() == '\r'))
    blob.pop_back();
  return blob;
}

/// Parse argv against `spec`. Prints the usage and exits 2 on an unknown
/// flag, a missing value, or a floor that is not a non-negative number.
inline Args parse_args(int argc, char** argv, const Spec& spec) {
  std::string usage = std::string("usage: ") + argv[0] + " [--quick]";
  if (spec.csv) usage += " [--csv PATH]";
  if (spec.json != nullptr) usage += " [--json PATH] [--baseline PATH]";
  if (spec.floor != nullptr) usage += std::string(" [") + spec.floor + " X]";
  const auto bad_usage = [&usage] {
    std::fprintf(stderr, "%s\n", usage.c_str());
    std::exit(2);
  };
  Args args;
  if (spec.json != nullptr) args.json = spec.json;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool valued = i + 1 < argc;
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--csv" && spec.csv && valued) {
      args.csv = argv[++i];
    } else if (a == "--json" && spec.json != nullptr && valued) {
      args.json = argv[++i];
    } else if (a == "--baseline" && spec.json != nullptr && valued) {
      args.baseline = read_baseline(argv[++i]);
    } else if (spec.floor != nullptr && a == spec.floor && valued) {
      const char* value = argv[++i];
      char* end = nullptr;
      args.floor = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.floor >= 0.0)) bad_usage();
    } else {
      bad_usage();
    }
  }
  return args;
}

// --- Sampling ---------------------------------------------------------------

/// A sampled configuration: the mean wall seconds per sample, and the
/// bootstrap mean and 95% CI of the per-sample rate.
struct Sampled {
  double seconds = 0.0;
  BootstrapCI rate;
};

/// `samples` runs of `run(k)`, each returning wall seconds (k == 0 may
/// carry the warm-up); the rate of a sample is `work / seconds`.
template <typename RunFn>
Sampled sample(int samples, double work, RunFn&& run) {
  std::vector<double> rates;
  double total = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double secs = run(k);
    total += secs;
    rates.push_back(secs > 0 ? work / secs : 0.0);
  }
  return {total / samples, bootstrap_ci(rates)};
}

// --- Windowed runs on a Universe ----------------------------------------------

/// Rank 0's view of the measured windows of one run.
struct Windows {
  double seconds = 0.0;       ///< wall time over the measured windows
  double slab_misses = -1.0;  ///< transport.slab.misses per window; -1:
                              ///< pvars off or the counter absent
};

/// One run on `u`: every rank calls `rank_fn(world, run)` and hands its
/// per-window step to `run`, which does `warmup` windows, then `windows`
/// measured ones between barriers.
template <typename RankFn>
Windows run_windows(minimpi::Universe& u, int warmup, int windows,
                    RankFn&& rank_fn) {
  Windows out;
  u.run([&](minimpi::Comm& world) {
    rank_fn(world, [&](auto&& window) {
      for (int w = 0; w < warmup; ++w) window();
      world.barrier();
      obs::PvarRegistry* reg = world.pvars();
      const obs::PvarId misses = reg != nullptr
                                     ? reg->find("transport.slab.misses")
                                     : obs::PvarId{};
      const std::int64_t m0 = misses.valid() ? reg->total(misses) : 0;
      world.barrier();
      const std::int64_t t0 = now_ns();
      for (int w = 0; w < windows; ++w) window();
      world.barrier();
      if (world.rank() != 0) return;
      out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
      if (misses.valid()) {
        out.slab_misses =
            static_cast<double>(reg->total(misses) - m0) / windows;
      }
    });
  });
  return out;
}

/// Steady-state slab misses per window of `rank_fn`'s traffic, on a fresh
/// Universe of `cfg` with the pvars armed (and their dump silenced).
template <typename RankFn>
double slab_misses_per_window(minimpi::UniverseConfig cfg, int warmup,
                              int windows, RankFn&& rank_fn) {
  cfg.obs.pvars = true;
  cfg.obs.quiet = true;
  minimpi::Universe u(cfg);
  return run_windows(u, warmup, windows, rank_fn).slab_misses;
}

// --- The schema-2 JSON record -------------------------------------------------

/// Named fields in write order; each value is already JSON text.
using Fields = std::vector<std::pair<std::string, std::string>>;

inline std::string num(double v) {
  char out[64];
  std::snprintf(out, sizeof(out), "%.3f", v);
  return out;
}
inline std::string integer(std::int64_t v) { return std::to_string(v); }
inline std::string str(const std::string& s) { return "\"" + s + "\""; }
inline std::string boolean(bool b) { return b ? "true" : "false"; }
inline std::string nums(const std::vector<double>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i)
    out += (i == 0 ? "" : ", ") + num(vs[i]);
  return out + "]";
}

/// Write `{"bench", "schema": 2, head..., "results": [rows...], tail...,
/// "baseline"}` to args.json; the baseline only when --baseline was given.
inline void write_json(const Args& args, const std::string& bench,
                       const Fields& head, const std::vector<Fields>& rows,
                       const Fields& tail) {
  const auto fields = [](std::ostringstream& os, const Fields& fs) {
    for (const auto& [name, value] : fs)
      os << "  \"" << name << "\": " << value << ",\n";
  };
  std::ostringstream os;
  os << "{\n  \"bench\": " << str(bench) << ",\n  \"schema\": 2,\n";
  fields(os, head);
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    {";
    for (std::size_t k = 0; k < rows[i].size(); ++k) {
      os << (k == 0 ? "" : ", ") << "\"" << rows[i][k].first
         << "\": " << rows[i][k].second;
    }
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  fields(os, tail);
  if (!args.baseline.empty())
    os << "  \"baseline\": " << args.baseline << ",\n";
  std::string text = os.str();
  text.replace(text.size() - 2, 2, "\n}\n");  // the last field's comma
  std::ofstream(args.json) << text;
  std::fprintf(stderr, "[%s] wrote %s\n", bench.c_str(), args.json.c_str());
}

/// The floor check: false (after a FAIL line) when a floor is set and
/// `value` is below it.
inline bool above_floor(const Args& args, const std::string& bench,
                        const char* what, double value, const char* unit) {
  if (args.floor <= 0 || value >= args.floor) return true;
  std::fprintf(stderr,
               "[%s] FAIL: %s %.2f%s is below the floor of %.2f%s\n",
               bench.c_str(), what, value, unit, args.floor, unit);
  return false;
}

// --- Micro-ablations ------------------------------------------------------------

/// Make `v` observable and every pending write visible to the compiler,
/// so the work around it is neither dropped nor merged across calls.
template <typename T>
inline void escape(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

/// The median over batches of the mean host ns per call of `f`, a call
/// that touches `bytes`: 15 batches of about 4 MiB of work (5 of 256 KiB
/// with --quick).
template <typename F>
double ns_per_call(const Args& args, std::size_t bytes, F&& f) {
  const std::size_t budget = args.quick ? 256u << 10 : 4u << 20;
  const auto reps = static_cast<int>(std::max<std::size_t>(1, budget / bytes));
  SampleSet per;
  for (int b = 0; b < (args.quick ? 5 : 15); ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) f();
    per.add(static_cast<double>(now_ns() - t0) / reps);
  }
  return per.median();
}

/// `lo`, 8 lo, 64 lo, ... up to `hi`: a micro-ablation's size sweep.
inline std::vector<std::size_t> sizes_x8(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  for (std::size_t n = lo; n <= hi; n *= 8) out.push_back(n);
  return out;
}

/// The micro-ablations' main: parses --quick/--csv, lets
/// `fill(args, table)` add the rows, prints the table under `title` and
/// mirrors it to --csv; 1, with the reason, when `fill` throws.
template <typename FillFn>
int ablation_main(int argc, char** argv, const std::string& title,
                  std::vector<std::string> headers, FillFn&& fill) try {
  const Args args = parse_args(argc, argv, {.csv = true});
  Table table(std::move(headers));
  fill(args, table);
  std::cout << "== " << title << " ==\n" << table.to_text();
  if (!args.csv.empty()) {
    table.write_csv(args.csv);
    std::cout << "csv written to " << args.csv << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}

}  // namespace jhpc::bench
