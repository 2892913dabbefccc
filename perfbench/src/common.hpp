// Shared machinery of the perfbench harness: seeded inputs, the
// percentile rule, per-run outcome accounting, spans and layer peeling.
//
// The harness only calls the library's public API (bindings, minimpi,
// mpjbuf, minijvm, jhpcd, support); every measurement is taken from
// outside the layer it describes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
};

/// splitmix64: small, seedable, identical on every rank that seeds it the
/// same way, so ranks derive one op sequence without talking.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  /// Log-uniform size in [lo, hi], rounded down to a multiple of `align`.
  std::size_t log_size(std::size_t lo, std::size_t hi, std::size_t align);

 private:
  std::uint64_t s_;
};

/// Stream key for (seed, a, b): independent generators per pass/series.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

// --- Percentiles ----------------------------------------------------------

/// The highest reportable percentile for n samples: the largest of 99.9,
/// 99, 95, 90, 75 and 50 that leaves at least 10 samples beyond it; 0 when
/// even the median has fewer than 10 samples above it.
double tail_percentile(std::size_t n);

/// Linear-interpolated percentile of `v` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> v, double p);
/// The same over the first `n` values of `sorted`, already sorted.
double percentile_sorted(const double* sorted, std::size_t n, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// --- Payload patterns -------------------------------------------------------

/// Write the pattern of `key` into a `bytes`-long region. Small regions
/// get every 8-byte word; large ones a strided sample of at most ~512
/// words plus the last word, so verifying a 4 MiB message costs
/// microseconds, not a second pass over the data.
void fill_pattern(void* p, std::size_t bytes, std::uint64_t key);
/// True when the region holds the pattern of `key` at every sampled word.
bool check_pattern(const void* p, std::size_t bytes, std::uint64_t key);

// --- Outcome of one run -------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back: raw samples for the end-to-end metrics and
/// the finished per-layer metrics of a traced run.
/// A uniform reservoir of per-op host latencies. The store is allocated
/// and written up front, so a run's peak RSS does not grow with the
/// number of ops it completes; past its capacity (1 Mi samples) every op
/// seen keeps an equal chance of being in the sample.
class Samples {
 public:
  Samples();
  void add(double x);
  /// Ops recorded (kept or not).
  std::size_t count() const { return seen_; }
  /// Percentile (p in [0, 100]) of the kept samples; sorts them in place.
  double percentile(double p);
  /// Median over consecutive windows of `window` kept samples of each
  /// window's p-th percentile, so a slow spell that covers a minority of
  /// the run does not set the tail; the plain percentile when fewer than
  /// two windows are kept. Reads the samples in arrival order: call it
  /// before percentile().
  double window_percentile(double p, std::size_t window);

 private:
  std::vector<double> store_;
  std::size_t seen_ = 0;
  Rng rng_{0x5eed};
};

/// Ops per window of the op_p99_us estimate: the smallest window that
/// leaves 10 samples beyond its 99th percentile.
inline constexpr std::size_t kTailWindow = 1000;

struct Outcome {
  Samples op_us;                    ///< host wall time per op, us
  std::vector<double> batch_rate;   ///< ops per host second, per batch
  std::vector<double> virt_op_us;   ///< virtual us per op, per batch
  std::vector<double> setup_s;      ///< one entry per set-up repetition
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics layer;                    ///< traced run only
};

/// Seconds since main() entered (the first set-up starts there).
double since_start_s();
void mark_process_start();

/// Peak resident set size of the process, MiB (VmHWM).
double peak_rss_mib();

// --- Spans ----------------------------------------------------------------------

/// One timed region around a call into a layer. Held in memory; written
/// as a Chrome trace when the run ends.
struct Span {
  std::string name;
  std::int64_t op = -1;       ///< op id shared by every span of one op
  int parent = -1;            ///< index of the enclosing span, -1 for roots
  std::int64_t start_ns = 0;  ///< host steady-clock ns
  std::int64_t end_ns = 0;
  std::int64_t virt_ns = 0;   ///< virtual ns the call advanced the clock
};

class SpanLog {
 public:
  /// Spans beyond the cap are counted but not kept.
  explicit SpanLog(std::size_t cap = 200000) : cap_(cap) {}
  /// Append a finished span; returns its index (or -1 when dropped).
  int add(Span s);
  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Write {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome(const std::string& path) const;

 private:
  std::size_t cap_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

// --- Layer peeling -----------------------------------------------------------------

/// One boundary of a peeled op: the time measured around a replay of the
/// op at that layer's public entry point, and the boundaries directly
/// beneath it.
struct PeelNode {
  std::string name;
  double boundary_ns = 0.0;
  std::vector<int> children;  ///< indices into the node vector
};

/// Self time of every node: its boundary minus its children's. The
/// children of a node were measured in separate replays, so noise can
/// make them add up to more than their parent; they are then scaled down
/// to fit. Node 0 is the root. Self times are non-negative and sum to the
/// root's boundary.
std::vector<double> peel_self(const std::vector<PeelNode>& nodes);

/// Record a peeled op as spans: the root span covers [t0, t0+root), and
/// each child is laid out inside its parent in order. Returns the root's
/// span index.
int add_peel_spans(SpanLog& log, const std::vector<PeelNode>& nodes,
                   const std::vector<double>& virt_ns, std::int64_t op,
                   std::int64_t t0);

// --- Output -----------------------------------------------------------------------

/// The end-to-end metric names, in print order.
const std::vector<std::string>& end_to_end_names();
/// The per-layer metric names every traced run reports, in print order.
const std::vector<std::string>& per_layer_names();
/// Units of the per-layer metrics (by name).
std::string per_layer_unit(const std::string& name);

/// Reduce an outcome to the end-to-end metrics.
Metrics end_to_end(Outcome& o);

/// Print one human-readable line per metric, then the result object as the
/// last line of stdout.
void print_result(Outcome& o, bool trace);

}  // namespace perfbench
