// The per-job observability recorder: one pvar registry plus one trace
// ring per rank, behind a single enabled/disabled switch.
//
// Cost discipline: a Universe holds a null Recorder pointer when
// observability is off, so every instrumentation site reduces to one
// inline pointer test — no atomics, no branches into this library. With
// the recorder on, pvar updates are relaxed atomic adds and trace pushes
// are single-writer ring stores.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "jhpc/obs/pvar.hpp"
#include "jhpc/obs/trace.hpp"
#include "jhpc/support/table.hpp"

namespace jhpc::obs {

/// Observability switches, off by default; a minimpi::UniverseConfig takes
/// them from JHPC_PVARS, JHPC_TRACE and the other obs knobs.
struct ObsConfig {
  /// Collect performance variables and print the finalize summary table.
  bool pvars = false;
  /// When non-empty, record trace events and flush Chrome trace-event
  /// JSON to this path at finalize.
  std::string trace_path;
  /// Per-rank trace ring capacity (events); oldest dropped on overflow.
  std::size_t trace_capacity = 64 * 1024;
  /// Track per-(src,dst) message/byte counts and print the finalize
  /// heatmap table.
  bool comm_matrix = false;
  /// When non-empty, also write the matrix as CSV (implies collection).
  std::string comm_matrix_csv;
  /// When non-empty, write a machine-readable JSON dump of every pvar,
  /// histogram and the comm matrix at finalize (implies collection).
  std::string pvars_json_path;
  /// Keep the flight recorder armed whenever observability is on. Cheap
  /// enough to leave on; set to false to opt out.
  bool flight_recorder = true;
  /// Per-rank flight-recorder ring capacity (events).
  std::size_t flight_capacity = 256;
  /// When non-empty, the failure dump is also appended to this file (it
  /// always goes to stderr). Setting it by itself arms observability.
  std::string flight_dump_path;
  /// Collect without the finalize stderr tables. The jhpcd service arms
  /// pvars on tenant jobs to poll quotas (transport counters only exist
  /// when observability is on); thousands of short jobs must not each
  /// print a summary. Failure dumps and file outputs are unaffected.
  bool quiet = false;

  bool enabled() const {
    return pvars || !trace_path.empty() || comm_matrix ||
           !comm_matrix_csv.empty() || !pvars_json_path.empty() ||
           !flight_dump_path.empty();
  }
};

/// Per-(src,dst) traffic accounting: messages and payload bytes, updated
/// with relaxed atomics from the transport's send path.
class CommMatrix {
 public:
  explicit CommMatrix(int ranks);

  int ranks() const { return ranks_; }
  void record(int src, int dst, std::int64_t bytes);
  std::int64_t msgs(int src, int dst) const;
  std::int64_t bytes(int src, int dst) const;
  void reset();

  /// Heatmap table: one row per source rank, cells "msgs/bytes".
  Table to_table() const;
  /// Long-form table (src,dst,msgs,bytes), one row per nonzero pair —
  /// the CSV shape benchmarks diff across runs.
  Table to_pairs_table() const;
  /// to_pairs_table() written as CSV; throws jhpc::Error on I/O failure.
  void write_csv(const std::string& path) const;

 private:
  std::size_t cell(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks_) +
           static_cast<std::size_t>(dst);
  }
  int ranks_;
  std::unique_ptr<std::atomic<std::int64_t>[]> msgs_;   // [ranks^2]
  std::unique_ptr<std::atomic<std::int64_t>[]> bytes_;  // [ranks^2]
};

/// Everything one job records. Thread-safety contract: pvar updates may
/// come from any rank thread (atomics); begin()/end() for rank r must
/// come from rank r's thread only; flush/summary run after the rank
/// threads joined.
class Recorder {
 public:
  Recorder(const ObsConfig& config, int ranks);

  const ObsConfig& config() const { return config_; }
  bool tracing() const { return !config_.trace_path.empty(); }

  PvarRegistry& pvars() { return pvars_; }
  const PvarRegistry& pvars() const { return pvars_; }

  /// The comm matrix, or nullptr when not collecting one.
  CommMatrix* matrix() { return matrix_.get(); }
  const CommMatrix* matrix() const { return matrix_.get(); }

  /// Record a span boundary on rank `rank` at virtual time `vtime_ns`.
  /// No-ops when tracing is off, so callers only guard on the Recorder
  /// pointer itself. The tracer self-reports through the
  /// obs.trace.events / obs.trace.dropped pvars so overflow is never
  /// silent.
  void begin(int rank, const char* name, std::int64_t vtime_ns);
  void end(int rank, const char* name, std::int64_t vtime_ns);

  const std::vector<TraceRing>& rings() const { return rings_; }
  /// Trace events evicted across all ranks.
  std::uint64_t dropped_events() const;

  /// Zero pvar values, clear rings and the matrix (a Universe reuses its
  /// Recorder across run() calls; each job reports its own workload).
  void reset();

  /// Finalize-time summary: every pvar (including the tracer's own).
  Table summary_table() const;

  /// Write the Chrome trace JSON to config().trace_path.
  void write_trace() const;

  /// Write a machine-readable JSON dump (pvars with class/unit/values,
  /// histograms with percentiles, comm matrix when collected) to `path`;
  /// throws jhpc::Error on I/O failure.
  void write_json(const std::string& path) const;

 private:
  ObsConfig config_;
  PvarRegistry pvars_;
  std::vector<TraceRing> rings_;  // one per rank; empty when not tracing
  std::unique_ptr<CommMatrix> matrix_;
  PvarId trace_events_;   // registered only when tracing
  PvarId trace_dropped_;
};

}  // namespace jhpc::obs
