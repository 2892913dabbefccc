#include "jhpc/obs/obs.hpp"

#include <cstdio>
#include <fstream>

#include "jhpc/support/error.hpp"

namespace jhpc::obs {

CommMatrix::CommMatrix(int ranks) : ranks_(ranks) {
  JHPC_REQUIRE(ranks >= 1, "CommMatrix needs at least one rank");
  const std::size_t cells =
      static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks);
  msgs_ = std::make_unique<std::atomic<std::int64_t>[]>(cells);
  bytes_ = std::make_unique<std::atomic<std::int64_t>[]>(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    msgs_[i].store(0, std::memory_order_relaxed);
    bytes_[i].store(0, std::memory_order_relaxed);
  }
}

void CommMatrix::record(int src, int dst, std::int64_t bytes) {
  const std::size_t i = cell(src, dst);
  msgs_[i].fetch_add(1, std::memory_order_relaxed);
  bytes_[i].fetch_add(bytes, std::memory_order_relaxed);
}

std::int64_t CommMatrix::msgs(int src, int dst) const {
  return msgs_[cell(src, dst)].load(std::memory_order_relaxed);
}

std::int64_t CommMatrix::bytes(int src, int dst) const {
  return bytes_[cell(src, dst)].load(std::memory_order_relaxed);
}

void CommMatrix::reset() {
  const std::size_t cells =
      static_cast<std::size_t>(ranks_) * static_cast<std::size_t>(ranks_);
  for (std::size_t i = 0; i < cells; ++i) {
    msgs_[i].store(0, std::memory_order_relaxed);
    bytes_[i].store(0, std::memory_order_relaxed);
  }
}

Table CommMatrix::to_table() const {
  std::vector<std::string> headers{"src\\dst"};
  for (int d = 0; d < ranks_; ++d)
    headers.push_back("rank" + std::to_string(d));
  Table table(std::move(headers));
  for (int s = 0; s < ranks_; ++s) {
    std::vector<std::string> row{"rank" + std::to_string(s)};
    for (int d = 0; d < ranks_; ++d) {
      const std::int64_t m = msgs(s, d);
      row.push_back(m == 0 ? "-"
                           : std::to_string(m) + "/" +
                                 std::to_string(bytes(s, d)));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Table CommMatrix::to_pairs_table() const {
  Table table({"src", "dst", "msgs", "bytes"});
  for (int s = 0; s < ranks_; ++s) {
    for (int d = 0; d < ranks_; ++d) {
      const std::int64_t m = msgs(s, d);
      if (m == 0) continue;
      table.add_row({std::to_string(s), std::to_string(d),
                     std::to_string(m), std::to_string(bytes(s, d))});
    }
  }
  return table;
}

void CommMatrix::write_csv(const std::string& path) const {
  to_pairs_table().write_csv(path);
}

Recorder::Recorder(const ObsConfig& config, int ranks)
    : config_(config), pvars_(ranks) {
  if (tracing()) {
    rings_.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r)
      rings_.emplace_back(config_.trace_capacity);
    // The tracer reports on itself so overflow is never silent.
    trace_events_ =
        pvars_.register_pvar("obs.trace.events", PvarClass::kCounter,
                             "trace span boundaries recorded");
    trace_dropped_ =
        pvars_.register_pvar("obs.trace.dropped", PvarClass::kCounter,
                             "trace events evicted by ring overflow");
  }
  if (config_.comm_matrix || !config_.comm_matrix_csv.empty())
    matrix_ = std::make_unique<CommMatrix>(ranks);
}

void Recorder::begin(int rank, const char* name, std::int64_t vtime_ns) {
  if (rings_.empty()) return;
  const bool evicted = rings_[static_cast<std::size_t>(rank)].push(
      TraceEvent{name, vtime_ns, /*is_begin=*/true});
  pvars_.add(trace_events_, rank, 1);
  if (evicted) pvars_.add(trace_dropped_, rank, 1);
}

void Recorder::end(int rank, const char* name, std::int64_t vtime_ns) {
  if (rings_.empty()) return;
  const bool evicted = rings_[static_cast<std::size_t>(rank)].push(
      TraceEvent{name, vtime_ns, /*is_begin=*/false});
  pvars_.add(trace_events_, rank, 1);
  if (evicted) pvars_.add(trace_dropped_, rank, 1);
}

std::uint64_t Recorder::dropped_events() const {
  std::uint64_t total = 0;
  for (const TraceRing& ring : rings_) total += ring.dropped();
  return total;
}

void Recorder::reset() {
  pvars_.reset_values();
  for (TraceRing& ring : rings_) ring.clear();
  if (matrix_ != nullptr) matrix_->reset();
}

Table Recorder::summary_table() const { return pvars_.to_table(); }

void Recorder::write_trace() const {
  JHPC_REQUIRE(tracing(), "write_trace() with tracing disabled");
  write_chrome_trace(config_.trace_path, rings_);
}

namespace {

void json_escape(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

void Recorder::write_json(const std::string& path) const {
  std::string out = "{\n";
  out += "\"ranks\": " + std::to_string(pvars_.ranks()) + ",\n";

  out += "\"pvars\": [\n";
  bool first = true;
  const auto readings = pvars_.snapshot();
  for (const PvarRegistry::Reading& r : readings) {
    if (!first) out += ",\n";
    first = false;
    out += R"({"name": ")";
    json_escape(out, r.name);
    out += R"(", "class": ")";
    out += pvar_class_name(r.cls);
    out += R"(", "unit": ")";
    out += pvar_unit_name(r.unit);
    out += R"(", "values": [)";
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(r.values[i]);
    }
    out += "], \"total\": " + std::to_string(r.total) + "}";
  }
  out += "\n],\n";

  out += "\"histograms\": [\n";
  first = true;
  for (const PvarRegistry::Reading& r : readings) {
    if (r.cls != PvarClass::kHistogram) continue;
    const HistReading h = pvars_.hist_total(pvars_.find(r.name));
    if (!first) out += ",\n";
    first = false;
    out += R"({"name": ")";
    json_escape(out, r.name);
    out += R"(", "unit": ")";
    out += pvar_unit_name(r.unit);
    out += "\", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"p50\": " + std::to_string(h.percentile(50));
    out += ", \"p90\": " + std::to_string(h.percentile(90));
    out += ", \"p99\": " + std::to_string(h.percentile(99));
    out += ", \"max\": " + std::to_string(h.max) + "}";
  }
  out += "\n]";

  if (matrix_ != nullptr) {
    out += ",\n\"comm_matrix\": [\n";
    first = true;
    for (int s = 0; s < matrix_->ranks(); ++s) {
      for (int d = 0; d < matrix_->ranks(); ++d) {
        const std::int64_t m = matrix_->msgs(s, d);
        if (m == 0) continue;
        if (!first) out += ",\n";
        first = false;
        out += "{\"src\": " + std::to_string(s);
        out += ", \"dst\": " + std::to_string(d);
        out += ", \"msgs\": " + std::to_string(m);
        out += ", \"bytes\": " + std::to_string(matrix_->bytes(s, d)) + "}";
      }
    }
    out += "\n]";
  }
  if (!rings_.empty()) {
    out += ",\n\"trace\": {\"dropped\": " +
           std::to_string(dropped_events()) + "}";
  }
  out += "\n}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  JHPC_REQUIRE(f.good(), "cannot open pvars JSON file for writing: " + path);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  JHPC_REQUIRE(f.good(), "failed to write pvars JSON file: " + path);
}

}  // namespace jhpc::obs
