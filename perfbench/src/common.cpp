#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "jhpc/support/clock.hpp"

namespace perfbench {

std::size_t Rng::log_size(std::size_t lo, std::size_t hi, std::size_t align) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi));
  auto v = static_cast<std::size_t>(std::exp(l + (h - l) * unit()));
  v = std::clamp(v, lo, hi);
  return std::max(align, v / align * align);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  r.next();
  return r.next();
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100),
    // computed in integers (per mille) so 1000 samples give exactly 10.
    const auto beyond_permille =
        static_cast<std::size_t>(n) *
        static_cast<std::size_t>(std::lround(1000.0 - 10.0 * p));
    if (beyond_permille >= 10 * 1000) return p;
  }
  return 0.0;
}

double percentile_sorted(const double* sorted, std::size_t n, double p) {
  if (n == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v.data(), v.size(), p);
}

Samples::Samples() : store_(std::size_t{1} << 20, 0.0) {}

void Samples::add(double x) {
  if (seen_ < store_.size()) {
    store_[seen_] = x;
  } else if (const std::uint64_t j = rng_.next() % (seen_ + 1); j < store_.size()) {
    store_[j] = x;
  }
  ++seen_;
}

double Samples::window_percentile(double p, std::size_t window) {
  const std::size_t n = std::min(seen_, store_.size());
  if (n < 2 * window) return percentile(p);
  std::vector<double> per, w(window);
  for (std::size_t s = 0; s + window <= n; s += window) {
    std::copy_n(store_.begin() + static_cast<std::ptrdiff_t>(s), window, w.begin());
    std::sort(w.begin(), w.end());
    per.push_back(percentile_sorted(w.data(), window, p));
  }
  return median(std::move(per));
}

double Samples::percentile(double p) {
  const std::size_t n = std::min(seen_, store_.size());
  std::sort(store_.begin(), store_.begin() + static_cast<std::ptrdiff_t>(n));
  return percentile_sorted(store_.data(), n, p);
}

namespace {

std::size_t pattern_stride(std::size_t bytes) {
  const std::size_t words = bytes / 8;
  if (words <= 512) return 8;
  return (words / 512) * 8;
}

std::uint64_t pattern_word(std::uint64_t key, std::size_t off) {
  return mix(key, off);
}

}  // namespace

void fill_pattern(void* p, std::size_t bytes, std::uint64_t key) {
  auto* b = static_cast<unsigned char*>(p);
  if (bytes < 8) {
    const std::uint64_t w = pattern_word(key, 0);
    std::memcpy(b, &w, bytes);
    return;
  }
  const std::size_t stride = pattern_stride(bytes);
  for (std::size_t off = 0; off + 8 <= bytes; off += stride) {
    const std::uint64_t w = pattern_word(key, off);
    std::memcpy(b + off, &w, 8);
  }
  const std::uint64_t last = pattern_word(key, bytes - 8);
  std::memcpy(b + bytes - 8, &last, 8);
}

bool check_pattern(const void* p, std::size_t bytes, std::uint64_t key) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t w = 0;
  if (bytes < 8) {
    const std::uint64_t want = pattern_word(key, 0);
    return std::memcmp(b, &want, bytes) == 0;
  }
  const std::size_t stride = pattern_stride(bytes);
  for (std::size_t off = 0; off + 8 <= bytes; off += stride) {
    std::memcpy(&w, b + off, 8);
    // The last word is written after the strided ones and may overlap
    // the final strided word; that word is checked below instead.
    if (off + 16 > bytes) break;
    if (w != pattern_word(key, off)) return false;
  }
  std::memcpy(&w, b + bytes - 8, 8);
  return w == pattern_word(key, bytes - 8);
}

namespace {
std::int64_t g_start_ns = 0;
}  // namespace

void mark_process_start() { g_start_ns = jhpc::now_ns(); }

double since_start_s() {
  return static_cast<double>(jhpc::now_ns() - g_start_ns) * 1e-9;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int SpanLog::add(Span s) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"op\": %lld, \"host_ns\": %lld, "
                  "\"virt_ns\": %lld}}%s\n",
                  s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.op),
                  static_cast<long long>(s.end_ns - s.start_ns),
                  static_cast<long long>(s.virt_ns),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
}

std::vector<double> peel_self(const std::vector<PeelNode>& nodes) {
  std::vector<double> self(nodes.size(), 0.0);
  if (nodes.empty()) return self;
  // Effective boundary of each node after fitting it into its parent.
  std::vector<double> eff(nodes.size(), 0.0);
  eff[0] = std::max(0.0, nodes[0].boundary_ns);
  // Parents precede children (the replays are listed top-down), so one
  // forward pass fits every node before its children are visited.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double sum = 0.0;
    for (const int c : nodes[i].children) {
      sum += std::max(0.0, nodes[static_cast<std::size_t>(c)].boundary_ns);
    }
    const double scale = sum > eff[i] && sum > 0.0 ? eff[i] / sum : 1.0;
    double used = 0.0;
    for (const int c : nodes[i].children) {
      const auto ci = static_cast<std::size_t>(c);
      eff[ci] = std::max(0.0, nodes[ci].boundary_ns) * scale;
      used += eff[ci];
    }
    self[i] = std::max(0.0, eff[i] - used);
  }
  return self;
}

int add_peel_spans(SpanLog& log, const std::vector<PeelNode>& nodes,
                   const std::vector<double>& virt_ns, std::int64_t op,
                   std::int64_t t0) {
  if (nodes.empty()) return -1;
  std::vector<double> self = peel_self(nodes);
  // Effective duration = self + effective children, computed bottom-up.
  std::vector<double> dur(nodes.size(), 0.0);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    dur[i] = self[i];
    for (const int c : nodes[i].children) dur[i] += dur[static_cast<std::size_t>(c)];
  }
  std::vector<int> index(nodes.size(), -1);
  std::vector<std::int64_t> start(nodes.size(), t0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    int parent = -1;
    for (std::size_t j = 0; j < i; ++j) {
      for (const int c : nodes[j].children) {
        if (static_cast<std::size_t>(c) == i) parent = index[j];
      }
    }
    Span s;
    s.name = nodes[i].name;
    s.op = op;
    s.parent = parent;
    s.start_ns = start[i];
    s.end_ns = start[i] + static_cast<std::int64_t>(std::llround(dur[i]));
    s.virt_ns = i < virt_ns.size()
                    ? static_cast<std::int64_t>(std::llround(virt_ns[i]))
                    : 0;
    index[i] = log.add(s);
    // Children are laid out back to back from the parent's start.
    std::int64_t cursor = start[i];
    for (const int c : nodes[i].children) {
      const auto ci = static_cast<std::size_t>(c);
      start[ci] = cursor;
      cursor += static_cast<std::int64_t>(std::llround(dur[ci]));
    }
  }
  return index[0];
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "ops_per_s", "op_p50_us", "op_p99_us", "virt_op_p50_us",
      "setup_s",   "peak_rss_mib"};
  return names;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const std::vector<std::pair<std::string, std::string>> t = {
      {"mv2j.buffer.self_ns", "ns"},
      {"mv2j.arrays.self_ns", "ns"},
      {"ompij.buffer.self_ns", "ns"},
      {"ompij.arrays.self_ns", "ns"},
      {"minijvm.jni.array_copy_ns_per_kib", "ns/KiB"},
      {"minijvm.bytebuffer.accessor_ns", "ns"},
      {"mpjbuf.get_release_ns", "ns"},
      {"mpjbuf.pool.hit_ratio", "ratio"},
      {"mpjbuf.stage_ns_per_kib", "ns/KiB"},
      {"minimpi.pingpong.half_rtt_ns", "ns"},
      {"minimpi.stream.msg_ns", "ns"},
      {"minimpi.slab.hit_ratio", "ratio"},
      {"minimpi.eager_ratio", "ratio"},
      {"minimpi.wait_ns_per_msg", "ns"},
      {"minimpi.unexpected_hwm", "count"},
      {"coll.bcast.call_ns", "ns"},
      {"coll.allreduce.call_ns.small", "ns"},
      {"coll.allreduce.call_ns.large", "ns"},
      {"coll.alg_calls.bcast.binomial", "count"},
      {"coll.alg_calls.bcast.scatter_ring", "count"},
      {"coll.alg_calls.bcast.linear", "count"},
      {"coll.alg_calls.allreduce.recursive_doubling", "count"},
      {"coll.alg_calls.allreduce.ring", "count"},
      {"coll.alg_calls.allreduce.linear", "count"},
      {"netsim.modelled_ns_per_op", "ns"},
      {"virt.cpu_leak_ns_per_op", "ns"},
      {"support.clock.cpu_reads_per_msg", "count"},
      {"support.clock.thread_cpu_read_ns", "ns"},
      {"support.clock.now_read_ns", "ns"},
      {"support.burn_ratio", "ratio"},
      {"jhpcd.queue_wait_p50_us.latency", "us"},
      {"jhpcd.queue_wait_p99_us.latency", "us"},
      {"jhpcd.queue_wait_p50_us.bandwidth", "us"},
      {"jhpcd.queue_wait_p99_us.bandwidth", "us"},
      {"jhpcd.universe_reuse_ratio", "ratio"},
      {"jhpcd.depot_hwm_bytes", "bytes"},
      {"jhpcd.reject_ratio", "ratio"},
      {"jhpcd.gen_lag_p99_us", "us"},
      {"trace.overhead_ratio", "ratio"},
  };
  return t;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, unit] : per_layer_table()) n.push_back(name);
    return n;
  }();
  return names;
}

std::string per_layer_unit(const std::string& name) {
  for (const auto& [n, unit] : per_layer_table()) {
    if (n == name) return unit;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

Metrics end_to_end(Outcome& o) {
  Metrics m;
  m["ops_per_s"] = {median(o.batch_rate), "1/s", o.batch_rate.size()};
  // The windowed tail reads samples in arrival order, before the sort.
  m["op_p99_us"] = {o.op_us.window_percentile(99.0, kTailWindow), "us",
                    o.op_us.count()};
  m["op_p50_us"] = {o.op_us.percentile(50.0), "us", o.op_us.count()};
  m["virt_op_p50_us"] = {median(o.virt_op_us), "us", o.virt_op_us.size()};
  m["setup_s"] = {median(o.setup_s), "s", o.setup_s.size()};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB", 1};
  return m;
}

void print_result(Outcome& o, bool trace) {
  const Metrics e2e = end_to_end(o);
  const double fail_ratio =
      o.attempted > 0 ? static_cast<double>(o.failed) /
                            static_cast<double>(o.attempted)
                      : 1.0;
  for (const std::string& name : end_to_end_names()) {
    const Metric& m = e2e.at(name);
    std::printf("%-44s %16.6f %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("%-44s %16.6f %-6s n=%lld\n", "failed_op_ratio", fail_ratio,
              "ratio", static_cast<long long>(o.attempted));
  const double tail = tail_percentile(o.op_us.count());
  std::printf("# op_p99_us: median of p99 over windows of %zu ops; %zu "
              "samples, the highest percentile with >=10 samples beyond it "
              "is p%g\n",
              kTailWindow, o.op_us.count(), tail);
  if (trace) {
    for (const std::string& name : per_layer_names()) {
      const auto it = o.layer.find(name);
      const Metric m = it != o.layer.end() ? it->second : Metric{};
      std::printf("%-44s %16.6f %-6s n=%zu\n", name.c_str(), m.value,
                  per_layer_unit(name).c_str(), m.samples);
    }
  }

  std::ostringstream js;
  js << "{\"correct\": " << (o.failed == 0 && o.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << fmt(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const std::string& name : per_layer_names()) {
      const auto it = o.layer.find(name);
      emit(name, it != o.layer.end() ? it->second.value : 0.0,
           per_layer_unit(name));
    }
  } else {
    for (const std::string& name : end_to_end_names()) {
      emit(name, e2e.at(name).value, e2e.at(name).unit);
    }
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
