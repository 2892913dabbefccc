// The knob registry: every JHPC_* environment variable is one row. A
// KnobEnv is the only reader of the environment; the config that owns a
// knob's field parses it through the row, and so does a flag that
// mirrors the knob. A bad value throws InvalidArgumentError naming the
// knob. Precedence: compiled default < environment < program code <
// flag (README, Configuration).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace jhpc {

enum class KnobType : std::uint8_t {
  kBool,    ///< 1/true/yes/on or 0/false/no/off, any case
  kInt,     ///< an integer in [lo, hi]
  kReal,    ///< a number in [lo, hi], or (lo, hi] when lo_open
  kChoice,  ///< one of `choices`, "a|b|c" in the order of the enum it sets
  kText,    ///< a path, or a spec its owner parses (named in the doc)
};

struct KnobRow {
  const char* name;
  KnobType type;
  double lo, hi;
  const char* doc;
  const char* choices = nullptr;
  bool lo_open = false;
};

/// Every knob, grouped by the config that binds it: fabric, Universe,
/// JVM and pool, obs, faults, service. README's Configuration table lists
/// the same names (config_test checks both ways).
inline constexpr auto kKnobs = [] {
  using enum KnobType;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return std::to_array<KnobRow>({
      {"JHPC_PPN", kInt, 0, kInf, "ranks per virtual node (0 = one node)"},
      {"JHPC_INTER_LAT_NS", kInt, 0, kInf, "one-way inter-node latency, ns"},
      {"JHPC_INTER_BW_MBPS", kReal, 0, kInf, "link bandwidth, MB/s", nullptr,
       true},
      {"JHPC_INTRA_LAT_NS", kInt, 0, kInf, "intra-node hand-off latency, ns"},
      {"JHPC_PLACEMENT", kChoice, 0, 0, "rank-to-node mapping", "block|rr"},
      {"JHPC_EAGER_LIMIT", kInt, 0, kInf, "eager/rendezvous switch, bytes"},
      {"JHPC_COLL", kChoice, 0, 0, "collective suite", "mv2|basic|hier"},
      {"JHPC_HIER_FLAG_NS", kInt, 0, kInf, "hier shared-flag hand-off, ns"},
      {"JHPC_DET_CLOCK", kBool, 0, 1, "virtual-clock-only timing"},
      {"JHPC_JNI_CROSS_NS", kInt, 0, kInf, "modelled JNI crossing cost, ns"},
      {"JHPC_HEAP_MB", kInt, 1, 1 << 30, "managed heap per JVM, MiB"},
      {"JHPC_MAX_DIRECT_MB", kInt, 0, 1 << 30, "direct-buffer cap, MiB"},
      {"JHPC_POOL_MIN_CAPACITY", kInt, 64, kInf, "smallest pooled buffer"},
      {"JHPC_POOL_MAX_BUFFERS", kInt, 0, kInf, "staging-pool retention cap"},
      {"JHPC_PVARS", kBool, 0, 1, "print MPI_T-style counters at finalize"},
      {"JHPC_TRACE", kText, 0, 0, "Chrome trace (virtual clock) path"},
      {"JHPC_TRACE_CAPACITY", kInt, 1, kInf, "per-rank trace ring, events"},
      {"JHPC_COMM_MATRIX", kBool, 0, 1, "print the comm-matrix heatmap"},
      {"JHPC_COMM_MATRIX_CSV", kText, 0, 0, "comm-matrix CSV path"},
      {"JHPC_PVARS_JSON", kText, 0, 0, "pvar + histogram JSON path"},
      {"JHPC_FLIGHT_RECORDER", kBool, 0, 1, "protocol flight recorder"},
      {"JHPC_FLIGHT_RECORDER_CAPACITY", kInt, 1, kInf, "flight ring, events"},
      {"JHPC_FLIGHT_RECORDER_DUMP", kText, 0, 0, "append failure dumps here"},
      {"JHPC_FAULT_SEED", kInt, 0, kInf, "fault-injection seed"},
      {"JHPC_FAULT_DROP", kReal, 0, 1, "per-attempt drop probability"},
      {"JHPC_FAULT_JITTER_NS", kInt, 0, kInf, "max latency jitter, ns"},
      {"JHPC_FAULT_DOWN", kText, 0, 0, "FROM:UNTIL ns (FaultPlan::parse_down)"},
      {"JHPC_FAULT_BW_FACTOR", kReal, 0, 1, "bandwidth degradation", nullptr,
       true},
      {"JHPC_FAULT_LINKS", kText, 0, 0, "link overrides (parse_links)"},
      {"JHPC_FAULT_RTO_NS", kInt, 1, kInf, "initial retransmit timeout, ns"},
      {"JHPC_FAULT_RTO_MAX_NS", kInt, 1, kInf, "backoff cap, ns (>= RTO)"},
      {"JHPC_FAULT_TIMEOUT_NS", kInt, 1, kInf, "delivery budget, ns"},
      {"JHPC_FAULT_KILL", kText, 0, 0, "R@VNS[;...] (FaultPlan::parse_kills)"},
      {"JHPC_FAULT_HB_NS", kInt, 0, kInf, "failure-detection heartbeat, ns"},
      {"JHPC_SVC_WORKERS", kInt, 1, 256, "concurrently running jobs"},
      {"JHPC_SVC_QUEUE_CAP", kInt, 1, kInf, "admission-queue capacity"},
      {"JHPC_SVC_DEPOT_MAX_BYTES", kInt, 1, kInf, "fleet slab-depot ceiling"},
      {"JHPC_SVC_POOL_CAP", kInt, 0, kInf, "idle Universes parked for reuse"},
      {"JHPC_SVC_LATENCY_WEIGHT", kInt, 1, 64, "latency jobs per bandwidth"},
      {"JHPC_SVC_MAX_RANKS", kInt, 1, kInf, "world-size ceiling per job"},
  });
}();

/// A row of kKnobs, named by a string literal looked up at compile time:
/// a name with no row reads past the table and does not compile.
class Knob {
 public:
  consteval Knob(const char* name) {  // NOLINT: implicit by design
    while (std::string_view(kKnobs.at(index_).name) != name) ++index_;
  }
  std::size_t index() const { return index_; }
  const KnobRow& row() const { return kKnobs[index_]; }

 private:
  std::size_t index_ = 0;
};

// The row parsers. knob_int also caps the value at `max`, the most the
// field holds; knob_choice returns the index into the row's choices.
bool knob_bool(Knob k, std::string_view text);
std::int64_t knob_int(Knob k, std::string_view text, double max);
double knob_real(Knob k, std::string_view text);
std::size_t knob_choice(Knob k, std::string_view text);

/// `text` as knob `k`'s value for a field of type T: bool, an integer, a
/// floating-point number, the enum a choice row sets, or a string (which
/// must be one of a choice row's choices).
template <class T>
T parse_knob(Knob k, std::string_view text) {
  if constexpr (std::is_same_v<T, bool>) {
    return knob_bool(k, text);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(knob_choice(k, text));
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(knob_int(
        k, text,
        sizeof(T) < 8 ? std::numeric_limits<T>::max()
                      : std::numeric_limits<double>::infinity()));
  } else if constexpr (std::is_floating_point_v<T>) {
    return knob_real(k, text);
  } else {
    if (k.row().type == KnobType::kChoice) knob_choice(k, text);
    return T(text);
  }
}

/// The JHPC_* entries of the environment, taken in one pass over
/// `environ`, not one lookup per knob. Names with no row are ignored.
class KnobEnv {
 public:
  KnobEnv();
  /// `k`'s value, or nullptr when unset or empty (valid while the
  /// environment is unchanged).
  const char* raw(Knob k) const { return raw_[k.index()]; }
  /// When `k` is set, parse it into `field` and return true.
  template <class T>
  bool get(Knob k, T& field) const {
    if (raw(k) != nullptr) field = parse_knob<T>(k, raw(k));
    return raw(k) != nullptr;
  }

 private:
  std::array<const char*, kKnobs.size()> raw_{};
};

}  // namespace jhpc
