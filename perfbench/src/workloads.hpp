// The four workloads, plus the helpers their traced runs share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/minijvm/jarray.hpp"
#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/support/clock.hpp"
#include "probes.hpp"

namespace perfbench {

void run_p2p_small(const Args& args, Outcome& out, SpanLog* spans);
void run_bulk(const Args& args, Outcome& out, SpanLog* spans);
void run_cg_app(const Args& args, Outcome& out, SpanLog* spans);
void run_service(const Args& args, Outcome& out, SpanLog* spans);

/// Number of set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Binding job options for the workloads: explicit values throughout, so
/// no JHPC_* variable reaches a timed run, and the JNI crossing is off.
template <class Opts>
Opts lib_options(int ranks, int ppn, std::size_t heap_mib) {
  Opts o;
  o.ranks = ranks;
  o.fabric = jhpc::netsim::FabricConfig{};
  o.fabric.ranks_per_node = ppn;
  o.jvm = bench_jvm(heap_mib);
  o.obs = jhpc::obs::ObsConfig{};
  if constexpr (requires { o.pool; }) o.pool = jhpc::mpjbuf::FactoryConfig{};
  return o;
}

/// The pass flavours of a traced run (see BENCHMARK.md, "Traced run").
enum class Pass { kTimed, kCounting, kDeterministic };

/// Universe configuration of a pass: counting passes turn pvars on
/// (quietly), deterministic passes turn the CPU passthrough off.
inline jhpc::minimpi::UniverseConfig pass_config(
    jhpc::minimpi::UniverseConfig cfg, Pass pass) {
  if (pass == Pass::kCounting) {
    cfg.obs.pvars = true;
    cfg.obs.quiet = true;
    cfg.obs.flight_recorder = false;
  }
  cfg.deterministic_clock = pass == Pass::kDeterministic;
  return cfg;
}

/// Bind the calling rank thread to one core, as `mpirun --bind-to core`
/// does: slot k takes the k-th CPU the process may run on, wrapping.
/// Unbound, whether two communicating ranks share a core is up to the
/// scheduler; it differs between processes and moved a service job's
/// virtual time by 2x.
void bind_to_core(int slot);

/// Raw storage of a payload, for pattern fill and check.
inline std::byte* raw(const jhpc::minijvm::ByteBuffer& b) {
  return b.storage_address(0);
}
template <class T>
std::byte* raw(const jhpc::minijvm::JArray<T>& a) {
  return a.raw_address();
}

/// Host and virtual ns per call of a replayed boundary.
struct Timed {
  double host_ns = 0.0;  ///< median over batches
  double virt_ns = 0.0;  ///< mean over all calls (vtime delta)
};

/// Call `f` reps x batches times on this rank. The partner rank of a
/// pairwise replay runs its mirror body the same number of times.
template <class F>
Timed timed_calls(const jhpc::minimpi::Comm& c, F&& f, int reps,
                  int batches) {
  std::vector<double> host;
  host.reserve(static_cast<std::size_t>(batches));
  const std::int64_t v0 = c.vtime_ns();
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = jhpc::now_ns();
    for (int i = 0; i < reps; ++i) f();
    host.push_back(static_cast<double>(jhpc::now_ns() - t0) / reps);
  }
  const double calls = static_cast<double>(reps) * batches;
  return {median(host), static_cast<double>(c.vtime_ns() - v0) / calls};
}

/// Replay `reads` thread-CPU clock reads: the clock boundary of a peel.
inline Timed replay_clock(const jhpc::minimpi::Comm& c, double reads) {
  const auto n = static_cast<int>(reads + 0.5);
  volatile std::int64_t sink = 0;
  return timed_calls(
      c,
      [&] {
        for (int i = 0; i < n; ++i) sink = sink + jhpc::thread_cpu_ns();
      },
      200, 9);
}

/// Transport counters summed over a pass (counting passes only).
struct Counters {
  double msgs_sent = 0, msgs_recvd = 0, eager_sent = 0, wait_ns = 0;
  double unexpected_hwm = 0;
  double slab_hits = 0, slab_misses = 0;
  double pool_requests = 0, pool_hits = 0;
  double alg[6] = {0, 0, 0, 0, 0, 0};
  void add_universe(const jhpc::minimpi::Universe& u);
  /// The same counters read from a job's registry (summed over ranks),
  /// for jobs whose Universe the jhpcd fleet keeps to itself.
  void add_registry(const jhpc::obs::PvarRegistry& reg);
  /// Fill the minimpi.*, mpjbuf.pool.hit_ratio and coll.alg_calls.*
  /// metrics.
  void report(Metrics& m) const;
};

/// Fill support.clock.cpu_reads_per_msg, netsim.modelled_ns_per_op and
/// virt.cpu_leak_ns_per_op from the three fixed passes of a traced run.
void report_passes(Metrics& m, const ClockCounts& before,
                   const ClockCounts& after, double msgs, double real_virt_ns,
                   double det_virt_ns, double ops);

/// Per-layer samples of a peel, by metric name.
using PeelSamples = std::map<std::string, std::vector<double>>;

/// Median of the samples gathered for a metric, or 0 when there are none.
inline Metric median_metric(const std::vector<double>& v,
                            const std::string& unit) {
  return {median(v), unit, v.size()};
}

}  // namespace perfbench
