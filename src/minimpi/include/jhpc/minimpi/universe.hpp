// The Universe: one MPI "job". Owns the endpoints, the fabric model and
// the configuration; runs each rank as a thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/slab_depot.hpp"
#include "jhpc/minimpi/types.hpp"
#include "jhpc/netsim/fabric.hpp"
#include "jhpc/obs/obs.hpp"

namespace jhpc::minimpi {

/// Per-job configuration (the mpirun command line, in effect).
struct UniverseConfig {
  /// Number of ranks.
  int world_size = 2;
  /// Virtual cluster layout and link parameters.
  netsim::FabricConfig fabric{};
  /// Messages up to this many bytes use the eager protocol (copied through
  /// an internal buffer, sender completes immediately); larger messages
  /// rendezvous (single direct copy once both sides are ready).
  /// Env override: JHPC_EAGER_LIMIT.
  std::size_t eager_limit = 16 * 1024;
  /// Collective-algorithm suite ("which native MPI library this is").
  CollectiveSuite suite = CollectiveSuite::kMv2;

  /// Extra per-message sender-side cost for INTRA-NODE messages, ns.
  /// Models the vendor's shared-memory channel: MVAPICH2's kernel-assisted
  /// single-copy path is markedly cheaper per message than a double-copy
  /// bounce-buffer design; the paper's Figure 5 (intra-node small-message
  /// latency, MVAPICH2-J ~2.46x ahead) is driven by exactly this native
  /// difference. Applied in the transport's deliver path. Calibrated via
  /// suite_profile().
  std::int64_t intra_send_overhead_ns = 0;

  /// Apply the per-suite point-to-point channel profile (see
  /// intra_send_overhead_ns); keeps all vendor calibration in one place.
  /// hier shares mv2's kernel-assisted shared-memory channel (it IS the
  /// MVAPICH2-style library, with smarter collectives on top).
  UniverseConfig& apply_suite_profile() {
    intra_send_overhead_ns =
        suite == CollectiveSuite::kOmpiBasic ? 3000 : 0;
    return *this;
  }

  /// Modelled cost of observing a peer's shared-flag update in the hier
  /// suite's intra-node release/gather trees, ns (one cache-line transfer
  /// between cores, not a trip through the shared-memory channel). This
  /// is what makes the hierarchy pay off: an intra-node hand-off costs
  /// hier_flag_ns instead of intra_latency_ns per tree hop. Env:
  /// JHPC_HIER_FLAG_NS.
  std::int64_t hier_flag_ns = 40;

  /// Fleet-shared slab depot (see jhpc/minimpi/slab_depot.hpp). Null —
  /// the default — gives the Universe a private, uncapped depot with the
  /// pre-fleet behavior. A jhpcd fleet passes one make_slab_depot()
  /// handle to every Universe it creates so completed jobs donate warm
  /// slabs to the next tenant and the depot ceiling bounds fleet memory.
  SlabDepotPtr shared_depot;

  /// Observability (MPI_T-style pvars + virtual-clock event tracing).
  /// Off by default and strictly zero-cost then: every instrumentation
  /// site guards on one null pointer. Env: JHPC_PVARS / JHPC_TRACE /
  /// JHPC_TRACE_CAPACITY.
  obs::ObsConfig obs = obs::ObsConfig::from_env();

  /// Deterministic virtual clock: disable the per-thread CPU-time
  /// passthrough so rank clocks advance ONLY by modelled costs (fabric
  /// delays, configured overheads). With one rank per node this makes
  /// final virtual times bit-reproducible across runs — the basis of the
  /// fault-injection determinism contract (docs/FAULTS.md). Benchmarks
  /// should keep this off: the CPU passthrough is what makes latencies
  /// real. Env: JHPC_DET_CLOCK.
  bool deterministic_clock = false;

  // Tuning thresholds of the mv2 suite (bytes).
  std::size_t bcast_binomial_max = 16 * 1024;
  std::size_t allreduce_rd_max = 16 * 1024;
  std::size_t allgather_rd_max = 32 * 1024;

  /// Apply JHPC_* environment overrides on top of the current values.
  UniverseConfig& apply_env();
};

/// One MPI job. Construct, then run() one or more SPMD functions; each run
/// passes every rank thread its COMM_WORLD and waits for all of them. If
/// any rank throws, all collective/blocking calls of the other ranks abort
/// promptly and the first exception is rethrown from run().
class Universe {
 public:
  explicit Universe(UniverseConfig config);
  ~Universe();
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Execute `rank_main` on every rank; blocks until all ranks return.
  /// The first run starts world_size rank threads; they stay parked
  /// between runs (a throwing, aborted or killed rank included) and are
  /// joined by the destructor, so a reused Universe spawns nothing. Each
  /// run starts every rank thread with the CPU mask of the thread calling
  /// run(), as a freshly spawned thread would have: pinning done inside
  /// one run does not leak into the next.
  void run(const std::function<void(Comm&)>& rank_main);

  /// Test hook: fail-stop `world_rank` immediately, from any thread
  /// (including another rank's), while a run is in progress. The target's
  /// thread unwinds at its next MPI call; survivors observe the death
  /// exactly as with a JHPC_FAULT_KILL schedule (RankFailedError under
  /// ErrorsReturn, job abort under the default ErrorsAreFatal). See
  /// docs/FAULTS.md.
  void kill_rank(int world_rank);

  /// Convenience: construct a Universe and run one function.
  static void launch(const UniverseConfig& config,
                     const std::function<void(Comm&)>& rank_main);

  const UniverseConfig& config() const;
  netsim::Fabric& fabric();

  /// Slab-recycler counters for the current job, plus the depot view.
  /// Flow counters reset at each run() start (the free lists stay warm,
  /// so a reused Universe's first acquires are hits); retained_bytes is
  /// a live gauge of this Universe's lists; the depot_* fields read the
  /// depot tier, which is GLOBAL across tenants when the Universe was
  /// built with UniverseConfig::shared_depot (see SlabStats for the full
  /// aggregation contract). Mirrored as transport.slab.* pvars when
  /// observability is on.
  SlabStats slab_stats() const;

  /// Sum of pvar `name` across ranks, or 0 when observability is off or
  /// the name is unknown. Safe from any thread while a run is in
  /// progress (pvar reads are relaxed-atomic) — this is how the jhpcd
  /// watchdog polls a tenant's transport counters against its quotas.
  std::int64_t pvar_total(const std::string& name) const;

 private:
  std::unique_ptr<detail::UniverseImpl> impl_;
};

}  // namespace jhpc::minimpi
