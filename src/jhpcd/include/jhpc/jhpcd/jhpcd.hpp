// jhpcd: a persistent in-process scheduler admitting many concurrent
// MPI jobs onto one shared fleet.
//
// The paper's deployment model is one JVM job per mpirun; a service
// deployment instead keeps the native library resident and runs a
// stream of jobs against it. jhpcd reproduces the resource-management
// side of that mode on the simulation stack:
//
//   - Admission control: a bounded queue per fairness class. A full
//     queue either sheds the lowest-priority queued job (when the new
//     submission outranks it) or rejects the submission with a typed
//     AdmissionRejectedError carrying an exponential-backoff
//     retry-after hint.
//   - Per-job quotas: ranks (checked at submit), wall-clock budget,
//     slab-bytes footprint and outstanding-message depth (enforced by a
//     watchdog thread that fail-stops the offending job). A tripped
//     quota surfaces as QuotaExceededError from JobHandle::await(), in
//     that job only.
//   - Fleet sharing: every tenant Universe is built on one shared slab
//     depot (jhpc/minimpi/slab_depot.hpp), so completed jobs donate
//     warm slabs to the next tenant and the depot ceiling bounds fleet
//     memory. Completed Universes are parked in a pool keyed by their
//     configuration and reused, so steady-state churn allocates
//     nothing.
//   - Tenant isolation: one Universe per job. Kills, revokes and
//     timeouts in one tenant surface their typed ULFM errors through
//     that tenant's handle only; co-resident jobs never observe them.
//   - Fairness: weighted round-robin between the latency class and the
//     bandwidth class (latency_weight latency jobs per bandwidth job
//     when both queues are non-empty), FIFO within a class. Priority
//     governs shed order, not dispatch order.
//
// Observability: the manager owns a service-wide pvar registry
// (jhpcd.* counters, queue-wait histograms per class, job.<id>.*
// per-job namespaces while capacity lasts) and a flight recorder whose
// admit/reject/quota-trip/drain events are dumped alongside the
// tenant's protocol events when a job dies on TransportTimeoutError.
// See docs/SERVICE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/slab_depot.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/obs/pvar.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::jhpcd {

/// The scheduler refused to queue a job (queue full, shed under load,
/// or service shutting down). Carries a retry-after hint that grows
/// exponentially with consecutive rejections, so well-behaved clients
/// back off instead of hammering a saturated service.
class AdmissionRejectedError : public Error {
 public:
  AdmissionRejectedError(const std::string& what, std::int64_t retry_after_ns)
      : Error(ErrorCode::kAdmissionRejected, what),
        retry_after_ns_(retry_after_ns) {}

  /// Suggested wait before resubmitting, wall-clock ns (0 = never, the
  /// service is shutting down).
  std::int64_t retry_after_ns() const { return retry_after_ns_; }

 private:
  std::int64_t retry_after_ns_;
};

/// A per-job quota tripped: at submit (ranks) or while running (wall
/// budget, slab bytes, outstanding messages — the watchdog fail-stops
/// the job and await() reports this instead of the kill's mechanics).
class QuotaExceededError : public Error {
 public:
  explicit QuotaExceededError(const std::string& what)
      : Error(ErrorCode::kQuotaExceeded, what) {}
};

/// Fairness class of a job. Latency-sensitive jobs (pingpongs, small
/// collectives) dispatch ahead of bandwidth hogs at the configured
/// weight so a stream of alltoalls cannot starve them.
enum class JobClass : std::uint8_t {
  kLatency,
  kBandwidth,
};

/// Per-job resource quotas. 0 means "unlimited" for every field. The
/// ranks quota rejects at submit(); the rest are enforced while the job
/// runs, by a watchdog that polls the job's Universe and fail-stops it
/// on a violation.
struct JobQuota {
  /// Maximum world size; checked against the spec at submit.
  int max_ranks = 0;
  /// Wall-clock budget for the run itself (queue wait excluded), ns.
  std::int64_t max_wall_ns = 0;
  /// Ceiling on the job's slab free-list footprint
  /// (SlabStats::retained_bytes — the per-job view; the fleet-wide
  /// ceiling is ServiceConfig::depot_max_bytes).
  std::uint64_t max_slab_bytes = 0;
  /// Ceiling on the unexpected-queue depth high-water mark (the
  /// mpi.unexpected_hwm pvar, summed over ranks). Setting this arms
  /// quiet observability on the job's Universe so the counter exists.
  std::int64_t max_outstanding_msgs = 0;
};

/// One job submission: a name for diagnostics, the mpirun line, the
/// fairness class, a shed priority and the quotas.
struct JobSpec {
  std::string name;
  /// The job's Universe configuration. The manager overrides
  /// shared_depot (fleet depot) and, when the outstanding-message quota
  /// is set, arms quiet pvars; everything else is the tenant's.
  minimpi::UniverseConfig config;
  JobClass job_class = JobClass::kLatency;
  /// Shed priority: under queue pressure the LOWEST-priority queued job
  /// is rejected first, and only in favor of a strictly higher-priority
  /// submission. Does not affect dispatch order.
  int priority = 0;
  JobQuota quota;
  /// The SPMD body, as for Universe::run.
  std::function<void(minimpi::Comm&)> rank_main;
};

/// Terminal state of a job.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleted,  ///< rank_main returned everywhere
  kFailed,     ///< a typed error (tenant fault, quota trip) — see error
  kShed,       ///< evicted from the queue by a higher-priority submission
};

/// What await() returns. `error` is null exactly when state ==
/// kCompleted; otherwise it holds the job's typed error (QuotaExceeded,
/// RankFailed, TransportTimeout, AdmissionRejected for shed jobs, ...)
/// and `code`/`error_what` summarize it without rethrowing.
struct JobResult {
  std::uint64_t id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  ErrorCode code = ErrorCode::kUnknown;
  std::string error_what;
  std::exception_ptr error;
  std::int64_t queue_wait_ns = 0;  ///< submit → dispatch, wall ns
  std::int64_t run_ns = 0;         ///< dispatch → completion, wall ns
};

namespace detail {
struct Job;
}  // namespace detail

/// Handle to a submitted job. Copyable; the last copy going away does
/// not cancel the job.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return job_ != nullptr; }
  std::uint64_t id() const;
  const std::string& name() const;

  /// True once the job reached a terminal state.
  bool done() const;

  /// Block until the job reaches a terminal state; never throws — the
  /// job's own error, if any, rides in the result.
  JobResult await() const;

 private:
  friend class JobManager;
  explicit JobHandle(std::shared_ptr<detail::Job> job)
      : job_(std::move(job)) {}
  std::shared_ptr<detail::Job> job_;
};

/// Service-wide configuration. Every knob has a JHPC_SVC_* environment
/// override, which the default constructor reads (docs/SERVICE.md).
struct ServiceConfig {
  ServiceConfig();

  /// Concurrently running jobs (worker threads). Env: JHPC_SVC_WORKERS.
  int workers = 4;
  /// Bounded admission queue capacity, both classes combined. Env:
  /// JHPC_SVC_QUEUE_CAP.
  std::size_t queue_capacity = 64;
  /// Fleet-wide slab depot ceiling, bytes; slabs released past it are
  /// freed instead of retained. Env: JHPC_SVC_DEPOT_MAX_BYTES.
  std::size_t depot_max_bytes = 256u << 20;
  /// Idle Universes parked for reuse. Env: JHPC_SVC_POOL_CAP.
  std::size_t pool_capacity = 8;
  /// Latency-class jobs dispatched per bandwidth-class job when both
  /// queues are non-empty. Env: JHPC_SVC_LATENCY_WEIGHT.
  int latency_weight = 3;
  /// Service-wide ceiling on any job's world size (a tighter
  /// JobQuota::max_ranks wins). Env: JHPC_SVC_MAX_RANKS.
  int max_ranks_per_job = 64;
  /// Register job.<id>.* per-job pvars until the registry's capacity is
  /// reached (then stop silently — churn benches submit tens of
  /// thousands of jobs and must not exhaust a fixed registry).
  bool per_job_pvars = true;
  /// Service pvar-registry capacity.
  std::size_t pvar_capacity = 512;
  /// Service flight-recorder ring capacity (admit/reject/trip/drain
  /// events); 0 disables.
  std::size_t flight_capacity = 256;
};

/// Point-in-time service counters, for tests and monitoring without
/// going through the pvar registry.
struct ServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;     ///< refused submissions (includes shed)
  std::uint64_t shed = 0;         ///< queued jobs evicted under pressure
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       ///< terminal errors, quota trips included
  std::uint64_t quota_trips = 0;
  std::size_t queued = 0;         ///< currently waiting, both classes
  std::size_t active = 0;         ///< currently running
  std::uint64_t universes_created = 0;
  std::uint64_t universes_reused = 0;
  std::size_t pool_idle = 0;      ///< Universes parked for reuse
  minimpi::SlabDepotStats depot;  ///< fleet depot view
};

/// The scheduler. Construct once, submit many jobs, await their
/// handles; the destructor drains the queue and joins the fleet.
class JobManager {
 public:
  explicit JobManager(ServiceConfig config = ServiceConfig{});
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Queue a job. Throws InvalidArgumentError on a malformed spec,
  /// QuotaExceededError when the spec's world size exceeds its ranks
  /// quota, and AdmissionRejectedError when the queue is full (with a
  /// retry-after hint) or the service is shutting down.
  JobHandle submit(JobSpec spec);

  /// Block until the queue is empty and no job is running. Does not
  /// stop the workers; more jobs may be submitted afterwards.
  void drain();

  /// Drain, then stop and join the fleet. Idempotent; implied by the
  /// destructor. Submissions after shutdown are rejected.
  void shutdown();

  ServiceStats stats() const;
  const ServiceConfig& config() const { return config_; }

  /// The fleet's shared slab depot (every tenant Universe is built on
  /// it).
  minimpi::SlabDepotPtr depot() const { return depot_; }

  /// The service pvar registry: jhpcd.* plus job.<id>.* namespaces.
  const obs::PvarRegistry& pvars() const;

  /// Human-readable dump of the service flight ring (admit / reject /
  /// quota-trip / drain events); empty when nothing was recorded. Also
  /// written to stderr automatically when a tenant dies on
  /// TransportTimeoutError, alongside that tenant's protocol dump.
  std::string flight_report() const;

 private:
  struct Impl;

  void worker_loop();
  void run_job(const std::shared_ptr<detail::Job>& job);
  std::unique_ptr<minimpi::Universe> acquire_universe(
      const std::string& sig, const minimpi::UniverseConfig& cfg);
  void release_universe(const std::string& sig,
                        std::unique_ptr<minimpi::Universe> uni);
  void maybe_register_job_pvars(const detail::Job& job,
                                std::int64_t queue_wait_ns);
  void watchdog_loop();

  ServiceConfig config_;
  minimpi::SlabDepotPtr depot_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jhpc::jhpcd
