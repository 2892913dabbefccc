#include "jhpc/jhpcd/jhpcd.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "jhpc/obs/recorder.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/knobs.hpp"

namespace jhpc::jhpcd {

namespace detail {

/// One job's lifetime record, shared between the handle, the queues,
/// the worker running it and the watchdog.
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  std::int64_t submit_ns = 0;

  // Quota enforcement: the watchdog sets the flag (under the active-set
  // mutex) before fail-stopping the job; the worker reads it after
  // run() returns. The flag must be honored even when run() returned
  // cleanly — a world_size==1 job absorbs its own kill.
  bool quota_trip = false;
  std::string quota_what;

  // Terminal state, guarded by mu.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  JobResult result;

  void finish(JobState state, std::exception_ptr error,
              std::int64_t queue_wait_ns, std::int64_t run_ns) {
    std::lock_guard<std::mutex> lk(mu);
    result.id = id;
    result.name = spec.name;
    result.state = state;
    result.error = error;
    result.queue_wait_ns = queue_wait_ns;
    result.run_ns = run_ns;
    if (error != nullptr) {
      try {
        std::rethrow_exception(error);
      } catch (const Error& e) {
        result.code = e.code();
        result.error_what = e.what();
      } catch (const std::exception& e) {
        result.code = ErrorCode::kUnknown;
        result.error_what = e.what();
      } catch (...) {
        result.code = ErrorCode::kUnknown;
        result.error_what = "unknown error";
      }
    }
    done = true;
    cv.notify_all();
  }
};

}  // namespace detail

std::uint64_t JobHandle::id() const { return job_ != nullptr ? job_->id : 0; }

const std::string& JobHandle::name() const {
  static const std::string kEmpty;
  return job_ != nullptr ? job_->spec.name : kEmpty;
}

bool JobHandle::done() const {
  if (job_ == nullptr) return true;
  std::lock_guard<std::mutex> lk(job_->mu);
  return job_->done;
}

JobResult JobHandle::await() const {
  JHPC_REQUIRE(job_ != nullptr, "await on an invalid JobHandle");
  std::unique_lock<std::mutex> lk(job_->mu);
  job_->cv.wait(lk, [this] { return job_->done; });
  return job_->result;
}

ServiceConfig::ServiceConfig() {
  const KnobEnv env;
  env.get("JHPC_SVC_WORKERS", workers);
  env.get("JHPC_SVC_QUEUE_CAP", queue_capacity);
  env.get("JHPC_SVC_DEPOT_MAX_BYTES", depot_max_bytes);
  env.get("JHPC_SVC_POOL_CAP", pool_capacity);
  env.get("JHPC_SVC_LATENCY_WEIGHT", latency_weight);
  env.get("JHPC_SVC_MAX_RANKS", max_ranks_per_job);
}

namespace {

/// Exponential-backoff retry hint: 1 ms doubling per consecutive
/// rejection, capped at 1 s.
std::int64_t backoff_ns(int consecutive_rejects) {
  const int shift = std::min(consecutive_rejects > 0 ? consecutive_rejects - 1
                                                     : 0,
                             10);
  return std::min<std::int64_t>(std::int64_t{1'000'000} << shift,
                                std::int64_t{1'000'000'000});
}

/// Pool key: every UniverseConfig field that changes a Universe's
/// behavior. Jobs with fault injection, scheduled kills or file-output
/// observability are never pooled (see poolable()).
std::string config_signature(const minimpi::UniverseConfig& c) {
  std::string s;
  s.reserve(128);
  auto add = [&s](std::int64_t v) {
    s += std::to_string(v);
    s += '|';
  };
  add(c.world_size);
  add(static_cast<std::int64_t>(c.suite));
  add(static_cast<std::int64_t>(c.eager_limit));
  add(c.intra_send_overhead_ns);
  add(c.hier_flag_ns);
  add(c.deterministic_clock ? 1 : 0);
  add(static_cast<std::int64_t>(c.bcast_binomial_max));
  add(static_cast<std::int64_t>(c.allreduce_rd_max));
  add(static_cast<std::int64_t>(c.allgather_rd_max));
  add(c.obs.pvars ? 1 : 0);
  add(c.obs.comm_matrix ? 1 : 0);
  add(c.obs.flight_recorder ? 1 : 0);
  add(c.obs.quiet ? 1 : 0);
  const netsim::FabricConfig& f = c.fabric;
  add(f.ranks_per_node);
  add(static_cast<std::int64_t>(f.placement));
  add(f.inter_latency_ns);
  add(static_cast<std::int64_t>(f.inter_bandwidth_mbps * 1000.0));
  add(f.intra_latency_ns);
  for (const int node : f.node_map) add(node);
  add(f.faults.heartbeat_ns);
  add(f.faults.rto_ns);
  add(f.faults.rto_max_ns);
  add(f.faults.delivery_timeout_ns);
  return s;
}

/// A Universe is reusable only when nothing job-specific is baked into
/// it: no fault schedule (a reused kill plan would re-fire in the next
/// tenant) and no file-output observability (traces/CSVs name paths).
bool poolable(const minimpi::UniverseConfig& c) {
  return !c.fabric.faults.enabled() && !c.fabric.faults.kills_enabled() &&
         c.obs.trace_path.empty() && c.obs.comm_matrix_csv.empty() &&
         c.obs.pvars_json_path.empty() && c.obs.flight_dump_path.empty();
}

}  // namespace

struct JobManager::Impl {
  explicit Impl(const ServiceConfig& cfg)
      : pvars(/*ranks=*/1, cfg.pvar_capacity),
        flight(cfg.flight_capacity, /*ranks=*/1) {}

  // --- Observability ----------------------------------------------------
  obs::PvarRegistry pvars;
  obs::FlightRecorder flight;
  std::int64_t epoch_ns = 0;  ///< manager start; flight timestamps are
                              ///< relative to it
  obs::PvarId pv_admitted, pv_rejected, pv_shed, pv_completed, pv_failed;
  obs::PvarId pv_quota_trips, pv_queue_depth, pv_active;
  obs::PvarId pv_wait_latency, pv_wait_bandwidth;
  obs::PvarId pv_uni_created, pv_uni_reused, pv_depot_hwm;

  // --- Admission / dispatch (guarded by mu) -----------------------------
  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< workers wait for jobs/shutdown
  std::condition_variable idle_cv;  ///< drain() waits for quiescence
  std::deque<std::shared_ptr<detail::Job>> latency_q;
  std::deque<std::shared_ptr<detail::Job>> bandwidth_q;
  int latency_served = 0;  ///< WRR credit since the last bandwidth pick
  std::uint64_t next_id = 1;
  int consec_rejects = 0;
  bool stopping = false;
  std::size_t active = 0;
  std::uint64_t admitted = 0, rejected = 0, shed = 0;
  std::uint64_t completed = 0, failed = 0, quota_trips = 0;
  std::uint64_t universes_created = 0, universes_reused = 0;

  // --- Universe pool (guarded by mu) ------------------------------------
  struct PooledUniverse {
    std::string sig;
    std::unique_ptr<minimpi::Universe> uni;
  };
  std::vector<PooledUniverse> pool;

  // --- Active set (guarded by active_mu; the watchdog's view) -----------
  // kill_rank() and entry erasure both run under active_mu, so a
  // Universe is never killed after its worker released it.
  struct ActiveEntry {
    std::shared_ptr<detail::Job> job;
    minimpi::Universe* uni = nullptr;
    std::int64_t start_ns = 0;
  };
  std::mutex active_mu;
  std::vector<ActiveEntry> active_jobs;

  // --- Threads ----------------------------------------------------------
  std::vector<std::thread> workers;
  std::thread watchdog;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;

  std::int64_t since_epoch() const { return now_ns() - epoch_ns; }

  void record_flight(obs::FlightKind kind, const detail::Job& job) {
    if (!flight.on()) return;
    obs::FlightEvent ev;
    ev.vtime_ns = since_epoch();
    ev.arg = static_cast<std::int64_t>(job.id);
    ev.peer = job.spec.priority;
    ev.tag = static_cast<std::int32_t>(job.spec.job_class);
    ev.kind = kind;
    flight.record(0, ev);
  }
};

JobManager::JobManager(ServiceConfig config)
    : config_(config),
      depot_(minimpi::make_slab_depot(config.depot_max_bytes)),
      impl_(std::make_unique<Impl>(config_)) {
  JHPC_REQUIRE(config_.workers >= 1, "ServiceConfig.workers must be >= 1");
  JHPC_REQUIRE(config_.queue_capacity >= 1,
               "ServiceConfig.queue_capacity must be >= 1");
  JHPC_REQUIRE(config_.latency_weight >= 1,
               "ServiceConfig.latency_weight must be >= 1");
  JHPC_REQUIRE(config_.max_ranks_per_job >= 1,
               "ServiceConfig.max_ranks_per_job must be >= 1");
  impl_->epoch_ns = now_ns();

  obs::PvarRegistry& reg = impl_->pvars;
  using obs::PvarClass;
  using obs::PvarUnit;
  impl_->pv_admitted = reg.register_pvar(
      "jhpcd.jobs.admitted", PvarClass::kCounter, "jobs accepted into the queue");
  impl_->pv_rejected = reg.register_pvar(
      "jhpcd.jobs.rejected", PvarClass::kCounter,
      "submissions refused (queue full, shed, shutdown)");
  impl_->pv_shed = reg.register_pvar(
      "jhpcd.jobs.shed", PvarClass::kCounter,
      "queued jobs evicted for higher-priority submissions");
  impl_->pv_completed = reg.register_pvar(
      "jhpcd.jobs.completed", PvarClass::kCounter, "jobs finished cleanly");
  impl_->pv_failed = reg.register_pvar(
      "jhpcd.jobs.failed", PvarClass::kCounter,
      "jobs finished with a typed error (quota trips included)");
  impl_->pv_quota_trips = reg.register_pvar(
      "jhpcd.jobs.quota_trips", PvarClass::kCounter,
      "running jobs fail-stopped by the quota watchdog");
  impl_->pv_queue_depth = reg.register_pvar(
      "jhpcd.queue.depth_hwm", PvarClass::kLevel,
      "admission-queue depth high-water mark");
  impl_->pv_active = reg.register_pvar(
      "jhpcd.active_hwm", PvarClass::kLevel,
      "concurrently running jobs high-water mark");
  impl_->pv_wait_latency = reg.register_pvar(
      "jhpcd.queue.wait.latency", PvarClass::kHistogram,
      "queue wait of latency-class jobs", PvarUnit::kNanoseconds);
  impl_->pv_wait_bandwidth = reg.register_pvar(
      "jhpcd.queue.wait.bandwidth", PvarClass::kHistogram,
      "queue wait of bandwidth-class jobs", PvarUnit::kNanoseconds);
  impl_->pv_uni_created = reg.register_pvar(
      "jhpcd.universes.created", PvarClass::kCounter,
      "tenant Universes constructed");
  impl_->pv_uni_reused = reg.register_pvar(
      "jhpcd.universes.reused", PvarClass::kCounter,
      "tenant Universes served from the idle pool");
  impl_->pv_depot_hwm = reg.register_pvar(
      "jhpcd.depot.hwm_bytes", PvarClass::kLevel,
      "shared slab-depot retained-bytes high-water mark", PvarUnit::kBytes);

  for (int w = 0; w < config_.workers; ++w) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
  impl_->watchdog = std::thread([this] { watchdog_loop(); });
}

JobManager::~JobManager() { shutdown(); }

const obs::PvarRegistry& JobManager::pvars() const { return impl_->pvars; }

std::string JobManager::flight_report() const {
  return impl_->flight.report();
}

JobHandle JobManager::submit(JobSpec spec) {
  JHPC_REQUIRE(static_cast<bool>(spec.rank_main),
               "JobSpec.rank_main must be callable");
  JHPC_REQUIRE(spec.config.world_size >= 1,
               "JobSpec.config.world_size must be >= 1");

  int rank_cap = config_.max_ranks_per_job;
  if (spec.quota.max_ranks > 0) rank_cap = std::min(rank_cap, spec.quota.max_ranks);
  if (spec.config.world_size > rank_cap) {
    throw QuotaExceededError(
        "job '" + spec.name + "' wants " +
        std::to_string(spec.config.world_size) +
        " ranks; the quota allows " + std::to_string(rank_cap));
  }

  auto job = std::make_shared<detail::Job>();
  job->spec = std::move(spec);

  std::shared_ptr<detail::Job> victim;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->stopping) {
      ++impl_->rejected;
      impl_->pvars.add(impl_->pv_rejected, 0, 1);
      throw AdmissionRejectedError("jhpcd is shutting down",
                                   /*retry_after_ns=*/0);
    }
    const std::size_t depth =
        impl_->latency_q.size() + impl_->bandwidth_q.size();
    if (depth >= config_.queue_capacity) {
      // Shed-load: evict the lowest-priority queued job, but only in
      // favor of a strictly higher-priority submission (equal priority
      // keeps FIFO admission honest). Ties go to the youngest.
      std::deque<std::shared_ptr<detail::Job>>* victim_q = nullptr;
      std::size_t victim_at = 0;
      for (auto* q : {&impl_->latency_q, &impl_->bandwidth_q}) {
        for (std::size_t i = 0; i < q->size(); ++i) {
          const auto& cand = (*q)[i];
          if (victim == nullptr ||
              cand->spec.priority <= victim->spec.priority) {
            victim = cand;
            victim_q = q;
            victim_at = i;
          }
        }
      }
      if (victim != nullptr &&
          victim->spec.priority < job->spec.priority) {
        victim_q->erase(victim_q->begin() +
                        static_cast<std::ptrdiff_t>(victim_at));
        ++impl_->shed;
        ++impl_->rejected;
        impl_->pvars.add(impl_->pv_shed, 0, 1);
        impl_->pvars.add(impl_->pv_rejected, 0, 1);
        impl_->record_flight(obs::FlightKind::kJobReject, *victim);
      } else {
        victim = nullptr;
        ++impl_->consec_rejects;
        ++impl_->rejected;
        impl_->pvars.add(impl_->pv_rejected, 0, 1);
        job->id = impl_->next_id++;
        impl_->record_flight(obs::FlightKind::kJobReject, *job);
        const std::int64_t retry = backoff_ns(impl_->consec_rejects);
        throw AdmissionRejectedError(
            "jhpcd queue full (" + std::to_string(depth) + "/" +
                std::to_string(config_.queue_capacity) +
                "); retry after " + std::to_string(retry) + " ns",
            retry);
      }
    }
    impl_->consec_rejects = 0;
    job->id = impl_->next_id++;
    job->submit_ns = now_ns();
    auto& q = job->spec.job_class == JobClass::kLatency ? impl_->latency_q
                                                        : impl_->bandwidth_q;
    q.push_back(job);
    ++impl_->admitted;
    impl_->pvars.add(impl_->pv_admitted, 0, 1);
    impl_->pvars.raise(
        impl_->pv_queue_depth, 0,
        static_cast<std::int64_t>(impl_->latency_q.size() +
                                  impl_->bandwidth_q.size()));
    impl_->record_flight(obs::FlightKind::kJobAdmit, *job);
  }
  impl_->work_cv.notify_one();
  if (victim != nullptr) {
    const std::int64_t waited = now_ns() - victim->submit_ns;
    victim->finish(
        JobState::kShed,
        std::make_exception_ptr(AdmissionRejectedError(
            "job '" + victim->spec.name +
                "' shed from the queue for a higher-priority submission",
            backoff_ns(1))),
        waited, /*run_ns=*/0);
  }
  return JobHandle(job);
}

void JobManager::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->idle_cv.wait(lk, [this] {
    return impl_->latency_q.empty() && impl_->bandwidth_q.empty() &&
           impl_->active == 0;
  });
}

void JobManager::shutdown() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->stopping) {
      // Idempotent: a second shutdown (the destructor after an explicit
      // call) finds the fleet already joined.
      if (impl_->workers.empty()) return;
    }
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) {
    if (t.joinable()) t.join();
  }
  impl_->workers.clear();
  {
    std::lock_guard<std::mutex> lk(impl_->wd_mu);
    impl_->wd_stop = true;
  }
  impl_->wd_cv.notify_all();
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->pool.clear();
}

ServiceStats JobManager::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    s.admitted = impl_->admitted;
    s.rejected = impl_->rejected;
    s.shed = impl_->shed;
    s.completed = impl_->completed;
    s.failed = impl_->failed;
    s.quota_trips = impl_->quota_trips;
    s.queued = impl_->latency_q.size() + impl_->bandwidth_q.size();
    s.active = impl_->active;
    s.universes_created = impl_->universes_created;
    s.universes_reused = impl_->universes_reused;
    s.pool_idle = impl_->pool.size();
  }
  s.depot = minimpi::slab_depot_stats(depot_);
  return s;
}

void JobManager::worker_loop() {
  for (;;) {
    std::shared_ptr<detail::Job> job;
    {
      std::unique_lock<std::mutex> lk(impl_->mu);
      impl_->work_cv.wait(lk, [this] {
        return impl_->stopping || !impl_->latency_q.empty() ||
               !impl_->bandwidth_q.empty();
      });
      if (impl_->latency_q.empty() && impl_->bandwidth_q.empty()) {
        if (impl_->stopping) return;
        continue;
      }
      // Weighted round-robin between classes, FIFO within one: up to
      // latency_weight latency jobs per bandwidth job when both queues
      // are non-empty, so bandwidth hogs neither starve nor dominate.
      const bool pick_bandwidth =
          impl_->latency_q.empty() ||
          (!impl_->bandwidth_q.empty() &&
           impl_->latency_served >= config_.latency_weight);
      if (pick_bandwidth) {
        job = impl_->bandwidth_q.front();
        impl_->bandwidth_q.pop_front();
        impl_->latency_served = 0;
      } else {
        job = impl_->latency_q.front();
        impl_->latency_q.pop_front();
        ++impl_->latency_served;
      }
      ++impl_->active;
      impl_->pvars.raise(impl_->pv_active, 0,
                         static_cast<std::int64_t>(impl_->active));
    }
    // run_job() decrements active itself, in the same critical section
    // that completes the handle — so an await() that returned implies
    // stats().active no longer counts this job, and a drain() that
    // returned implies every finished job's handle is already done.
    run_job(job);
  }
}

void JobManager::run_job(const std::shared_ptr<detail::Job>& job) {
  const std::int64_t start_ns = now_ns();
  const std::int64_t queue_wait_ns = start_ns - job->submit_ns;
  impl_->pvars.record(job->spec.job_class == JobClass::kLatency
                          ? impl_->pv_wait_latency
                          : impl_->pv_wait_bandwidth,
                      0, queue_wait_ns);
  maybe_register_job_pvars(*job, queue_wait_ns);

  // The tenant's configuration, on the fleet's shared depot. An
  // outstanding-message quota needs the transport counters, which only
  // exist with observability on — arm it quietly.
  minimpi::UniverseConfig cfg = job->spec.config;
  cfg.shared_depot = depot_;
  if (job->spec.quota.max_outstanding_msgs > 0 && !cfg.obs.enabled()) {
    cfg.obs.pvars = true;
    cfg.obs.quiet = true;
  }
  const bool reusable = poolable(cfg);
  const std::string sig = reusable ? config_signature(cfg) : std::string();
  std::unique_ptr<minimpi::Universe> uni = acquire_universe(sig, cfg);

  {
    std::lock_guard<std::mutex> lk(impl_->active_mu);
    impl_->active_jobs.push_back({job, uni.get(), start_ns});
  }

  std::exception_ptr error;
  try {
    uni->run(job->spec.rank_main);
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lk(impl_->active_mu);
    auto& v = impl_->active_jobs;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i].job == job) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    // The quota flag is written under active_mu; read it there too. It
    // wins over whatever the kill mechanically surfaced (RankFailed /
    // Abort / nothing at all for a single-rank job).
    if (job->quota_trip) {
      error = std::make_exception_ptr(QuotaExceededError(job->quota_what));
    }
  }

  const std::int64_t end_ns = now_ns();
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (error == nullptr) {
      ++impl_->completed;
      impl_->pvars.add(impl_->pv_completed, 0, 1);
    } else {
      ++impl_->failed;
      impl_->pvars.add(impl_->pv_failed, 0, 1);
    }
    impl_->record_flight(obs::FlightKind::kJobDrain, *job);
    impl_->pvars.raise(
        impl_->pv_depot_hwm, 0,
        static_cast<std::int64_t>(minimpi::slab_depot_stats(depot_).hwm_bytes));
  }

  // A transport-timeout death already dumped the tenant's protocol
  // flight rings (Universe::run); add the service's admit/reject/drain
  // view so the post-mortem shows what the fleet was doing around it.
  if (error != nullptr) {
    try {
      std::rethrow_exception(error);
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kTransportTimeout) {
        const std::string report = impl_->flight.report();
        if (!report.empty()) {
          std::fprintf(stderr,
                       "[jhpcd] job %llu '%s' died on a transport timeout; "
                       "service flight ring:\n",
                       static_cast<unsigned long long>(job->id),
                       job->spec.name.c_str());
          std::fputs(report.c_str(), stderr);
        }
      }
    } catch (...) {
    }
  }

  if (reusable) release_universe(sig, std::move(uni));
  uni.reset();

  // Retire the job and complete its handle atomically with respect to
  // stats()/drain() observers (mu orders before the handle's own mu;
  // nothing ever takes them in the reverse order).
  std::lock_guard<std::mutex> lk(impl_->mu);
  --impl_->active;
  job->finish(error == nullptr ? JobState::kCompleted : JobState::kFailed,
              error, queue_wait_ns, end_ns - start_ns);
  if (impl_->active == 0 && impl_->latency_q.empty() &&
      impl_->bandwidth_q.empty()) {
    impl_->idle_cv.notify_all();
  }
}

std::unique_ptr<minimpi::Universe> JobManager::acquire_universe(
    const std::string& sig, const minimpi::UniverseConfig& cfg) {
  if (!sig.empty()) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (std::size_t i = 0; i < impl_->pool.size(); ++i) {
      if (impl_->pool[i].sig == sig) {
        auto uni = std::move(impl_->pool[i].uni);
        impl_->pool.erase(impl_->pool.begin() +
                          static_cast<std::ptrdiff_t>(i));
        ++impl_->universes_reused;
        impl_->pvars.add(impl_->pv_uni_reused, 0, 1);
        return uni;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    ++impl_->universes_created;
    impl_->pvars.add(impl_->pv_uni_created, 0, 1);
  }
  return std::make_unique<minimpi::Universe>(cfg);
}

void JobManager::release_universe(const std::string& sig,
                                  std::unique_ptr<minimpi::Universe> uni) {
  if (sig.empty() || uni == nullptr) return;
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->stopping || impl_->pool.size() >= config_.pool_capacity) return;
  impl_->pool.push_back({sig, std::move(uni)});
}

void JobManager::maybe_register_job_pvars(const detail::Job& job,
                                          std::int64_t queue_wait_ns) {
  if (!config_.per_job_pvars) return;
  // Capacity-guarded: the registry is fixed-size and a churn bench
  // submits tens of thousands of jobs. Stop registering when the next
  // namespace would not fit; the jhpcd.* aggregates keep counting.
  if (impl_->pvars.size() + 2 > config_.pvar_capacity) return;
  const std::string prefix = "job." + std::to_string(job.id);
  using obs::PvarClass;
  using obs::PvarUnit;
  try {
    const obs::PvarId wait = impl_->pvars.register_pvar(
        prefix + ".queue_wait_ns", PvarClass::kTimer,
        "queue wait of job '" + job.spec.name + "'", PvarUnit::kNanoseconds);
    const obs::PvarId ranks = impl_->pvars.register_pvar(
        prefix + ".ranks", PvarClass::kLevel,
        "world size of job '" + job.spec.name + "'");
    impl_->pvars.add(wait, 0, queue_wait_ns);
    impl_->pvars.raise(ranks, 0, job.spec.config.world_size);
  } catch (const Error&) {
    // Lost a registration race against the capacity check; per-job
    // namespaces simply stop here.
  }
}

void JobManager::watchdog_loop() {
  constexpr auto kScanPeriod = std::chrono::microseconds(200);
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(impl_->wd_mu);
      if (impl_->wd_cv.wait_for(lk, kScanPeriod,
                                [this] { return impl_->wd_stop; })) {
        return;
      }
    }
    std::lock_guard<std::mutex> lk(impl_->active_mu);
    const std::int64_t now = now_ns();
    for (auto& entry : impl_->active_jobs) {
      detail::Job& job = *entry.job;
      if (job.quota_trip) continue;
      const JobQuota& q = job.spec.quota;
      std::string what;
      if (q.max_wall_ns > 0 && now - entry.start_ns > q.max_wall_ns) {
        what = "job '" + job.spec.name + "' exceeded its wall-clock budget (" +
               std::to_string(now - entry.start_ns) + " > " +
               std::to_string(q.max_wall_ns) + " ns)";
      } else if (q.max_slab_bytes > 0 &&
                 entry.uni->slab_stats().retained_bytes > q.max_slab_bytes) {
        what = "job '" + job.spec.name + "' exceeded its slab quota (" +
               std::to_string(entry.uni->slab_stats().retained_bytes) +
               " > " + std::to_string(q.max_slab_bytes) + " bytes retained)";
      } else if (q.max_outstanding_msgs > 0 &&
                 entry.uni->pvar_total("mpi.unexpected_hwm") >
                     q.max_outstanding_msgs) {
        what = "job '" + job.spec.name +
               "' exceeded its outstanding-message quota (" +
               std::to_string(entry.uni->pvar_total("mpi.unexpected_hwm")) +
               " > " + std::to_string(q.max_outstanding_msgs) + ")";
      }
      if (what.empty()) continue;
      job.quota_trip = true;
      job.quota_what = what;
      {
        std::lock_guard<std::mutex> stats_lk(impl_->mu);
        ++impl_->quota_trips;
        impl_->pvars.add(impl_->pv_quota_trips, 0, 1);
        impl_->record_flight(obs::FlightKind::kJobQuotaTrip, job);
      }
      entry.uni->kill_rank(0);
    }
  }
}

}  // namespace jhpc::jhpcd
