#include "jhpc/minimpi/universe.hpp"

#include <sched.h>

#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "detail/transport.hpp"
#include "jhpc/support/error.hpp"
#include "jhpc/support/knobs.hpp"
#include "jhpc/support/table.hpp"

namespace jhpc::minimpi {

namespace {

/// The calling thread's CPU mask, or nothing when a cpu_set_t cannot
/// hold it.
std::optional<cpu_set_t> thread_mask() {
  cpu_set_t m;
  CPU_ZERO(&m);
  if (sched_getaffinity(0, sizeof(m), &m) != 0) return std::nullopt;
  return m;
}

/// A rank thread's life: park until a run starts, do this rank's share of
/// it, report done, park again; return once the Universe stops the pool.
void rank_thread_main(detail::UniverseImpl::RankThreads& rt, int rank,
                      std::uint64_t seen) {
  for (;;) {
    const std::function<void(int)>* work = nullptr;
    {
      std::unique_lock<std::mutex> lk(rt.mu);
      rt.start.wait(lk, [&] { return rt.stop || rt.runs != seen; });
      if (rt.stop) return;
      seen = rt.runs;
      work = rt.work;
    }
    (*work)(rank);
    bool last = false;
    {
      const std::lock_guard<std::mutex> lk(rt.mu);
      last = --rt.running == 0;
    }
    // ~Universe joins this thread before `done` goes away.
    if (last) rt.done.notify_one();
  }
}

}  // namespace

UniverseConfig::UniverseConfig() {
  const KnobEnv env;
  env.get("JHPC_PPN", fabric.ranks_per_node);
  env.get("JHPC_INTER_LAT_NS", fabric.inter_latency_ns);
  env.get("JHPC_INTER_BW_MBPS", fabric.inter_bandwidth_mbps);
  env.get("JHPC_INTRA_LAT_NS", fabric.intra_latency_ns);
  env.get("JHPC_PLACEMENT", fabric.placement);
  netsim::FaultPlan& p = fabric.faults;
  env.get("JHPC_FAULT_SEED", p.seed);
  env.get("JHPC_FAULT_DROP", p.link_defaults.drop_prob);
  env.get("JHPC_FAULT_JITTER_NS", p.link_defaults.jitter_ns);
  env.get("JHPC_FAULT_BW_FACTOR", p.link_defaults.bandwidth_factor);
  if (const char* s = env.raw("JHPC_FAULT_DOWN")) p.parse_down(s);
  // Per-link overrides inherit the defaults above.
  if (const char* s = env.raw("JHPC_FAULT_LINKS")) p.parse_links(s);
  env.get("JHPC_FAULT_RTO_NS", p.rto_ns);
  if (env.get("JHPC_FAULT_RTO_MAX_NS", p.rto_max_ns)) {
    JHPC_REQUIRE(p.rto_max_ns >= p.rto_ns,
                 "$JHPC_FAULT_RTO_MAX_NS must be >= the retransmit timeout");
  }
  env.get("JHPC_FAULT_TIMEOUT_NS", p.delivery_timeout_ns);
  if (const char* s = env.raw("JHPC_FAULT_KILL")) p.parse_kills(s);
  env.get("JHPC_FAULT_HB_NS", p.heartbeat_ns);
  env.get("JHPC_PVARS", obs.pvars);
  env.get("JHPC_TRACE", obs.trace_path);
  env.get("JHPC_TRACE_CAPACITY", obs.trace_capacity);
  env.get("JHPC_COMM_MATRIX", obs.comm_matrix);
  env.get("JHPC_COMM_MATRIX_CSV", obs.comm_matrix_csv);
  env.get("JHPC_PVARS_JSON", obs.pvars_json_path);
  env.get("JHPC_FLIGHT_RECORDER", obs.flight_recorder);
  env.get("JHPC_FLIGHT_RECORDER_CAPACITY", obs.flight_capacity);
  env.get("JHPC_FLIGHT_RECORDER_DUMP", obs.flight_dump_path);
  env.get("JHPC_EAGER_LIMIT", eager_limit);
  if (env.get("JHPC_COLL", suite)) apply_suite_profile();
  env.get("JHPC_HIER_FLAG_NS", hier_flag_ns);
  env.get("JHPC_DET_CLOCK", deterministic_clock);
}

Universe::Universe(UniverseConfig config)
    : impl_(std::make_unique<detail::UniverseImpl>(config)) {}

Universe::~Universe() {
  detail::UniverseImpl::RankThreads& rt = impl_->rank_threads;
  {
    const std::lock_guard<std::mutex> lk(rt.mu);
    rt.stop = true;
  }
  rt.start.notify_all();
  for (std::thread& t : rt.threads) t.join();
}

const UniverseConfig& Universe::config() const { return impl_->config; }

netsim::Fabric& Universe::fabric() { return impl_->fabric; }

SlabStats Universe::slab_stats() const {
  const detail::SlabPool::Stats s = impl_->slab.stats();
  SlabStats out;
  out.hits = s.hits;
  out.misses = s.misses;
  out.recycled = s.recycled;
  out.recycled_bytes = s.recycled_bytes;
  out.overflow_drops = s.overflow_drops;
  out.retained_bytes = s.retained_bytes;
  const detail::SlabDepot& depot = impl_->slab.depot();
  out.depot_retained_bytes = depot.retained_bytes();
  out.depot_hwm_bytes = depot.hwm_bytes();
  out.depot_max_bytes = depot.max_bytes();
  out.depot_shared = impl_->config.shared_depot != nullptr;
  return out;
}

std::int64_t Universe::pvar_total(const std::string& name) const {
  if (impl_->obs == nullptr) return 0;
  const obs::PvarRegistry& reg = impl_->obs->rec.pvars();
  return reg.total(reg.find(name));
}

void Universe::run(const std::function<void(Comm&)>& rank_main) {
  JHPC_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  const int n = impl_->config.world_size;

  // Reset the abort flag and the fabric's virtual link clocks so a
  // Universe can run several jobs in sequence. The recorder resets too:
  // each job reports its own workload.
  impl_->abort.store(false, std::memory_order_relaxed);
  impl_->fabric.reset();
  impl_->reset_fault_state();
  impl_->reset_failure_state();
  // A previous run that ended in failures (timeouts, kills, aborts) may
  // have left receives parked and payloads buffered; they must not match
  // this job's traffic (their buffers are long gone).
  impl_->quiesce();
  impl_->slab.reset_stats();
  if (impl_->obs != nullptr) {
    impl_->obs->rec.reset();
    impl_->obs->waitstate.reset();
    impl_->obs->flight.clear();
  }
  // Drop nonblocking-collective schedules and tag counters from the
  // previous job: an aborted run may leave schedules active, and the tag
  // sequence must restart identically on every rank.
  for (auto& nr : impl_->nbc) {
    nr.active.clear();
    nr.seq.clear();
  }
  // Drop the hier suite's per-node shared segments: their flag sequence
  // numbers must restart at zero together with every member's local
  // counter, and an aborted run may have left flags mid-operation.
  impl_->hier_reset();

  Group world_group = [n] {
    std::vector<int> ranks(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ranks[static_cast<std::size_t>(i)] = i;
    return Group(std::move(ranks));
  }();

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  const std::optional<cpu_set_t> caller_mask = thread_mask();

  const std::function<void(int)> work = [&](int r) {
    // Start from the caller's CPU mask, as a freshly spawned thread
    // would: one run's pinning must not leak into the next.
    if (caller_mask) {
      const std::optional<cpu_set_t> mine = thread_mask();
      if (!mine || !CPU_EQUAL(&*mine, &*caller_mask)) {
        sched_setaffinity(0, sizeof(cpu_set_t), &*caller_mask);
      }
    }
    // Fresh virtual clock for this run, anchored to this thread's CPU.
    detail::RankClock& clock = impl_->clocks[static_cast<std::size_t>(r)];
    clock.cpu_passthrough = !impl_->config.deterministic_clock;
    clock.vclock = 0;
    clock.last_cpu = thread_cpu_ns();
    Comm world(impl_.get(), world_group, r, /*context_id=*/0);
    try {
      rank_main(world);
    } catch (const detail::AbortError&) {
      // Secondary failure: another rank already recorded the cause.
    } catch (const detail::RankKilledError&) {
      // Planned fail-stop: part of the fault scenario, not an error.
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      impl_->abort_all();
    }
  };

  // Hand the work to the parked rank threads (the first run starts them)
  // and wait until every rank is through it.
  detail::UniverseImpl::RankThreads& rt = impl_->rank_threads;
  while (rt.threads.size() < static_cast<std::size_t>(n)) {
    rt.threads.emplace_back(rank_thread_main, std::ref(rt),
                            static_cast<int>(rt.threads.size()), rt.runs);
  }
  {
    const std::lock_guard<std::mutex> lk(rt.mu);
    rt.work = &work;
    rt.running = n;
    ++rt.runs;
  }
  rt.start.notify_all();
  {
    std::unique_lock<std::mutex> lk(rt.mu);
    rt.done.wait(lk, [&] { return rt.running == 0; });
    rt.work = nullptr;
  }

  // Quiesce after the ranks too: drain parked requests and return
  // buffered eager slabs to the recycler so teardown after a failed job
  // is clean without relying on the abort flag.
  impl_->quiesce();

  // Finalize-time flush, after the ranks so the single-writer rings are
  // quiescent. Runs even for failed jobs: a trace of an aborted run is
  // exactly what one debugs with.
  if (impl_->obs != nullptr) {
    obs::Recorder& rec = impl_->obs->rec;
    if (rec.tracing()) rec.write_trace();
    if (rec.config().pvars && !rec.config().quiet) {
      std::fputs("\n[jhpc-obs] performance variables\n", stderr);
      std::fputs(rec.summary_table().to_text().c_str(), stderr);
      if (rec.pvars().has_histograms()) {
        std::fputs("\n[jhpc-obs] latency distributions (p50/p90/p99/max, us)\n",
                   stderr);
        std::fputs(rec.pvars().hist_table().to_text().c_str(), stderr);
      }
    }
    if (rec.config().comm_matrix && !rec.config().quiet &&
        rec.matrix() != nullptr) {
      std::fputs("\n[jhpc-obs] communication matrix (msgs/bytes)\n", stderr);
      std::fputs(rec.matrix()->to_table().to_text().c_str(), stderr);
    }
    if (!rec.config().comm_matrix_csv.empty() && rec.matrix() != nullptr) {
      rec.matrix()->write_csv(rec.config().comm_matrix_csv);
    }
    if (!rec.config().pvars_json_path.empty()) {
      rec.write_json(rec.config().pvars_json_path);
    }
    if (const std::uint64_t dropped = rec.dropped_events(); dropped > 0) {
      std::fprintf(stderr,
                   "[jhpc-obs] warning: trace ring overflow dropped %llu "
                   "events; raise JHPC_TRACE_CAPACITY\n",
                   static_cast<unsigned long long>(dropped));
    }
    // Black-box dump: when a rank failed on a transport timeout or a
    // peer death, the last protocol events are the evidence one debugs
    // with. stderr always; appended to the configured file too so CI can
    // collect it as an artifact, also from a job that built its own obs.
    bool fatal = false;
    for (const auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const TransportTimeoutError&) {
        fatal = true;
      } catch (const RankFailedError&) {
        fatal = true;
      } catch (...) {
      }
    }
    if (fatal && !impl_->obs->flight.empty()) {
      const std::string report = impl_->obs->flight.report();
      std::fputs(report.c_str(), stderr);
      std::string dump_path = rec.config().flight_dump_path;
      if (dump_path.empty())
        KnobEnv().get("JHPC_FLIGHT_RECORDER_DUMP", dump_path);
      if (!dump_path.empty()) {
        if (std::FILE* f = std::fopen(dump_path.c_str(), "a")) {
          std::fputs(report.c_str(), f);
          std::fclose(f);
        } else {
          std::fprintf(stderr,
                       "[jhpc-obs] warning: cannot append flight dump to %s\n",
                       dump_path.c_str());
        }
      }
    }
  }

  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void Universe::kill_rank(int world_rank) {
  JHPC_REQUIRE(world_rank >= 0 && world_rank < impl_->config.world_size,
               "kill_rank: rank out of range");
  impl_->external_kill(world_rank);
}

void Universe::launch(const UniverseConfig& config,
                      const std::function<void(Comm&)>& rank_main) {
  Universe u(config);
  u.run(rank_main);
}

}  // namespace jhpc::minimpi
