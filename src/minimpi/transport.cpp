#include "detail/transport.hpp"

#include <chrono>
#include <cstring>

#include "jhpc/support/clock.hpp"

namespace jhpc::minimpi::detail {

using namespace std::chrono_literals;

// Polling period for abort detection while parked on a condition variable.
// Only failure paths ever pay this latency.
constexpr auto kAbortPoll = 20ms;

namespace {

struct CollAlgNames {
  const char* pvar;
  const char* trace;
};

/// Indexed by CollAlg; order must match the enum.
constexpr CollAlgNames kCollAlgNames[] = {
    {"coll.barrier.dissemination", "barrier[dissemination]"},
    {"coll.bcast.binomial", "bcast[binomial]"},
    {"coll.bcast.scatter_ring", "bcast[scatter_ring]"},
    {"coll.reduce.binomial", "reduce[binomial]"},
    {"coll.allreduce.recursive_doubling", "allreduce[recursive_doubling]"},
    {"coll.allreduce.ring", "allreduce[ring]"},
    {"coll.reduce_scatter.ring", "reduce_scatter[ring]"},
    {"coll.scan.recursive_doubling", "scan[recursive_doubling]"},
    {"coll.gather.binomial", "gather[binomial]"},
    {"coll.scatter.binomial", "scatter[binomial]"},
    {"coll.allgather.recursive_doubling", "allgather[recursive_doubling]"},
    {"coll.allgather.ring", "allgather[ring]"},
    {"coll.alltoall.pairwise", "alltoall[pairwise]"},
    {"coll.allgatherv.ring", "allgatherv[ring]"},
    {"coll.alltoallv.pairwise", "alltoallv[pairwise]"},
    {"coll.barrier.linear", "barrier[linear]"},
    {"coll.bcast.linear", "bcast[linear]"},
    {"coll.reduce.linear", "reduce[linear]"},
    {"coll.allreduce.linear", "allreduce[linear]"},
    {"coll.reduce_scatter.linear", "reduce_scatter[linear]"},
    {"coll.scan.linear", "scan[linear]"},
    {"coll.gather.linear", "gather[linear]"},
    {"coll.scatter.linear", "scatter[linear]"},
    {"coll.allgather.linear", "allgather[linear]"},
    {"coll.alltoall.linear", "alltoall[linear]"},
    {"coll.allgatherv.linear", "allgatherv[linear]"},
    {"coll.alltoallv.linear", "alltoallv[linear]"},
    {"coll.gatherv.linear", "gatherv[linear]"},
    {"coll.scatterv.linear", "scatterv[linear]"},
    {"coll.nbc.barrier", "ibarrier"},
    {"coll.nbc.bcast", "ibcast"},
    {"coll.nbc.reduce", "ireduce"},
    {"coll.nbc.allreduce", "iallreduce"},
    {"coll.nbc.gather", "igather"},
    {"coll.nbc.scatter", "iscatter"},
    {"coll.nbc.allgather", "iallgather"},
    {"coll.nbc.alltoall", "ialltoall"},
    {"coll.hier.barrier", "barrier[hier]"},
    {"coll.hier.bcast", "bcast[hier]"},
    {"coll.hier.reduce", "reduce[hier]"},
    {"coll.hier.allreduce", "allreduce[hier]"},
    {"coll.hier.gather", "gather[hier]"},
};
static_assert(sizeof(kCollAlgNames) / sizeof(kCollAlgNames[0]) ==
                  static_cast<std::size_t>(CollAlg::kCount),
              "kCollAlgNames must cover every CollAlg");

}  // namespace

const char* coll_alg_pvar_name(CollAlg alg) {
  return kCollAlgNames[static_cast<std::size_t>(alg)].pvar;
}

const char* coll_alg_trace_name(CollAlg alg) {
  return kCollAlgNames[static_cast<std::size_t>(alg)].trace;
}

UniverseObs::UniverseObs(const obs::ObsConfig& config, int ranks, bool faults,
                         bool kills)
    : rec(config, ranks),
      waitstate(rec.pvars()),
      flight(config.flight_recorder ? config.flight_capacity : 0, ranks) {
  obs::PvarRegistry& reg = rec.pvars();
  using obs::PvarClass;
  msgs_sent = reg.register_pvar("mpi.msgs_sent", PvarClass::kCounter,
                                "point-to-point messages sent");
  bytes_sent = reg.register_pvar("mpi.bytes_sent", PvarClass::kCounter,
                                 "payload bytes sent");
  msgs_recvd = reg.register_pvar("mpi.msgs_recvd", PvarClass::kCounter,
                                 "point-to-point messages received");
  bytes_recvd = reg.register_pvar("mpi.bytes_recvd", PvarClass::kCounter,
                                  "payload bytes received");
  eager_sent = reg.register_pvar("mpi.eager_sent", PvarClass::kCounter,
                                 "messages sent via the eager protocol");
  rndv_sent = reg.register_pvar("mpi.rndv_sent", PvarClass::kCounter,
                                "messages sent via rendezvous");
  unexpected_hwm =
      reg.register_pvar("mpi.unexpected_hwm", PvarClass::kLevel,
                        "unexpected-queue depth high-water mark");
  wait_count = reg.register_pvar("mpi.wait_count", PvarClass::kCounter,
                                 "blocking request completions");
  wait_ns = reg.register_pvar("mpi.wait_ns", PvarClass::kTimer,
                              "virtual time spent waiting on requests");
  hist_wait =
      reg.register_pvar("hist.wait", PvarClass::kHistogram,
                        "distribution of blocking wait times");
  hist_eager =
      reg.register_pvar("hist.eager_send", PvarClass::kHistogram,
                        "eager send-to-delivery latency distribution");
  hist_rndv = reg.register_pvar(
      "hist.rndv_send", PvarClass::kHistogram,
      "rendezvous send-to-completion latency distribution");
  hist_nbc_round =
      reg.register_pvar("hist.nbc_round", PvarClass::kHistogram,
                        "NBC schedule round latency distribution");
  hist_slab = reg.register_pvar(
      "hist.slab_acquire", PvarClass::kHistogram,
      "slab-depot acquire time distribution (measured CPU ns)");
  slab_hits = reg.register_pvar("transport.slab.hits", PvarClass::kCounter,
                                "eager slabs served from the recycler");
  slab_misses =
      reg.register_pvar("transport.slab.misses", PvarClass::kCounter,
                        "eager slab heap allocations");
  slab_recycled_bytes = reg.register_pvar(
      "transport.slab.recycled_bytes", PvarClass::kCounter,
      "slab capacity bytes returned to the recycler on receive");
  slab_overflow_drops = reg.register_pvar(
      "transport.slab.overflow_drops", PvarClass::kCounter,
      "slabs freed past the recycler's retention caps");
  dt_pack_bytes = reg.register_pvar(
      "dt.pack_bytes", PvarClass::kCounter,
      "payload bytes gathered/scattered through flattened datatype runs",
      obs::PvarUnit::kBytes);
  dt_fastpath_hits = reg.register_pvar(
      "dt.fastpath_hits", PvarClass::kCounter,
      "typed transfers moved with no intermediate staging buffer");
  dt_flatten_runs =
      reg.register_pvar("dt.flatten_runs", PvarClass::kCounter,
                        "flattened datatype runs walked on the hot path");
  if (faults) {
    // Registered only for faulty jobs so a fault-free job's pvar table
    // stays identical to the pre-fault-layer output (zero-cost-off).
    fault_data_drops =
        reg.register_pvar("fault.data_drops", PvarClass::kCounter,
                          "data packets lost by fault injection");
    fault_ack_drops =
        reg.register_pvar("fault.ack_drops", PvarClass::kCounter,
                          "acknowledgements lost by fault injection");
    fault_retransmits =
        reg.register_pvar("fault.retransmits", PvarClass::kCounter,
                          "data retransmissions by the reliable transport");
    fault_dups =
        reg.register_pvar("fault.dups", PvarClass::kCounter,
                          "duplicate deliveries suppressed at the receiver");
    fault_rndv_retries =
        reg.register_pvar("fault.rndv_retries", PvarClass::kCounter,
                          "rendezvous control-message retries");
    fault_timeouts =
        reg.register_pvar("fault.timeouts", PvarClass::kCounter,
                          "messages abandoned after the delivery timeout");
  }
  if (kills) {
    // Like the fault.* family: only a job with scheduled rank deaths
    // carries the ULFM counters, so a kill-free pvar table is unchanged.
    has_rank_pvars = true;
    fault_rank_kills =
        reg.register_pvar("fault.rank.kills", PvarClass::kCounter,
                          "rank fail-stops executed");
    fault_rank_detected =
        reg.register_pvar("fault.rank.detected", PvarClass::kCounter,
                          "rank-failure errors raised at this rank");
    fault_rank_revokes =
        reg.register_pvar("fault.rank.revokes", PvarClass::kCounter,
                          "communicator revocations initiated");
    fault_rank_shrinks =
        reg.register_pvar("fault.rank.shrinks", PvarClass::kCounter,
                          "shrink operations completed");
    fault_rank_agrees =
        reg.register_pvar("fault.rank.agrees", PvarClass::kCounter,
                          "fault-tolerant agreements completed");
  }
  coll.resize(static_cast<std::size_t>(CollAlg::kCount));
  for (int a = 0; a < static_cast<int>(CollAlg::kCount); ++a) {
    coll[static_cast<std::size_t>(a)] = reg.register_pvar(
        coll_alg_pvar_name(static_cast<CollAlg>(a)), PvarClass::kCounter,
        "collective algorithm invocations");
  }
  hier_single_copy = reg.register_pvar(
      "coll.hier.single_copy", PvarClass::kCounter,
      "payloads copied directly out of the publisher's buffer");
  hier_single_copy_bytes = reg.register_pvar(
      "coll.hier.single_copy_bytes", PvarClass::kCounter,
      "bytes moved by the single-copy path", obs::PvarUnit::kBytes);
  hier_flag_wait_ns = reg.register_pvar(
      "coll.hier.flag_wait_ns", PvarClass::kTimer,
      "virtual time spent waiting on hier shared flags",
      obs::PvarUnit::kNanoseconds);
  // One-sided counters are always present, like coll.*: a window-free
  // job simply reads zero, so the pvar table stays stable across jobs.
  rma_put_bytes =
      reg.register_pvar("rma.put_bytes", PvarClass::kCounter,
                        "one-sided put payload bytes (origin rank)",
                        obs::PvarUnit::kBytes);
  rma_get_bytes =
      reg.register_pvar("rma.get_bytes", PvarClass::kCounter,
                        "one-sided get payload bytes (origin rank)",
                        obs::PvarUnit::kBytes);
  rma_acc_ops =
      reg.register_pvar("rma.acc_ops", PvarClass::kCounter,
                        "accumulate/fetch_op applications (origin rank)");
  rma_sync_epochs =
      reg.register_pvar("rma.sync_epochs", PvarClass::kCounter,
                        "RMA epoch-closing calls completed");
  hist_rma_wait = reg.register_pvar(
      "hist.rma_wait", PvarClass::kHistogram,
      "virtual ns spent completing RMA sync (lock waits, epoch close)",
      obs::PvarUnit::kNanoseconds);
}

void complete_request(RequestState& rs, const Status& st,
                      std::int64_t ready_at_ns) {
  std::lock_guard<std::mutex> lk(rs.mu);
  rs.status = st;
  rs.ready_at_ns = ready_at_ns;
  rs.complete = true;
  rs.cv.notify_all();
}

void fail_request(RequestState& rs, jhpc::ErrorCode code, std::string error) {
  std::lock_guard<std::mutex> lk(rs.mu);
  rs.failed = true;
  rs.err_code = code;
  rs.error = std::move(error);
  rs.complete = true;
  rs.cv.notify_all();
}

void fail_request_timeout(RequestState& rs, std::string error) {
  std::lock_guard<std::mutex> lk(rs.mu);
  rs.failed = true;
  rs.timed_out = true;
  rs.err_code = jhpc::ErrorCode::kTransportTimeout;
  rs.error = std::move(error);
  rs.complete = true;
  rs.cv.notify_all();
}

void fail_request_rank(RequestState& rs, std::string error,
                       std::vector<int> failed, std::int64_t detect_at_ns) {
  std::lock_guard<std::mutex> lk(rs.mu);
  if (rs.complete) return;  // the reaper never overwrites a settled result
  rs.failed = true;
  rs.err_code = jhpc::ErrorCode::kRankFailed;
  rs.failed_ranks = std::move(failed);
  rs.error = std::move(error);
  rs.ready_at_ns = detect_at_ns;
  rs.complete = true;
  rs.cv.notify_all();
}

void fail_request_revoked(RequestState& rs, std::string error,
                          std::int64_t detect_at_ns) {
  std::lock_guard<std::mutex> lk(rs.mu);
  if (rs.complete) return;
  rs.failed = true;
  rs.err_code = jhpc::ErrorCode::kCommRevoked;
  rs.error = std::move(error);
  rs.ready_at_ns = detect_at_ns;
  rs.complete = true;
  rs.cv.notify_all();
}

void throw_failure(jhpc::ErrorCode code, const std::string& err,
                   std::vector<int> failed) {
  switch (code) {
    case jhpc::ErrorCode::kTransportTimeout:
      throw TransportTimeoutError(err);
    case jhpc::ErrorCode::kTruncated:
      throw TruncationError(err);
    case jhpc::ErrorCode::kRankFailed:
      throw RankFailedError(err, std::move(failed));
    case jhpc::ErrorCode::kCommRevoked:
      throw CommRevokedError(err);
    case jhpc::ErrorCode::kAborted:
      throw AbortError();
    default:
      throw jhpc::Error(code, err);
  }
}

namespace {

/// Depth of ResilienceScope nesting on this thread (shrink/agree run
/// inside one; the transport's revoked checks and fatal escalation stand
/// down there).
thread_local int resilience_depth = 0;

}  // namespace

ResilienceScope::ResilienceScope() { ++resilience_depth; }
ResilienceScope::~ResilienceScope() { --resilience_depth; }
bool ResilienceScope::active() { return resilience_depth > 0; }

namespace {

/// wait_request after its entry read, inside the caller's CallClock:
/// parking marks the call blocked, so its exit read drops the futex and
/// scheduler work from the CPU passthrough.
Status await_request(RequestState& rs, CallClock& call) {
  const std::int64_t wait_from =
      rs.owner_clock != nullptr ? rs.owner_clock->vclock : 0;
  if (rs.obs != nullptr && rs.owner_clock != nullptr)
    rs.obs->rec.begin(rs.owner_world, "wait", wait_from);
  std::unique_lock<std::mutex> lk = call.lock(rs.mu);
  while (!rs.complete) {
    call.blocked();
    rs.cv.wait_for(lk, kAbortPoll);
    if (rs.complete) break;
    if (rs.abort != nullptr && rs.abort->load(std::memory_order_relaxed)) {
      throw AbortError();
    }
    // The waiter itself may have been fail-stopped (Universe::kill_rank
    // from another thread): unwind instead of waiting forever.
    if (rs.uni != nullptr && rs.uni->self_dead(rs.owner_world)) {
      throw RankKilledError();
    }
  }
  if (rs.failed) {
    const std::string err = rs.error;
    const jhpc::ErrorCode code =
        rs.timed_out ? jhpc::ErrorCode::kTransportTimeout : rs.err_code;
    std::vector<int> failed = rs.failed_ranks;
    const std::int64_t detect_at = rs.ready_at_ns;
    lk.unlock();
    if (rs.uni != nullptr && rs.uni->self_dead(rs.owner_world)) {
      throw RankKilledError();
    }
    // Failure detection has virtual-time latency too: a reaped request
    // carries the heartbeat-floored detection time.
    if (rs.owner_clock != nullptr) rs.owner_clock->observe(detect_at);
    if (rs.uni != nullptr && (code == jhpc::ErrorCode::kRankFailed ||
                              code == jhpc::ErrorCode::kCommRevoked)) {
      rs.uni->raise_failure(rs.owner_world, rs.context_id, code, err,
                            std::move(failed));
    }
    throw_failure(code, err, std::move(failed));
  }
  const Status st = rs.status;
  const std::int64_t ready_at = rs.ready_at_ns;
  lk.unlock();
  if (rs.owner_clock != nullptr) {
    rs.owner_clock->observe(ready_at);
    if (rs.obs != nullptr) {
      rs.obs->rec.pvars().add(rs.obs->wait_count, rs.owner_world, 1);
      rs.obs->rec.pvars().add(rs.obs->wait_ns, rs.owner_world,
                              rs.owner_clock->vclock - wait_from);
      rs.obs->rec.pvars().record(rs.obs->hist_wait, rs.owner_world,
                                 rs.owner_clock->vclock - wait_from);
      rs.obs->rec.end(rs.owner_world, "wait", rs.owner_clock->vclock);
    }
  }
  return st;
}

}  // namespace

Status wait_request(RequestState& rs) {
  // The entry read folds in the CPU the owner spent since its last
  // transport call, so the clock is current before it observes the
  // completion time.
  CallClock call(rs.owner_clock);
  return await_request(rs, call);
}

bool test_request(RequestState& rs, Status* out) {
  CallClock call(rs.owner_clock);
  if (rs.uni != nullptr && rs.uni->self_dead(rs.owner_world)) {
    throw RankKilledError();
  }
  std::unique_lock<std::mutex> lk = call.lock(rs.mu);
  if (!rs.complete) return false;
  if (rs.failed) {
    const std::string err = rs.error;
    const jhpc::ErrorCode code =
        rs.timed_out ? jhpc::ErrorCode::kTransportTimeout : rs.err_code;
    std::vector<int> failed = rs.failed_ranks;
    const std::int64_t detect_at = rs.ready_at_ns;
    lk.unlock();
    if (rs.owner_clock != nullptr) rs.owner_clock->observe(detect_at);
    if (rs.uni != nullptr && (code == jhpc::ErrorCode::kRankFailed ||
                              code == jhpc::ErrorCode::kCommRevoked)) {
      rs.uni->raise_failure(rs.owner_world, rs.context_id, code, err,
                            std::move(failed));
    }
    throw_failure(code, err, std::move(failed));
  }
  // Completed, but only observable once the owner's virtual time reaches
  // the delivery time; polling burns CPU and therefore advances it. The
  // deterministic clock charges no polling CPU, so there a poll observes
  // the completion at once, as a wait would.
  if (rs.owner_clock != nullptr &&
      rs.ready_at_ns > rs.owner_clock->vclock) {
    if (rs.owner_clock->cpu_passthrough) return false;
    rs.owner_clock->observe(rs.ready_at_ns);
  }
  const Status st = rs.status;
  lk.unlock();
  if (out != nullptr) *out = st;
  return true;
}

bool envelope_matches(int msg_cid, int msg_src, int msg_tag, int want_cid,
                      int want_src, int want_tag) {
  if (msg_cid != want_cid) return false;
  if (want_src != kAnySource && want_src != msg_src) return false;
  if (want_tag != kAnyTag && want_tag != msg_tag) return false;
  return true;
}

UniverseImpl::UniverseImpl(UniverseConfig cfg)
    : config(cfg),
      fabric(cfg.world_size, cfg.fabric),
      slab(cfg.world_size, cfg.shared_depot) {
  JHPC_REQUIRE(cfg.world_size >= 1, "world_size must be >= 1");
  endpoints.resize(static_cast<std::size_t>(cfg.world_size));
  for (auto& ep : endpoints) ep = std::make_unique<Endpoint>();
  clocks.resize(static_cast<std::size_t>(cfg.world_size));
  nbc.resize(static_cast<std::size_t>(cfg.world_size));
  faults_on = fabric.faults_enabled();
  if (faults_on) {
    const auto pairs = static_cast<std::size_t>(cfg.world_size) *
                       static_cast<std::size_t>(cfg.world_size);
    fifo_floor = std::make_unique<std::atomic<std::int64_t>[]>(pairs);
    reset_fault_state();
  }
  const auto n = static_cast<std::size_t>(cfg.world_size);
  fail.dead = std::make_unique<std::atomic<bool>[]>(n);
  fail.dead_at = std::make_unique<std::atomic<std::int64_t>[]>(n);
  fail.kill_at = std::make_unique<std::atomic<std::int64_t>[]>(n);
  reset_failure_state();
  if (cfg.obs.enabled()) {
    obs = std::make_unique<UniverseObs>(cfg.obs, cfg.world_size, faults_on,
                                        fabric.faults().kills_enabled());
  }
}

HierSeg& UniverseImpl::hier_segment(int context_id, int node,
                                    std::size_t nmembers) {
  std::lock_guard<std::mutex> lk(hier.mu);
  auto& slot = hier.segs[{context_id, node}];
  if (slot == nullptr) slot = std::make_unique<HierSeg>(nmembers);
  JHPC_ASSERT(slot->slots.size() == nmembers,
              "hier segment membership changed under one context id");
  return *slot;
}

void UniverseImpl::hier_reset() {
  std::lock_guard<std::mutex> lk(hier.mu);
  hier.segs.clear();
}

void UniverseImpl::reset_failure_state() {
  const netsim::FaultPlan& plan = fabric.faults();
  const auto n = static_cast<std::size_t>(config.world_size);
  for (std::size_t w = 0; w < n; ++w) {
    fail.dead[w].store(false, std::memory_order_relaxed);
    fail.dead_at[w].store(0, std::memory_order_relaxed);
    fail.kill_at[w].store(INT64_MAX, std::memory_order_relaxed);
  }
  fail.dead_count.store(0, std::memory_order_relaxed);
  fail.revoked_count.store(0, std::memory_order_relaxed);
  for (const netsim::FaultPlan::RankKill& k : plan.kills) {
    JHPC_REQUIRE(k.rank < config.world_size,
                 "fault plan kills rank " + std::to_string(k.rank) +
                     " outside a " + std::to_string(config.world_size) +
                     "-rank world");
    fail.kill_at[static_cast<std::size_t>(k.rank)].store(
        k.at_vns, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    fail.revoked.clear();
    fail.comm_groups.clear();
    fail.errhandlers.clear();
    fail.agree.clear();
    fail.agree_seq.clear();
  }
  fail.kills_on.store(plan.kills_enabled(), std::memory_order_release);
}

void UniverseImpl::check_self_alive(int my_world) {
  if (!kills_on()) return;
  const auto me = static_cast<std::size_t>(my_world);
  if (fail.dead[me].load(std::memory_order_acquire)) {
    // An external kill stamps the epitaph with kDeathTimeUnknown; refine
    // it here, on the owning thread, where reading the clock is safe.
    std::int64_t unknown = kDeathTimeUnknown;
    fail.dead_at[me].compare_exchange_strong(unknown, clocks[me].vclock,
                                             std::memory_order_relaxed);
    throw RankKilledError();
  }
  const std::int64_t at = fail.kill_at[me].load(std::memory_order_relaxed);
  if (clocks[me].vclock >= at) {
    mark_dead(my_world, std::max(at, clocks[me].vclock));
    throw RankKilledError();
  }
}

void UniverseImpl::external_kill(int world_rank) {
  // Arm the layer first so every subsequent transport entry sees it.
  fail.kills_on.store(true, std::memory_order_release);
  // The victim's clock is thread-local to the victim; an external
  // detector cannot read it. Stamp the epitaph "time unknown" — the
  // victim refines it in check_self_alive if it ever runs again.
  mark_dead(world_rank, kDeathTimeUnknown);
}

void UniverseImpl::mark_dead(int world_rank, std::int64_t at_vns) {
  const auto r = static_cast<std::size_t>(world_rank);
  bool expected = false;
  if (!fail.dead[r].compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return;  // already dead
  }
  fail.dead_at[r].store(at_vns, std::memory_order_relaxed);
  fail.dead_count.fetch_add(1, std::memory_order_relaxed);
  UniverseObs* const o = obs.get();
  if (o != nullptr) {
    if (o->has_rank_pvars)
      o->rec.pvars().add(o->fault_rank_kills, world_rank, 1);
    o->flight.record(world_rank,
                     {at_vns, 0, -1, -1, obs::FlightKind::kKill});
  }
  // Snapshot the comm registry; the bucket sweeps below must not nest
  // fail.mu inside bucket locks.
  std::unordered_map<int, std::vector<int>> groups;
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    groups = fail.comm_groups;
  }
  const std::int64_t detect_at = at_vns + fabric.faults().heartbeat_ns;
  const std::string what =
      "rank " + std::to_string(world_rank) + " failed (fail-stop at " +
      std::to_string(at_vns) + " virtual ns)";
  for (std::size_t w = 0; w < endpoints.size(); ++w) {
    for (MatchBucket& bk : endpoints[w]->buckets) {
      std::lock_guard<std::mutex> lk(bk.mu);
      for (auto it = bk.posted.begin(); it != bk.posted.end();) {
        RequestState& rs = **it;
        bool stranded = rs.owner_world == world_rank;
        if (!stranded) {
          const auto g = groups.find(rs.context_id);
          if (g != groups.end()) {
            if (rs.match_src == kAnySource) {
              for (const int member : g->second) {
                if (member == world_rank) {
                  stranded = true;
                  break;
                }
              }
            } else if (rs.match_src >= 0 &&
                       rs.match_src < static_cast<int>(g->second.size())) {
              stranded =
                  g->second[static_cast<std::size_t>(rs.match_src)] ==
                  world_rank;
            }
          }
        }
        if (stranded) {
          const std::shared_ptr<RequestState> rq = *it;
          it = bk.posted.erase(it);
          fail_request_rank(*rq, what, {world_rank}, detect_at);
        } else {
          ++it;
        }
      }
      for (auto it = bk.unexpected.begin(); it != bk.unexpected.end();) {
        if (it->is_rndv() && it->src_world == world_rank) {
          // The dead sender's rendezvous source buffer unwinds with its
          // thread: the envelope must never match a receive again.
          it = bk.unexpected.erase(it);
        } else if (static_cast<int>(w) == world_rank && it->is_rndv()) {
          // A survivor's rendezvous send parked toward the dead endpoint
          // would wait forever for a CTS.
          fail_request_rank(*it->rndv_sender, what, {world_rank}, detect_at);
          it = bk.unexpected.erase(it);
        } else {
          ++it;
        }
      }
      bk.cv.notify_all();
    }
  }
  // Agreement rounds complete on contributed-or-dead: re-evaluate.
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    fail.cv.notify_all();
  }
}

void UniverseImpl::register_comm(int context_id,
                                 std::vector<int> world_ranks) {
  std::lock_guard<std::mutex> lk(fail.mu);
  fail.comm_groups.emplace(context_id, std::move(world_ranks));
}

void UniverseImpl::set_errhandler(int context_id, Errhandler eh) {
  std::lock_guard<std::mutex> lk(fail.mu);
  fail.errhandlers[context_id] = eh;
}

Errhandler UniverseImpl::errhandler(int context_id) {
  std::lock_guard<std::mutex> lk(fail.mu);
  const auto it = fail.errhandlers.find(context_id);
  return it == fail.errhandlers.end() ? Errhandler::kErrorsAreFatal
                                      : it->second;
}

void UniverseImpl::revoke_comm(int context_id, int my_world) {
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    if (!fail.revoked.insert(context_id).second) return;  // idempotent
  }
  fail.revoked_count.fetch_add(1, std::memory_order_release);
  UniverseObs* const o = obs.get();
  RankClock& rclock = clocks[static_cast<std::size_t>(my_world)];
  if (o != nullptr) {
    if (o->has_rank_pvars) {
      o->rec.pvars().add(o->fault_rank_revokes, my_world, 1);
      o->rec.begin(my_world, "revoke", rclock.vclock);
    }
    o->flight.record(my_world, {rclock.vclock, context_id, -1, -1,
                                obs::FlightKind::kRevoke});
  }
  const std::int64_t detect_at =
      rclock.vclock + fabric.faults().heartbeat_ns;
  const std::string what = "communicator (context id " +
                           std::to_string(context_id) + ") revoked";
  for (std::size_t w = 0; w < endpoints.size(); ++w) {
    MatchBucket& bk = endpoints[w]->bucket(context_id);
    std::lock_guard<std::mutex> lk(bk.mu);
    for (auto it = bk.posted.begin(); it != bk.posted.end();) {
      if ((*it)->context_id == context_id) {
        const std::shared_ptr<RequestState> rq = *it;
        it = bk.posted.erase(it);
        fail_request_revoked(*rq, what, detect_at);
      } else {
        ++it;
      }
    }
    for (auto it = bk.unexpected.begin(); it != bk.unexpected.end();) {
      if (it->context_id != context_id) {
        ++it;
        continue;
      }
      if (it->is_rndv()) {
        fail_request_revoked(*it->rndv_sender, what, detect_at);
      } else if (it->bytes > 0) {
        slab.release(std::move(it->eager), static_cast<int>(w));
      }
      // ULFM drops in-flight messages on a revoked communicator.
      it = bk.unexpected.erase(it);
    }
    bk.cv.notify_all();
  }
  if (o != nullptr && o->has_rank_pvars) {
    o->rec.end(my_world, "revoke", rclock.vclock);
  }
  std::lock_guard<std::mutex> lk(fail.mu);
  fail.cv.notify_all();
}

bool UniverseImpl::comm_revoked(int context_id) {
  if (fail.revoked_count.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lk(fail.mu);
  return fail.revoked.count(context_id) > 0;
}

std::vector<int> UniverseImpl::dead_in_comm(int context_id) {
  std::vector<int> group;
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    const auto it = fail.comm_groups.find(context_id);
    if (it != fail.comm_groups.end()) group = it->second;
  }
  std::vector<int> out;
  for (const int w : group) {
    if (rank_dead(w)) out.push_back(w);
  }
  return out;
}

int UniverseImpl::dead_peer_for_recv(int context_id, int my_world,
                                     int match_src) {
  if (fail.dead_count.load(std::memory_order_acquire) == 0) return -1;
  std::vector<int> group;
  {
    std::lock_guard<std::mutex> lk(fail.mu);
    const auto it = fail.comm_groups.find(context_id);
    if (it != fail.comm_groups.end()) group = it->second;
  }
  if (match_src == kAnySource) {
    // ULFM: a wildcard receive raises once any group member is dead —
    // the awaited sender may be the dead one.
    for (const int w : group) {
      if (w != my_world && rank_dead(w)) return w;
    }
    return -1;
  }
  if (match_src >= 0 && match_src < static_cast<int>(group.size())) {
    const int w = group[static_cast<std::size_t>(match_src)];
    if (rank_dead(w)) return w;
  }
  return -1;
}

void UniverseImpl::raise_failure(int my_world, int context_id,
                                 jhpc::ErrorCode code,
                                 const std::string& what,
                                 std::vector<int> failed) {
  UniverseObs* const o = obs.get();
  if (o != nullptr && o->has_rank_pvars &&
      code == jhpc::ErrorCode::kRankFailed) {
    o->rec.pvars().add(o->fault_rank_detected, my_world, 1);
  }
  if (!ResilienceScope::active() &&
      errhandler(context_id) == Errhandler::kErrorsAreFatal) {
    // MPI_ERRORS_ARE_FATAL: the whole job comes down; this rank's typed
    // exception is the one Universe::run rethrows.
    abort_all();
  }
  throw_failure(code, what, std::move(failed));
}

void UniverseImpl::entry_checks(int my_world, int context_id,
                                int peer_world) {
  check_self_alive(my_world);
  if (fail.revoked_count.load(std::memory_order_acquire) > 0 &&
      !ResilienceScope::active() && comm_revoked(context_id)) {
    raise_failure(my_world, context_id, jhpc::ErrorCode::kCommRevoked,
                  "communicator (context id " + std::to_string(context_id) +
                      ") revoked",
                  {});
  }
  if (peer_world >= 0 && rank_dead(peer_world)) {
    raise_dead_peer(my_world, context_id, peer_world);
  }
}

void UniverseImpl::raise_dead_peer(int my_world, int context_id,
                                   int dead_world) {
  raise_failure(my_world, context_id, jhpc::ErrorCode::kRankFailed,
                "rank " + std::to_string(dead_world) + " failed (fail-stop)",
                {dead_world});
}

int UniverseImpl::park_recv(MatchBucket& bk,
                            std::shared_ptr<RequestState> rs) {
  if (kills_on()) {
    const int dead =
        dead_peer_for_recv(rs->context_id, rs->owner_world, rs->match_src);
    if (dead >= 0) return dead;
  }
  bk.posted.push_back(std::move(rs));
  return -1;
}

void UniverseImpl::quiesce() {
  for (std::size_t w = 0; w < endpoints.size(); ++w) {
    for (MatchBucket& bk : endpoints[w]->buckets) {
      std::lock_guard<std::mutex> lk(bk.mu);
      for (InMsg& m : bk.unexpected) {
        if (!m.is_rndv() && m.bytes > 0) {
          slab.release(std::move(m.eager), static_cast<int>(w));
        }
      }
      bk.unexpected.clear();
      bk.posted.clear();
    }
  }
  win_reset();
}

void UniverseImpl::win_reset() {
  std::lock_guard<std::mutex> lk(winboard.mu);
  winboard.wins.clear();
  winboard.seq.clear();
}

void UniverseImpl::reset_fault_state() {
  if (fifo_floor == nullptr) return;
  const auto pairs = static_cast<std::size_t>(config.world_size) *
                     static_cast<std::size_t>(config.world_size);
  for (std::size_t i = 0; i < pairs; ++i)
    fifo_floor[i].store(0, std::memory_order_relaxed);
}

std::int64_t UniverseImpl::fifo_raise(int src_world, int dst_world,
                                      std::int64_t t) {
  auto& cell = fifo_floor[static_cast<std::size_t>(src_world) *
                              static_cast<std::size_t>(config.world_size) +
                          static_cast<std::size_t>(dst_world)];
  std::int64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < t) {
    if (cell.compare_exchange_weak(prev, t, std::memory_order_relaxed))
      return t;
  }
  // An earlier message from this source already delivered later: the
  // reliable transport holds this one back to preserve FIFO order.
  return prev;
}

UniverseImpl::ReliableTx UniverseImpl::reliable_transmit(
    int src_world, int dst_world, std::size_t bytes, std::uint64_t seq,
    std::int64_t start_ns, int trace_rank, const char* what) {
  return reliable_transmit_each(src_world, dst_world, bytes, seq, start_ns,
                                trace_rank, what, nullptr);
}

UniverseImpl::ReliableTx UniverseImpl::reliable_transmit_each(
    int src_world, int dst_world, std::size_t bytes, std::uint64_t seq,
    std::int64_t start_ns, int trace_rank, const char* what,
    const std::function<void(std::int64_t)>& on_arrival) {
  const netsim::FaultPlan& plan = fabric.faults();
  const std::int64_t budget_end = start_ns + plan.delivery_timeout_ns;
  std::int64_t rto = plan.rto_ns;
  std::int64_t t = start_ns;
  std::int64_t first_arrival = -1;
  UniverseObs* const o = obs.get();
  for (std::uint32_t attempt = 0;; ++attempt) {
    const auto data = fabric.try_data(t, src_world, dst_world, bytes, seq,
                                      attempt);
    if (!data.dropped) {
      // The receiver side sees EVERY surviving attempt — the hook is how
      // the RMA path applies (and seq-dedups) each arrival, duplicates
      // included.
      if (on_arrival) on_arrival(data.deliver_at_ns);
      if (first_arrival < 0) {
        first_arrival = data.deliver_at_ns;
      } else if (o != nullptr) {
        // Lost ack: the receiver got this payload again and suppressed it
        // by sequence number — delivered exactly once, at first_arrival.
        o->rec.pvars().add(o->fault_dups, dst_world, 1);
      }
      const auto ack = fabric.try_control(data.deliver_at_ns, dst_world,
                                          src_world, seq, attempt,
                                          netsim::FaultSalt::kAck);
      if (!ack.dropped) {
        if (o != nullptr) {
          o->flight.record(trace_rank,
                           {ack.deliver_at_ns,
                            static_cast<std::int64_t>(seq),
                            trace_rank == src_world ? dst_world : src_world,
                            -1, obs::FlightKind::kAck});
        }
        return {first_arrival, ack.deliver_at_ns};
      }
      if (o != nullptr) o->rec.pvars().add(o->fault_ack_drops, dst_world, 1);
    } else if (o != nullptr) {
      o->rec.pvars().add(o->fault_data_drops, src_world, 1);
    }
    // Failed round (data or ack lost): the retransmit timer fires `rto`
    // after the attempt went out, then backs off exponentially.
    const std::int64_t retry_at = t + rto;
    if (retry_at > budget_end) {
      if (o != nullptr) {
        o->rec.pvars().add(o->fault_timeouts, src_world, 1);
        o->flight.record(trace_rank,
                         {t, static_cast<std::int64_t>(seq),
                          trace_rank == src_world ? dst_world : src_world,
                          -1, obs::FlightKind::kTimeout});
      }
      throw TransportTimeoutError(
          std::string(what) + ": no acknowledgement from rank " +
          std::to_string(dst_world) + " within " +
          std::to_string(plan.delivery_timeout_ns) + " virtual ns (" +
          std::to_string(attempt + 1) + " attempts)");
    }
    if (o != nullptr) {
      o->rec.pvars().add(o->fault_retransmits, src_world, 1);
      o->rec.begin(trace_rank, "retransmit", t);
      o->rec.end(trace_rank, "retransmit", retry_at);
      o->flight.record(trace_rank,
                       {retry_at, static_cast<std::int64_t>(seq),
                        trace_rank == src_world ? dst_world : src_world,
                        -1, obs::FlightKind::kRetransmit});
    }
    t = retry_at;
    rto = std::min(rto * 2, plan.rto_max_ns);
  }
}

std::int64_t UniverseImpl::reliable_control(int src_world, int dst_world,
                                            std::uint64_t seq,
                                            netsim::FaultSalt salt,
                                            std::int64_t start_ns,
                                            int trace_rank,
                                            const char* what) {
  const netsim::FaultPlan& plan = fabric.faults();
  const std::int64_t budget_end = start_ns + plan.delivery_timeout_ns;
  std::int64_t rto = plan.rto_ns;
  std::int64_t t = start_ns;
  UniverseObs* const o = obs.get();
  for (std::uint32_t attempt = 0;; ++attempt) {
    const auto ctrl =
        fabric.try_control(t, src_world, dst_world, seq, attempt, salt);
    if (!ctrl.dropped) return ctrl.deliver_at_ns;
    const std::int64_t retry_at = t + rto;
    if (retry_at > budget_end) {
      if (o != nullptr) {
        o->rec.pvars().add(o->fault_timeouts, src_world, 1);
        o->flight.record(trace_rank,
                         {t, static_cast<std::int64_t>(seq),
                          trace_rank == src_world ? dst_world : src_world,
                          -1, obs::FlightKind::kTimeout});
      }
      throw TransportTimeoutError(
          std::string(what) + ": control message to rank " +
          std::to_string(dst_world) + " lost for " +
          std::to_string(plan.delivery_timeout_ns) + " virtual ns (" +
          std::to_string(attempt + 1) + " attempts)");
    }
    if (o != nullptr) {
      o->rec.pvars().add(o->fault_rndv_retries, src_world, 1);
      o->rec.begin(trace_rank, "retransmit", t);
      o->rec.end(trace_rank, "retransmit", retry_at);
      o->flight.record(trace_rank,
                       {retry_at, static_cast<std::int64_t>(seq),
                        trace_rank == src_world ? dst_world : src_world,
                        -1, obs::FlightKind::kRetransmit});
    }
    t = retry_at;
    rto = std::min(rto * 2, plan.rto_max_ns);
  }
}

void UniverseImpl::abort_all() {
  abort.store(true, std::memory_order_relaxed);
  for (auto& ep : endpoints) {
    for (MatchBucket& bk : ep->buckets) {
      std::lock_guard<std::mutex> lk(bk.mu);
      bk.cv.notify_all();
    }
  }
}

void UniverseImpl::throw_if_aborted() const {
  if (abort.load(std::memory_order_relaxed)) throw AbortError();
}

namespace {

// dt.* pvar bookkeeping for one typed copy. `runs` is the number of
// flattened runs dt_copy walked; zero means both sides were dense and
// the copy degenerated to a plain memcpy (not a fast-path event).
void record_dt_copy(UniverseObs* o, int world, std::size_t bytes,
                    std::size_t runs) {
  if (o == nullptr || runs == 0) return;
  obs::PvarRegistry& reg = o->rec.pvars();
  reg.add(o->dt_pack_bytes, world, static_cast<std::int64_t>(bytes));
  reg.add(o->dt_fastpath_hits, world, 1);
  reg.add(o->dt_flatten_runs, world, static_cast<std::int64_t>(runs));
}

/// One payload copy on `clock`: a dense eager copy (`modelled`) is
/// charged from the copy model, any other copy is measured. Returns
/// dt_copy's flattened-run count.
std::size_t charged_copy(RankClock& clock, bool modelled,
                         const Datatype* sdt, int sdt_count, const void* src,
                         const Datatype* rdt, int rdt_count, void* dst,
                         std::size_t bytes) {
  if (modelled) {
    if (bytes != 0) std::memcpy(dst, src, bytes);
    clock.charge_copy(bytes);
    return 0;
  }
  ChargedSection copy_cost(clock);
  return dt_copy(sdt, sdt_count, src, rdt, rdt_count, dst, bytes);
}

}  // namespace

std::shared_ptr<RequestState> UniverseImpl::deliver(
    int src_world, int dst_world, int context_id, int src_comm_rank, int tag,
    const void* buf, std::size_t bytes, const Datatype* sdt, int sdt_count) {
  MatchBucket& bk =
      endpoints[static_cast<std::size_t>(dst_world)]->bucket(context_id);
  RankClock& sclock = clocks[static_cast<std::size_t>(src_world)];
  const bool eager = bytes <= config.eager_limit;

  CallClock call(&sclock);
  entry_checks(src_world, context_id, dst_world);
  UniverseObs* const o = obs.get();
  TransportSpan span(o, src_world, "deliver", sclock);
  if (o != nullptr) {
    obs::PvarRegistry& reg = o->rec.pvars();
    reg.add(o->msgs_sent, src_world, 1);
    reg.add(o->bytes_sent, src_world,
            static_cast<std::int64_t>(bytes));
    reg.add(eager ? o->eager_sent : o->rndv_sent, src_world, 1);
    if (obs::CommMatrix* m = o->rec.matrix()) {
      m->record(src_world, dst_world, static_cast<std::int64_t>(bytes));
    }
    o->flight.record(src_world,
                     {sclock.vclock, static_cast<std::int64_t>(bytes),
                      dst_world, tag,
                      eager ? obs::FlightKind::kEagerSend
                            : obs::FlightKind::kRndvSend});
  }
  // Vendor shared-memory channel cost (see UniverseConfig).
  if (config.intra_send_overhead_ns > 0 &&
      fabric.same_node(src_world, dst_world)) {
    sclock.charge(config.intra_send_overhead_ns);
  }

  const std::unique_lock<std::mutex> lk = call.lock(bk.mu);
  throw_if_aborted();

  // Try to match an already-posted receive (in post order: MPI's
  // non-overtaking rule for the receive side).
  for (auto it = bk.posted.begin(); it != bk.posted.end(); ++it) {
    RequestState& rs = **it;
    if (!envelope_matches(context_id, src_comm_rank, tag, rs.context_id,
                          rs.match_src, rs.match_tag)) {
      continue;
    }
    std::shared_ptr<RequestState> matched = *it;
    bk.posted.erase(it);
    // Completing (or failing) the receive may wake its parked owner.
    call.blocked();
    if (bytes > matched->recv_capacity) {
      fail_request(*matched, jhpc::ErrorCode::kTruncated,
                   "message truncated: " + std::to_string(bytes) +
                       " bytes into a " +
                       std::to_string(matched->recv_capacity) +
                       "-byte receive buffer");
      // The send itself still completes locally (the data is gone).
      return nullptr;
    }
    // One copy, sender layout to receiver layout: when either side is
    // strided this gathers/scatters directly between the two user
    // buffers with no staging (the matched-receive fast path, typed).
    const Datatype* const rdt =
        matched->recv_dt ? &*matched->recv_dt : nullptr;
    const std::size_t typed_runs = charged_copy(
        sclock, eager && sdt == nullptr && rdt == nullptr, sdt, sdt_count,
        buf, rdt, matched->recv_dt_count, matched->recv_buf, bytes);
    record_dt_copy(o, src_world, bytes, typed_runs);
    const std::int64_t send_v = sclock.vclock;
    std::int64_t arrival;
    if (eager) {
      if (faults_on) {
        const std::uint64_t seq = fabric.next_msg_seq(src_world, dst_world);
        try {
          const ReliableTx tx = reliable_transmit(
              src_world, dst_world, bytes, seq, send_v, src_world,
              "eager send");
          arrival = fifo_raise(src_world, dst_world, tx.deliver_at_ns);
        } catch (const TransportTimeoutError& e) {
          fail_request_timeout(*matched, e.what());
          throw;
        }
      } else {
        arrival = fabric.reserve_delivery(send_v, src_world, dst_world,
                                          bytes);
      }
    } else if (faults_on) {
      // Rendezvous under faults: RTS and CTS each retry independently
      // until they get through, then the payload moves via the reliable
      // transport. The sender completes once the payload is acked.
      const std::uint64_t seq = fabric.next_msg_seq(src_world, dst_world);
      try {
        const std::int64_t rts_at = reliable_control(
            src_world, dst_world, seq, netsim::FaultSalt::kRts, send_v,
            src_world, "rendezvous RTS");
        const std::int64_t cts_at = reliable_control(
            dst_world, src_world, seq, netsim::FaultSalt::kCts,
            std::max(rts_at, matched->post_vtime), src_world,
            "rendezvous CTS");
        const ReliableTx tx = reliable_transmit(
            src_world, dst_world, bytes, seq, cts_at, src_world,
            "rendezvous payload");
        arrival = fifo_raise(src_world, dst_world, tx.deliver_at_ns);
        sclock.observe(tx.acked_at_ns);
      } catch (const TransportTimeoutError& e) {
        fail_request_timeout(*matched, e.what());
        throw;
      }
    } else {
      // Rendezvous with the receive already posted: RTS travels one hop,
      // the CTS answer another, then the payload moves (the handshake the
      // eager protocol exists to avoid).
      const std::int64_t hop = fabric.hop_latency_ns(src_world, dst_world);
      const std::int64_t start =
          std::max(send_v + hop, matched->post_vtime) + hop;
      arrival = fabric.reserve_delivery(start, src_world, dst_world, bytes);
      // The sender is locally complete when its data has left the node.
      sclock.observe(start + fabric.serialization_ns(bytes));
    }
    if (o != nullptr) {
      o->rec.pvars().add(o->msgs_recvd, dst_world, 1);
      o->rec.pvars().add(o->bytes_recvd, dst_world,
                         static_cast<std::int64_t>(bytes));
      o->rec.pvars().record(eager ? o->hist_eager : o->hist_rndv, src_world,
                            std::max<std::int64_t>(arrival - send_v, 0));
      // Wait-state attribution: the receive was posted at post_vtime and
      // the data lands at arrival. Whichever side is later in VIRTUAL
      // time is the late one. Trace marks go on the sender's ring — this
      // is the sender's thread and trace rings are single-writer.
      const std::int64_t ws = arrival - matched->post_vtime;
      if (ws > 0) {
        o->waitstate.late_sender(dst_world, ws);
        o->rec.begin(src_world, "ws.late_sender", sclock.vclock);
        o->rec.end(src_world, "ws.late_sender", sclock.vclock);
      } else if (ws < 0) {
        o->waitstate.late_receiver(dst_world, -ws);
        o->rec.begin(src_world, "ws.late_receiver", sclock.vclock);
        o->rec.end(src_world, "ws.late_receiver", sclock.vclock);
      }
      o->flight.record(dst_world,
                       {arrival, static_cast<std::int64_t>(bytes),
                        src_world, tag, obs::FlightKind::kMatch});
    }
    complete_request(*matched, Status{src_comm_rank, tag, bytes}, arrival);
    return nullptr;
  }

  // No posted receive: park the message in the unexpected queue. Waking
  // a parked prober blocks this call on the host.
  auto enqueue = [&](InMsg m) {
    bk.unexpected.push_back(std::move(m));
    if (o != nullptr) {
      o->rec.pvars().raise(
          o->unexpected_hwm, dst_world,
          static_cast<std::int64_t>(bk.unexpected.size()));
    }
    if (bk.probe_waiters > 0) {
      call.blocked();
      bk.cv.notify_all();
    }
  };
  InMsg msg;
  msg.src = src_comm_rank;
  msg.tag = tag;
  msg.context_id = context_id;
  msg.src_world = src_world;
  msg.bytes = bytes;
  if (eager) {
    if (bytes > 0) {
      // Draw an owned payload slab from the recycler (steady state: a
      // pointer pop, no allocation). Only the copy is simulated work; the
      // pool bookkeeping is host overhead and stays uncharged.
      bool hit = false;
      const std::int64_t acq0 =
          o != nullptr ? jhpc::thread_cpu_ns() : 0;
      msg.eager = slab.acquire(bytes, src_world, &hit);
      if (o != nullptr) {
        // Depot work is real host work, not modelled fabric time: the
        // acquire distribution is measured CPU ns.
        o->rec.pvars().record(o->hist_slab, src_world,
                              jhpc::thread_cpu_ns() - acq0);
        o->rec.pvars().add(hit ? o->slab_hits : o->slab_misses, src_world,
                           1);
        if (!hit) {
          // Cold-path heap allocation: leave a zero-width mark in the
          // trace so allocation storms are visible next to the sends.
          o->rec.begin(src_world, "slab_alloc", sclock.vclock);
          o->rec.end(src_world, "slab_alloc", sclock.vclock);
        }
      }
      // Gather the (possibly strided) payload straight into the recycled
      // slab: the one copy of the noncontiguous eager path.
      const std::size_t typed_runs =
          charged_copy(sclock, sdt == nullptr, sdt, sdt_count, buf, nullptr,
                       0, msg.eager.data(), bytes);
      record_dt_copy(o, src_world, bytes, typed_runs);
    }
    msg.send_vtime = sclock.vclock;
    if (faults_on) {
      msg.seq = fabric.next_msg_seq(src_world, dst_world);
      // Throws on timeout before the enqueue: the receiver never sees a
      // payload the transport gave up on.
      const ReliableTx tx = reliable_transmit(src_world, dst_world, bytes,
                                              msg.seq, msg.send_vtime,
                                              src_world, "eager send");
      msg.deliver_at_ns = fifo_raise(src_world, dst_world, tx.deliver_at_ns);
    } else {
      msg.deliver_at_ns = fabric.reserve_delivery(msg.send_vtime, src_world,
                                                  dst_world, bytes);
    }
    if (o != nullptr) {
      o->rec.pvars().record(
          o->hist_eager, src_world,
          std::max<std::int64_t>(msg.deliver_at_ns - msg.send_vtime, 0));
    }
    enqueue(std::move(msg));
    return nullptr;  // sender completes locally (buffered)
  }
  msg.send_vtime = sclock.vclock;
  // Rendezvous: expose the sender's live buffer; the sender completes when
  // a matching receive is posted and the transfer is scheduled. The header
  // (what probe can see) arrives after one fabric hop.
  auto sender = std::make_shared<RequestState>();
  sender->abort = &abort;
  sender->owner_clock = &sclock;
  sender->obs = o;
  sender->owner_world = src_world;
  sender->context_id = context_id;
  sender->uni = this;
  if (faults_on) {
    msg.seq = fabric.next_msg_seq(src_world, dst_world);
    msg.deliver_at_ns = reliable_control(src_world, dst_world, msg.seq,
                                         netsim::FaultSalt::kRts,
                                         msg.send_vtime, src_world,
                                         "rendezvous RTS");
  } else {
    msg.deliver_at_ns = fabric.reserve_delivery(msg.send_vtime, src_world,
                                                dst_world, /*bytes=*/0);
  }
  msg.rndv_src = buf;
  msg.rndv_sender = sender;
  if (sdt != nullptr) {
    msg.rndv_dt = *sdt;
    msg.rndv_dt_count = sdt_count;
  }
  enqueue(std::move(msg));
  return sender;
}

std::shared_ptr<RequestState> UniverseImpl::post_recv(
    int my_world, int context_id, int src, int tag, void* buf,
    std::size_t capacity, const Datatype* rdt, int rdt_count) {
  RankClock& rclock = clocks[static_cast<std::size_t>(my_world)];
  CallClock call(&rclock);
  UniverseObs* const o = obs.get();
  if (o != nullptr) {
    // peer here is the match spec (comm rank or kAnySource), the only
    // identity a post has before it matches. Recorded ahead of the
    // entry checks: a receive stranded by an already-dead peer is
    // exactly what the black-box dump exists to show.
    o->flight.record(my_world,
                     {rclock.vclock, static_cast<std::int64_t>(capacity),
                      src, tag, obs::FlightKind::kPost});
  }
  entry_checks(my_world, context_id,
               kills_on() ? dead_peer_for_recv(context_id, my_world, src)
                          : -1);
  TransportSpan span(o, my_world, "post", rclock);

  auto rs = recv_request(my_world, context_id, src, tag, buf, capacity, rdt,
                         rdt_count);
  MatchBucket& bk =
      endpoints[static_cast<std::size_t>(my_world)]->bucket(context_id);
  std::unique_lock<std::mutex> lk = call.lock(bk.mu);
  throw_if_aborted();

  // Scan the unexpected queue in arrival order (non-overtaking rule for
  // the send side).
  for (auto it = bk.unexpected.begin(); it != bk.unexpected.end(); ++it) {
    if (!envelope_matches(it->context_id, it->src, it->tag, context_id, src,
                          tag)) {
      continue;
    }
    InMsg msg = std::move(*it);
    bk.unexpected.erase(it);
    const Status st{msg.src, msg.tag, msg.bytes};
    Consumed c = consume_matched(std::move(msg), my_world, buf, capacity,
                                 rclock, rdt, rdt_count);
    if (c.woke_sender) call.blocked();
    if (!c.ok) {
      if (c.timed_out) {
        fail_request_timeout(*rs, std::move(c.error));
      } else {
        fail_request(*rs, c.code, std::move(c.error));
      }
      return rs;
    }
    complete_request(*rs, st, c.arrival_ns);
    return rs;
  }

  const int dead = park_recv(bk, rs);
  if (dead >= 0) {
    lk.unlock();
    raise_dead_peer(my_world, context_id, dead);
  }
  return rs;
}

std::shared_ptr<RequestState> UniverseImpl::recv_request(
    int my_world, int context_id, int src, int tag, void* buf,
    std::size_t capacity, const Datatype* rdt, int rdt_count) {
  RankClock& rclock = clocks[static_cast<std::size_t>(my_world)];
  auto rs = std::make_shared<RequestState>();
  rs->abort = &abort;
  rs->owner_clock = &rclock;
  rs->obs = obs.get();
  rs->owner_world = my_world;
  rs->uni = this;
  rs->post_vtime = rclock.vclock;
  rs->is_recv = true;
  rs->recv_buf = buf;
  rs->recv_capacity = capacity;
  if (rdt != nullptr) {
    rs->recv_dt = *rdt;
    rs->recv_dt_count = rdt_count;
  }
  rs->match_src = src;
  rs->match_tag = tag;
  rs->context_id = context_id;
  return rs;
}

UniverseImpl::Consumed UniverseImpl::consume_matched(
    InMsg msg, int my_world, void* buf, std::size_t capacity,
    RankClock& rclock, const Datatype* rdt, int rdt_count) {
  UniverseObs* const o = obs.get();
  // The receive's virtual post time: the clock before the copy and
  // rendezvous costs below advance it (wait-state classification).
  const std::int64_t post_v = rclock.vclock;
  Consumed c;
  // Completing or failing a rendezvous sender may wake it.
  c.woke_sender = msg.is_rndv();
  if (msg.bytes > capacity) {
    if (msg.is_rndv()) {
      // Release the sender; its data was never transferred.
      complete_request(*msg.rndv_sender, Status{}, 0);
    } else {
      // The eager payload is discarded; its slab goes back to the pool.
      slab.release(std::move(msg.eager), my_world);
    }
    c.ok = false;
    c.code = jhpc::ErrorCode::kTruncated;
    c.error = "message truncated: " + std::to_string(msg.bytes) +
              " bytes into a " + std::to_string(capacity) +
              "-byte receive buffer";
    return c;
  }
  if (msg.is_rndv()) {
    // The sender's live rendezvous buffer may itself be strided; move it
    // into the receiver's layout in one lockstep pass, no staging buffer.
    const std::size_t typed_runs = charged_copy(
        rclock, /*modelled=*/false, msg.rndv_dt ? &*msg.rndv_dt : nullptr,
        msg.rndv_dt_count, msg.rndv_src, rdt, rdt_count, buf, msg.bytes);
    record_dt_copy(o, my_world, msg.bytes, typed_runs);
  }
  if (msg.is_rndv() && faults_on) {
    // The RTS header already arrived (msg.deliver_at_ns, retried until
    // it got through); answer with a CTS and pull the payload reliably.
    // Both run on this receiver's thread, so their trace spans belong
    // to this rank's ring.
    const std::int64_t cts_start = std::max(msg.deliver_at_ns, rclock.vclock);
    try {
      const std::int64_t cts_at = reliable_control(
          my_world, msg.src_world, msg.seq, netsim::FaultSalt::kCts,
          cts_start, my_world, "rendezvous CTS");
      const ReliableTx tx = reliable_transmit(
          msg.src_world, my_world, msg.bytes, msg.seq, cts_at, my_world,
          "rendezvous payload");
      c.arrival_ns = fifo_raise(msg.src_world, my_world, tx.deliver_at_ns);
      complete_request(*msg.rndv_sender, Status{}, tx.acked_at_ns);
    } catch (const TransportTimeoutError& e) {
      fail_request_timeout(*msg.rndv_sender, e.what());
      c.ok = false;
      c.timed_out = true;
      c.code = jhpc::ErrorCode::kTransportTimeout;
      c.error = e.what();
      return c;
    }
  } else if (msg.is_rndv()) {
    // RTS arrived at send_vtime + hop; we answer with CTS now, and the
    // payload starts moving when the CTS reaches the sender.
    const std::int64_t hop = fabric.hop_latency_ns(msg.src_world, my_world);
    const std::int64_t start =
        std::max(msg.send_vtime + hop, rclock.vclock) + hop;
    c.arrival_ns =
        fabric.reserve_delivery(start, msg.src_world, my_world, msg.bytes);
    complete_request(*msg.rndv_sender, Status{},
                     start + fabric.serialization_ns(msg.bytes));
  } else {
    std::int64_t copy_ns = 0;
    if (msg.bytes > 0) {
      // The slab payload was packed dense at send time; scatter it
      // straight into the receiver's (possibly strided) buffer.
      const std::int64_t v0 = rclock.vclock;
      const std::size_t typed_runs =
          charged_copy(rclock, rdt == nullptr, nullptr, 0, msg.eager.data(),
                       rdt, rdt_count, buf, msg.bytes);
      copy_ns = rclock.vclock - v0;
      record_dt_copy(o, my_world, msg.bytes, typed_runs);
      const SlabPool::Released rel =
          slab.release(std::move(msg.eager), my_world);
      if (o != nullptr) {
        if (rel == SlabPool::Released::kRecycled) {
          o->rec.pvars().add(
              o->slab_recycled_bytes, my_world,
              static_cast<std::int64_t>(
                  SlabPool::capacity_of(SlabPool::class_of(msg.bytes))));
        } else {
          o->rec.pvars().add(o->slab_overflow_drops, my_world, 1);
        }
      }
    }
    // The copy out of the slab starts no earlier than the payload's
    // arrival: observe the arrival, then charge the copy.
    c.arrival_ns = msg.deliver_at_ns + copy_ns;
  }
  if (o != nullptr) {
    o->rec.pvars().add(o->msgs_recvd, my_world, 1);
    o->rec.pvars().add(o->bytes_recvd, my_world,
                       static_cast<std::int64_t>(msg.bytes));
    if (msg.is_rndv()) {
      o->rec.pvars().record(
          o->hist_rndv, msg.src_world,
          std::max<std::int64_t>(c.arrival_ns - msg.send_vtime, 0));
    }
    // Wait-state attribution: the message arrived (virtually) at
    // deliver_at_ns and the receive was posted at post_v. This runs on
    // the receiving rank's thread, so its trace ring takes the marks.
    const std::int64_t ws = post_v - msg.deliver_at_ns;
    if (ws > 0) {
      o->waitstate.late_receiver(my_world, ws);
      o->rec.begin(my_world, "ws.late_receiver", post_v);
      o->rec.end(my_world, "ws.late_receiver", post_v);
    } else if (ws < 0) {
      o->waitstate.late_sender(my_world, -ws);
      o->rec.begin(my_world, "ws.late_sender", post_v);
      o->rec.end(my_world, "ws.late_sender", post_v);
    }
    o->flight.record(my_world,
                     {c.arrival_ns, static_cast<std::int64_t>(msg.bytes),
                      msg.src_world, msg.tag, obs::FlightKind::kMatch});
  }
  return c;
}

Status UniverseImpl::blocking_recv(int my_world, int context_id, int src,
                                   int tag, void* buf, std::size_t capacity,
                                   const Datatype* rdt, int rdt_count) {
  if (obs != nullptr) {
    // Instrumented jobs keep the two-step path: the post/wait trace spans
    // and wait_count/wait_ns pvars are part of the observable contract.
    auto rs = post_recv(my_world, context_id, src, tag, buf, capacity, rdt,
                        rdt_count);
    return wait_request(*rs);
  }
  RankClock& rclock = clocks[static_cast<std::size_t>(my_world)];
  CallClock call(&rclock);
  entry_checks(my_world, context_id,
               kills_on() ? dead_peer_for_recv(context_id, my_world, src)
                          : -1);
  MatchBucket& bk =
      endpoints[static_cast<std::size_t>(my_world)]->bucket(context_id);
  std::shared_ptr<RequestState> rs;
  int dead = -1;
  {
    const std::unique_lock<std::mutex> lk = call.lock(bk.mu);
    throw_if_aborted();
    for (auto it = bk.unexpected.begin(); it != bk.unexpected.end(); ++it) {
      if (!envelope_matches(it->context_id, it->src, it->tag, context_id,
                            src, tag)) {
        continue;
      }
      // Matched-receive fast path: consume in place, no RequestState, no
      // request lock/condvar round trip.
      InMsg msg = std::move(*it);
      bk.unexpected.erase(it);
      const Status st{msg.src, msg.tag, msg.bytes};
      Consumed c = consume_matched(std::move(msg), my_world, buf, capacity,
                                   rclock, rdt, rdt_count);
      if (c.woke_sender) call.blocked();
      if (!c.ok) {
        if (c.timed_out) throw TransportTimeoutError(c.error);
        throw_failure(c.code, c.error, {});
      }
      rclock.observe(c.arrival_ns);
      return st;
    }
    // Nothing pending: park a posted receive. Scan-then-park must happen
    // under one bucket lock acquisition or deliver() could slot a message
    // into the queue between the two.
    rs = recv_request(my_world, context_id, src, tag, buf, capacity, rdt,
                      rdt_count);
    dead = park_recv(bk, rs);
  }
  if (dead >= 0) raise_dead_peer(my_world, context_id, dead);
  try {
    // The wait runs inside this call: one entry read, and one exit read
    // if it parked.
    return await_request(*rs, call);
  } catch (...) {
    // Unwinding with the receive still posted (self fail-stop, abort):
    // the caller's buffer dies with this frame, so withdraw the request
    // before anyone can match it.
    cancel_recv(*rs);
    throw;
  }
}

void UniverseImpl::cancel_recv(const RequestState& rs) {
  MatchBucket& bk = endpoints[static_cast<std::size_t>(rs.owner_world)]
                        ->bucket(rs.context_id);
  std::lock_guard<std::mutex> lk(bk.mu);
  for (auto it = bk.posted.begin(); it != bk.posted.end(); ++it) {
    if (it->get() == &rs) {
      bk.posted.erase(it);
      return;
    }
  }
  // Not posted: either it completed, or a deliver() matched it and is
  // copying under bk.mu — which we just waited out, so the buffer is
  // quiescent either way.
}

bool UniverseImpl::probe_match(int my_world, int context_id, int src, int tag,
                               bool blocking, Status* out) {
  RankClock& rclock = clocks[static_cast<std::size_t>(my_world)];
  CallClock call(&rclock);
  MatchBucket& bk =
      endpoints[static_cast<std::size_t>(my_world)]->bucket(context_id);
  std::unique_lock<std::mutex> lk = call.lock(bk.mu);
  for (;;) {
    throw_if_aborted();
    if (kills_on()) {
      // Under the bucket lock only the no-reap checks are safe; a
      // scheduled self-death fires at the next lock-free entry point.
      if (self_dead(my_world)) throw RankKilledError();
      const int dead = dead_peer_for_recv(context_id, my_world, src);
      if (dead >= 0) {
        lk.unlock();
        raise_dead_peer(my_world, context_id, dead);
      }
    }
    if (fail.revoked_count.load(std::memory_order_acquire) > 0 &&
        !ResilienceScope::active() && comm_revoked(context_id)) {
      lk.unlock();
      raise_failure(my_world, context_id, jhpc::ErrorCode::kCommRevoked,
                    "communicator (context id " +
                        std::to_string(context_id) + ") revoked",
                    {});
    }
    for (const auto& msg : bk.unexpected) {
      if (envelope_matches(msg.context_id, msg.src, msg.tag, context_id, src,
                           tag)) {
        // Respect the fabric: the envelope is visible only once it has
        // arrived in this rank's virtual time. A blocking probe would
        // simply have waited — jump the clock. A non-blocking probe
        // reports "nothing yet"; the caller's polling CPU advances the
        // clock until the arrival becomes visible. The deterministic
        // clock charges no polling CPU, so there it jumps too.
        if (msg.deliver_at_ns > rclock.vclock) {
          if (!blocking && rclock.cpu_passthrough) return false;
          rclock.observe(msg.deliver_at_ns);
        }
        if (out != nullptr) *out = Status{msg.src, msg.tag, msg.bytes};
        return true;
      }
    }
    if (!blocking) return false;
    call.blocked();
    ++bk.probe_waiters;
    bk.cv.wait_for(lk, kAbortPoll);
    --bk.probe_waiters;
  }
}

}  // namespace jhpc::minimpi::detail
