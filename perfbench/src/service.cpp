// service: the jhpcd scheduler. Two workers run world-2 jobs: 90%
// latency-class pingpongs and 10% bandwidth-class hogs (32 x 64 KiB
// exchanges). A seeded Poisson open loop at a fixed rate gives the job
// latencies, each timed from its due time; closed bursts of the same mix
// give the throughput. An op is one job.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jhpc/jhpcd/jhpcd.hpp"
#include "jhpc/support/error.hpp"
#include "plans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace mm = jhpc::minimpi;
namespace sv = jhpc::jhpcd;
using jhpc::now_ns;

// The open loop runs at about a fifth of the fleet's capacity: queueing
// near saturation would turn every slow spell of the host into a tail.
constexpr double kRatePerS = 1500.0;    // open-loop arrival rate
constexpr int kSegments = 10;           // open-loop + burst segments per run
constexpr double kOpenShare = 0.8;      // share of a segment in the open loop
constexpr int kBurstJobs = 200;         // jobs per closed burst
constexpr int kFixedJobs = 200;         // jobs of each fixed traced pass
constexpr int kWarmJobs = 20;           // set-up warm-up burst, 2 of them hogs
constexpr std::size_t kHogBytes = 64 * 1024;
constexpr int kHogExchanges = 32;

sv::ServiceConfig service_config() {
  sv::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4096;
  cfg.pool_capacity = 4;
  cfg.depot_max_bytes = 64u << 20;
  cfg.per_job_pvars = false;
  return cfg;
}

/// Where a job leaves what the harness checks after await(): the virtual
/// time rank 0 spent in the job's messages, and (counting passes) the
/// job's transport counters.
struct JobSlot {
  std::int64_t virt_ns = 0;
  Counters* counters = nullptr;
  std::mutex* counters_mu = nullptr;
};

/// Binds both ranks of a job to one core, leased for the job's lifetime.
/// At most two jobs run at once (two workers), so the two job cores
/// suffice; a job that finds none free runs unbound. The jhpcd threads
/// keep the other two cores, and a job's pingpong never waits for a
/// halted vCPU to wake.
class JobCore {
 public:
  /// Called by each rank at job start.
  void join() {
    std::lock_guard<std::mutex> lk(mu_);
    if (joined_++ == 0) slot_ = lease();
    if (slot_ >= 0) bind_to_core(kFirstJobCore + slot_);
  }
  /// Called by each rank at job end; the last one returns the core.
  void leave() {
    std::lock_guard<std::mutex> lk(mu_);
    if (++left_ == 2 && slot_ >= 0) used_.fetch_and(~(1u << slot_));
  }

 private:
  static constexpr int kFirstJobCore = 2;
  static int lease() {
    for (int s = 0; s < 2; ++s) {
      if ((used_.fetch_or(1u << s) & (1u << s)) == 0) return s;
    }
    return -1;
  }
  static inline std::atomic<unsigned> used_{0};
  std::mutex mu_;
  int joined_ = 0, left_ = 0, slot_ = -1;
};

/// `body` as a job's rank_main, run on the job's leased core.
std::function<void(mm::Comm&)> on_job_core(
    std::function<void(mm::Comm&)> body) {
  auto core = std::make_shared<JobCore>();
  return [core, body = std::move(body)](mm::Comm& w) {
    core->join();
    struct Leave {
      JobCore& c;
      ~Leave() { c.leave(); }
    } leave{*core};
    body(w);
  };
}

/// A world-2 job spec with explicit options (nothing from JHPC_*).
sv::JobSpec job_spec(const char* name, Pass pass) {
  sv::JobSpec spec;
  spec.name = name;
  spec.config.world_size = 2;
  spec.config.obs = jhpc::obs::ObsConfig{};
  spec.config = pass_config(spec.config, pass);
  return spec;
}

/// A world-2 job of the given class, its payload keyed by `key`. A
/// mismatched payload throws, so the job ends kFailed.
sv::JobSpec make_job(bool hog, std::uint64_t key, Pass pass, JobSlot* slot) {
  sv::JobSpec spec = job_spec(hog ? "hog" : "ping", pass);
  spec.job_class = hog ? sv::JobClass::kBandwidth : sv::JobClass::kLatency;
  spec.rank_main = on_job_core([hog, key, slot](mm::Comm& w) {
    const std::size_t bytes = hog ? kHogBytes : 8;
    const int rounds = hog ? kHogExchanges : 1;
    std::vector<std::byte> payload(bytes);
    std::byte* const buf = payload.data();
    const int peer = 1 - w.rank();
    const std::int64_t v0 = w.rank() == 0 ? w.vtime_ns() : 0;
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t k = key + static_cast<std::uint64_t>(r);
      if (w.rank() == 0) {
        fill_pattern(buf, bytes, k);
        w.send(buf, bytes, peer, 1);
        w.recv(buf, bytes, peer, 1);
      } else {
        w.recv(buf, bytes, peer, 1);
        w.send(buf, bytes, peer, 1);
      }
      if (!check_pattern(buf, bytes, k)) {
        throw jhpc::Error("service job payload mismatch");
      }
    }
    if (slot->counters != nullptr) {
      w.barrier();
      if (w.rank() == 0 && w.pvars() != nullptr) {
        std::lock_guard<std::mutex> lk(*slot->counters_mu);
        slot->counters->add_registry(*w.pvars());
      }
    }
    if (w.rank() == 0) slot->virt_ns = w.vtime_ns() - v0;
  });
  return spec;
}

/// One submitted job and what the harness learns about it.
struct Job {
  bool hog = false;
  std::int64_t due_ns = 0;     ///< absolute host ns (open loop)
  std::int64_t submit_ns = 0;  ///< when submit() was called
  sv::JobHandle handle;
  sv::JobResult result;
  bool rejected = false;
  JobSlot slot;
};

class Service {
 public:
  Service() : mgr_(service_config()) {}

  sv::JobManager& mgr() { return mgr_; }

  void submit(Job& j, std::uint64_t key, Pass pass = Pass::kTimed) {
    j.submit_ns = now_ns();
    try {
      j.handle = mgr_.submit(make_job(j.hog, key, pass, &j.slot));
    } catch (const sv::AdmissionRejectedError&) {
      j.rejected = true;
    }
  }

  static bool ok(const Job& j) {
    return !j.rejected && j.result.state == sv::JobState::kCompleted;
  }

  /// Await every job; returns the number that failed or were refused.
  static std::int64_t await_all(std::vector<std::unique_ptr<Job>>& jobs) {
    std::int64_t failed = 0;
    for (auto& j : jobs) {
      if (!j->rejected) j->result = j->handle.await();
      if (!ok(*j)) ++failed;
    }
    return failed;
  }

 private:
  sv::JobManager mgr_;
};

using Jobs = std::vector<std::unique_ptr<Job>>;

/// A closed burst: kBurstJobs jobs of the 90/10 mix submitted at once.
Jobs burst(Service& s, std::uint64_t seed, std::int64_t first) {
  Jobs jobs;
  for (int i = 0; i < kBurstJobs; ++i) {
    auto j = std::make_unique<Job>();
    j->hog = burst_is_hog(seed, first + i);
    s.submit(*j, mix(seed, 40, static_cast<std::uint64_t>(first + i)));
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// kFixedJobs jobs of the burst class sequence through a fresh service in
/// a pass flavour; returns the jobs' total virtual ns.
double fixed_pass(std::uint64_t seed, Pass pass, Counters* counters,
                  Outcome& out) {
  Service s;
  std::mutex mu;
  Jobs jobs;
  for (int i = 0; i < kFixedJobs; ++i) {
    auto j = std::make_unique<Job>();
    j->hog = burst_is_hog(seed, i);
    j->slot.counters = counters;
    j->slot.counters_mu = &mu;
    s.submit(*j, mix(seed, 41, static_cast<std::uint64_t>(i)), pass);
    jobs.push_back(std::move(j));
  }
  out.failed += Service::await_all(jobs);
  out.attempted += kFixedJobs;
  double virt = 0.0;
  for (const auto& j : jobs) virt += static_cast<double>(j->slot.virt_ns);
  return virt;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void run_service(const Args& a, Outcome& out, SpanLog* spans) {
  // Set-up: a service through a fixed warm-up burst (its workers, the
  // pooled tenant Universes and the warm slab depot).
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<Service>();
    Jobs warm;
    for (int i = 0; i < kWarmJobs; ++i) {
      warm.push_back(std::make_unique<Job>());
      warm.back()->hog = i % 10 == 9;
      svc->submit(*warm.back(), mix(0, 42, static_cast<std::uint64_t>(i)));
    }
    out.failed += Service::await_all(warm);
    out.attempted += kWarmJobs;
    out.setup_s.push_back(rep == 0 ? since_start_s()
                                   : static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // The run alternates kSegments open-loop segments (80% of each) with
  // closed bursts (the rest), so a slow spell of the host lands on both.
  const double seg_s = a.seconds / kSegments;
  const double open_s = seg_s * kOpenShare;
  const auto arrivals = service_arrivals(
      a.seed, kRatePerS, static_cast<int>(kRatePerS * open_s * kSegments));
  // The generator sleeps until each due time; the default 50 us timer
  // slack would make it late by design.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Jobs open;
  open.reserve(arrivals.size());
  std::vector<double> plain_rate, traced_rate;
  std::int64_t next = 0;
  std::size_t i = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    // Open loop: due times are offsets on the open-loop clock, which runs
    // only during open-loop segments.
    const auto seg_open_ns = static_cast<std::int64_t>(open_s * 1e9);
    const std::int64_t start = now_ns() - seg * seg_open_ns;
    const std::size_t first = i;
    for (; i < arrivals.size() && arrivals[i].due_ns < (seg + 1) * seg_open_ns;
         ++i) {
      auto j = std::make_unique<Job>();
      j->hog = arrivals[i].hog;
      j->due_ns = start + arrivals[i].due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(j->due_ns)));
      svc->submit(*j, mix(a.seed, 43, i));
      open.push_back(std::move(j));
    }
    for (std::size_t k = first; k < i; ++k) {
      if (!open[k]->rejected) open[k]->result = open[k]->handle.await();
    }

    // Closed bursts of the same mix; in a traced run every other burst
    // records a span per job.
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>((seg_s - open_s) * 1e9);
    for (int b = 0; now_ns() < deadline; ++b) {
      const bool traced = a.trace && b % 2 == 1;
      const std::int64_t t0 = now_ns();
      Jobs jobs = burst(*svc, a.seed, next);
      out.failed += Service::await_all(jobs);
      for (std::size_t k = 0; traced && k < jobs.size(); ++k) {
        const Job& j = *jobs[k];
        const std::int64_t op = next + static_cast<std::int64_t>(k);
        const std::int64_t begin = j.submit_ns;
        const std::int64_t started = begin + j.result.queue_wait_ns;
        const std::int64_t end = started + j.result.run_ns;
        const int root = spans->add({j.hog ? "job.hog" : "job.ping", op, -1,
                                     begin, end, j.slot.virt_ns});
        spans->add({"jhpcd.queue", op, root, begin, started, 0});
        spans->add({"jhpcd.run", op, root, started, end, j.slot.virt_ns});
      }
      next += kBurstJobs;
      const double rate =
          kBurstJobs / (static_cast<double>(now_ns() - t0) * 1e-9);
      (traced ? traced_rate : plain_rate).push_back(rate);
      out.attempted += kBurstJobs;
    }
  }

  std::vector<double> lat_wait, bw_wait, lag;
  std::int64_t block_virt_ns = 0;
  int block_jobs = 0;
  for (const auto& j : open) {
    ++out.attempted;
    if (!Service::ok(*j)) {
      ++out.failed;
      continue;
    }
    const sv::JobResult& r = j->result;
    out.op_us.add(us(j->submit_ns - j->due_ns + r.queue_wait_ns + r.run_ns));
    (j->hog ? bw_wait : lat_wait).push_back(us(r.queue_wait_ns));
    lag.push_back(us(j->submit_ns - j->due_ns));
    // Rank 0 reads a job's virtual clock before its first message and
    // after its last; a batch is a block of ten jobs, one of them a hog.
    block_virt_ns += j->slot.virt_ns;
    if (++block_jobs == 10) {
      out.virt_op_us.push_back(us(block_virt_ns) / 10);
      block_virt_ns = 0;
      block_jobs = 0;
    }
  }
  const sv::ServiceStats fleet = svc->mgr().stats();
  out.batch_rate = plain_rate;
  if (!a.trace) return;

  Metrics& m = out.layer;
  m["trace.overhead_ratio"] = {median(plain_rate) / median(traced_rate),
                               "ratio", plain_rate.size() + traced_rate.size()};
  m["jhpcd.queue_wait_p50_us.latency"] = {percentile(lat_wait, 50), "us", lat_wait.size()};
  m["jhpcd.queue_wait_p99_us.latency"] = {percentile(lat_wait, 99), "us", lat_wait.size()};
  m["jhpcd.queue_wait_p50_us.bandwidth"] = {percentile(bw_wait, 50), "us", bw_wait.size()};
  m["jhpcd.queue_wait_p99_us.bandwidth"] = {percentile(bw_wait, 99), "us", bw_wait.size()};
  m["jhpcd.gen_lag_p99_us"] = {percentile(lag, 99), "us", lag.size()};
  const double made = static_cast<double>(fleet.universes_created +
                                          fleet.universes_reused);
  m["jhpcd.universe_reuse_ratio"] = {
      made > 0 ? static_cast<double>(fleet.universes_reused) / made : 0.0,
      "ratio", static_cast<std::size_t>(made)};
  m["jhpcd.depot_hwm_bytes"] = {static_cast<double>(fleet.depot.hwm_bytes),
                                "bytes", 1};
  const double submitted = static_cast<double>(fleet.admitted + fleet.rejected);
  m["jhpcd.reject_ratio"] = {
      submitted > 0 ? static_cast<double>(fleet.rejected) / submitted : 0.0,
      "ratio", static_cast<std::size_t>(submitted)};

  const ClockCounts c0 = clock_counts();
  const double ref_virt = fixed_pass(a.seed, Pass::kTimed, nullptr, out);
  const ClockCounts c1 = clock_counts();
  Counters counters;
  fixed_pass(a.seed, Pass::kCounting, &counters, out);
  const double det_virt = fixed_pass(a.seed, Pass::kDeterministic, nullptr, out);
  counters.report(m);
  report_passes(m, c0, c1, counters.msgs_sent, ref_virt, det_virt, kFixedJobs);

  // Peel the median latency-class job: generator lag, queue wait, run;
  // inside the run, the job's one native round trip and its clock reads.
  std::vector<double> run_ns;
  for (const auto& j : open) {
    if (Service::ok(*j) && !j->hog) run_ns.push_back(static_cast<double>(j->result.run_ns));
  }
  const double reads = m["support.clock.cpu_reads_per_msg"].value;
  Timed pp, stream, clk;
  sv::JobSpec spec = job_spec("peel", Pass::kTimed);
  spec.rank_main = on_job_core([&](mm::Comm& w) {
    std::vector<std::byte> s(8), r(8);
    const int peer = 1 - w.rank();
    const Timed t = timed_calls(
        w,
        [&] {
          if (w.rank() == 0) {
            w.send(s.data(), 8, peer, 1);
            w.recv(r.data(), 8, peer, 1);
          } else {
            w.recv(r.data(), 8, peer, 1);
            w.send(s.data(), 8, peer, 1);
          }
        },
        200, 9);
    const Timed st = timed_calls(
        w,
        [&] {
          for (int i = 0; i < 64; ++i) {
            if (w.rank() == 0) w.send(s.data(), 8, peer, 2);
            else w.recv(r.data(), 8, peer, 2);
          }
          if (w.rank() == 0) w.recv(r.data(), 8, peer, 3);
          else w.send(s.data(), 8, peer, 3);
        },
        10, 9);
    if (w.rank() == 0) {
      pp = t;
      stream = st;
      clk = replay_clock(w, 2 * reads);
    }
  });
  out.attempted += 1;
  if (svc->mgr().submit(std::move(spec)).await().state !=
      sv::JobState::kCompleted) {
    ++out.failed;
  }
  const std::vector<PeelNode> nodes = {
      {"op.job.ping", out.op_us.percentile(50) * 1e3, {1, 2, 3}},
      {"jhpcd.generator_lag", percentile(lag, 50) * 1e3, {}},
      {"jhpcd.queue", percentile(lat_wait, 50) * 1e3, {}},
      {"jhpcd.run", median(run_ns), {4}},
      {"minimpi.round_trip", pp.host_ns, {5}},
      {"support.clock", clk.host_ns, {}}};
  if (spans != nullptr) {
    add_peel_spans(*spans, nodes, {0, 0, 0, 0, pp.virt_ns, clk.virt_ns},
                   1'000'000'000, now_ns());
  }
  m["minimpi.pingpong.half_rtt_ns"] = {pp.host_ns / 2, "ns", 9};
  m["minimpi.stream.msg_ns"] = {stream.host_ns / 64, "ns", 9};
  probe_support(m);
}

}  // namespace perfbench
