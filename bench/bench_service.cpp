// jhpcd service-mode throughput benchmark: how many short MPI jobs per
// minute one resident fleet sustains, with bounded memory.
//
// Two phases over REAL wall time:
//
//   short — a stream of world-2 single-pingpong jobs pushed through the
//           scheduler as fast as submit() admits them. This is the
//           steady-state churn the Universe pool and the shared slab
//           depot exist for: at rate, every job reuses a parked
//           Universe and warm slabs, so the fleet allocates nothing.
//           Summarised as bootstrap mean jobs/min with a 95% CI; the
//           --min-jobs-per-min floor (CI uses 10000) fails the run when
//           throughput regresses.
//   mixed — latency-class pingpongs submitted WHILE bandwidth-class
//           hogs (32 x 64 KiB exchanges) saturate the workers. Reports
//           mean queue wait per class: the weighted round-robin keeps
//           the latency class's wait near the hogs' service time, not
//           near the whole backlog.
//
// The JSON also records the depot high-water mark against its ceiling —
// the bounded-memory evidence EXPERIMENTS.md points at — and the count of
// jobs that did not complete: any such job fails the run, as does a depot
// high-water mark above the ceiling.
//
// Usage: bench_service [--quick] [--json PATH] [--baseline PATH]
//                      [--min-jobs-per-min N]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "jhpc/jhpcd/jhpcd.hpp"

namespace {

using namespace jhpc::bench;
using jhpc::jhpcd::JobClass;
using jhpc::jhpcd::JobHandle;
using jhpc::jhpcd::JobManager;
using jhpc::jhpcd::JobSpec;
using jhpc::jhpcd::JobState;
using jhpc::jhpcd::ServiceConfig;
using jhpc::jhpcd::ServiceStats;
using jhpc::minimpi::Comm;

JobSpec short_job(int i) {
  JobSpec spec;
  spec.name = "s" + std::to_string(i);
  spec.config.world_size = 2;
  spec.rank_main = [](Comm& world) {
    std::int32_t x = 0;
    if (world.rank() == 0) {
      world.send(&x, sizeof(x), 1, 1);
      world.recv(&x, sizeof(x), 1, 1);
    } else {
      world.recv(&x, sizeof(x), 0, 1);
      world.send(&x, sizeof(x), 0, 1);
    }
  };
  return spec;
}

JobSpec hog_job(int i) {
  JobSpec spec;
  spec.name = "h" + std::to_string(i);
  spec.config.world_size = 2;
  spec.job_class = JobClass::kBandwidth;
  spec.rank_main = [](Comm& world) {
    std::vector<std::byte> buf(64 * 1024);
    for (int r = 0; r < 32; ++r) {
      if (world.rank() == 0) {
        world.send(buf.data(), buf.size(), 1, 2);
        world.recv(buf.data(), buf.size(), 1, 2);
      } else {
        world.recv(buf.data(), buf.size(), 0, 2);
        world.send(buf.data(), buf.size(), 0, 2);
      }
    }
  };
  return spec;
}

/// Await every handle; returns the summed queue wait in us and adds the
/// jobs that did not complete to `failed`.
double await_all(std::vector<JobHandle>& handles, int& failed) {
  double wait_ns = 0.0;
  for (auto& h : handles) {
    const auto result = h.await();
    if (result.state != JobState::kCompleted) ++failed;
    wait_ns += static_cast<double>(result.queue_wait_ns);
  }
  return wait_ns / 1e3;
}

/// One short-mode sample: push `jobs` jobs through the resident manager
/// and await them all. Returns wall seconds.
double run_short_sample(JobManager& mgr, int jobs, int& failed) {
  std::vector<JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  const std::int64_t t0 = jhpc::now_ns();
  for (int i = 0; i < jobs; ++i) handles.push_back(mgr.submit(short_job(i)));
  await_all(handles, failed);
  return static_cast<double>(jhpc::now_ns() - t0) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(
      argc, argv,
      {.json = "BENCH_service.json", .floor = "--min-jobs-per-min"});
  const bool quick = args.quick;

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 4096;
  cfg.pool_capacity = 8;
  cfg.depot_max_bytes = 64u << 20;
  // Tens of thousands of jobs per run: the per-job pvar namespaces
  // would only burn registry capacity.
  cfg.per_job_pvars = false;
  JobManager mgr(cfg);

  const int samples = quick ? 3 : 5;
  const int jobs_per_sample = quick ? 300 : 2000;
  const int warmup_jobs = quick ? 50 : 200;
  int failed = 0;

  // --- short: steady-state churn throughput ------------------------------
  run_short_sample(mgr, warmup_jobs, failed);  // warm the pool and the depot
  const Sampled shortr = sample(samples, 60.0 * jobs_per_sample, [&](int) {
    return run_short_sample(mgr, jobs_per_sample, failed);
  });
  std::fprintf(stderr,
               "[bench_service] short: %10.0f jobs/min [%.0f, %.0f] "
               "(%d jobs x %d samples)\n",
               shortr.rate.mean, shortr.rate.lo, shortr.rate.hi,
               jobs_per_sample, samples);

  // --- mixed: latency-class wait under bandwidth hogs --------------------
  const int hogs = quick ? 6 : 16;
  const int lats = quick ? 30 : 100;
  std::vector<JobHandle> hog_handles, lat_handles;
  const std::int64_t t0 = jhpc::now_ns();
  for (int i = 0; i < hogs; ++i) hog_handles.push_back(mgr.submit(hog_job(i)));
  for (int i = 0; i < lats; ++i) {
    JobSpec spec = short_job(i);
    spec.job_class = JobClass::kLatency;
    lat_handles.push_back(mgr.submit(spec));
  }
  const double lat_wait_us = await_all(lat_handles, failed) / lats;
  const double hog_wait_us = await_all(hog_handles, failed) / hogs;
  const double mixed_seconds = static_cast<double>(jhpc::now_ns() - t0) * 1e-9;
  std::fprintf(stderr,
               "[bench_service] mixed: latency wait %.0f us vs bandwidth "
               "wait %.0f us (%d hogs, %d latency jobs)\n",
               lat_wait_us, hog_wait_us, hogs, lats);

  mgr.drain();
  const ServiceStats stats = mgr.stats();
  std::fprintf(stderr,
               "[bench_service] fleet: %llu universes created, %llu reused; "
               "depot hwm %llu / %zu bytes; %d jobs failed\n",
               static_cast<unsigned long long>(stats.universes_created),
               static_cast<unsigned long long>(stats.universes_reused),
               static_cast<unsigned long long>(stats.depot.hwm_bytes),
               cfg.depot_max_bytes, failed);
  write_json(
      args, "service", {},
      {{{"mode", str("short")},
        {"jobs", integer(jobs_per_sample)},
        {"samples", integer(samples)},
        {"seconds", num(shortr.seconds)},
        {"jobs_per_min", num(shortr.rate.mean)},
        {"jobs_per_min_lo", num(shortr.rate.lo)},
        {"jobs_per_min_hi", num(shortr.rate.hi)}},
       {{"mode", str("mixed")},
        {"jobs", integer(hogs + lats)},
        {"samples", integer(1)},
        {"seconds", num(mixed_seconds)},
        {"latency_wait_us", num(lat_wait_us)},
        {"bandwidth_wait_us", num(hog_wait_us)}}},
      {{"jobs_per_min", num(shortr.rate.mean)},
       {"floor_jobs_per_min", num(args.floor)},
       {"failed_jobs", integer(failed)},
       {"universes_created",
        integer(static_cast<std::int64_t>(stats.universes_created))},
       {"universes_reused",
        integer(static_cast<std::int64_t>(stats.universes_reused))},
       {"depot_hwm_bytes",
        integer(static_cast<std::int64_t>(stats.depot.hwm_bytes))},
       {"depot_max_bytes",
        integer(static_cast<std::int64_t>(cfg.depot_max_bytes))}});

  int rc = 0;
  if (failed > 0) {
    std::fprintf(stderr, "[bench_service] FAIL: %d jobs did not complete\n",
                 failed);
    rc = 1;
  }
  if (stats.depot.hwm_bytes > cfg.depot_max_bytes) {
    std::fprintf(stderr,
                 "[bench_service] FAIL: depot high-water mark exceeded the "
                 "ceiling\n");
    rc = 1;
  }
  if (!above_floor(args, "service", "short-job rate", shortr.rate.mean,
                   " jobs/min"))
    rc = 1;
  return rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}
