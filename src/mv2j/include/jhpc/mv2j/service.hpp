// Service mode of the binding core: submit/await jobs against a resident
// jhpcd fleet instead of one-shot run() launches.
//
// The Java-side analogue is a long-lived scheduler JVM that keeps the
// native library initialized and accepts job submissions; each job
// still sees the ordinary per-rank Env. See docs/SERVICE.md. Both
// bindings can share one JobManager-backed fleet in a mixed deployment;
// each facade owns a private one.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "jhpc/jhpcd/jhpcd.hpp"
#include "jhpc/mv2j/env.hpp"

namespace jhpc::bindings {

/// One service submission: a diagnostic name, the ordinary RunOptions,
/// and the jhpcd scheduling attributes.
template <VendorPolicy P>
struct ServiceJobOptions {
  std::string name;
  RunOptions<P> run{};
  jhpcd::JobClass job_class = jhpcd::JobClass::kLatency;
  int priority = 0;
  jhpcd::JobQuota quota{};
};

/// A resident scheduler. Thin facade over jhpcd::JobManager that wraps
/// each submission's rank body in the bindings Env, exactly as run()
/// does for a one-shot job.
template <VendorPolicy P>
class Service {
 public:
  explicit Service(jhpcd::ServiceConfig config = jhpcd::ServiceConfig{})
      : manager_(config) {}

  /// Queue a job; same admission/quota errors as JobManager::submit.
  jhpcd::JobHandle submit(const ServiceJobOptions<P>& options,
                          std::function<void(Env<P>&)> rank_main);

  /// Convenience: default scheduling attributes.
  jhpcd::JobHandle submit(const std::string& name,
                          const RunOptions<P>& options,
                          std::function<void(Env<P>&)> rank_main) {
    ServiceJobOptions<P> job;
    job.name = name;
    job.run = options;
    return submit(job, std::move(rank_main));
  }

  void drain() { manager_.drain(); }
  void shutdown() { manager_.shutdown(); }
  jhpcd::ServiceStats stats() const { return manager_.stats(); }

  jhpcd::JobManager& manager() { return manager_; }
  const jhpcd::JobManager& manager() const { return manager_; }

 private:
  jhpcd::JobManager manager_;
};

}  // namespace jhpc::bindings

namespace jhpc::mv2j {

using ServiceJobOptions = bindings::ServiceJobOptions<bindings::kMv2j>;
/// A resident MVAPICH2-J scheduler.
using Service = bindings::Service<bindings::kMv2j>;

}  // namespace jhpc::mv2j
