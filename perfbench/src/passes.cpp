#include <sched.h>

#include <algorithm>
#include <string>
#include <vector>

#include "jhpc/obs/pvar.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// coll.alg_calls.<alg> metric names and the pvars they read.
constexpr const char* kAlgMetric[6] = {
    "coll.alg_calls.bcast.binomial",
    "coll.alg_calls.bcast.scatter_ring",
    "coll.alg_calls.bcast.linear",
    "coll.alg_calls.allreduce.recursive_doubling",
    "coll.alg_calls.allreduce.ring",
    "coll.alg_calls.allreduce.linear"};
constexpr const char* kAlgPvar[6] = {
    "coll.bcast.binomial",          "coll.bcast.scatter_ring",
    "coll.bcast.linear",            "coll.allreduce.recursive_doubling",
    "coll.allreduce.ring",          "coll.allreduce.linear"};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <class Total>
void add_totals(Counters& c, Total&& total) {
  c.msgs_sent += total("mpi.msgs_sent");
  c.msgs_recvd += total("mpi.msgs_recvd");
  c.eager_sent += total("mpi.eager_sent");
  c.wait_ns += total("mpi.wait_ns");
  c.unexpected_hwm = std::max(c.unexpected_hwm, total("mpi.unexpected_hwm"));
  for (int i = 0; i < 6; ++i) c.alg[i] += total(kAlgPvar[i]);
}

}  // namespace

void bind_to_core(int slot) {
  // The CPUs the process was started on, read once (rank threads inherit
  // the unbound mask of the thread that starts them).
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void Counters::add_universe(const jhpc::minimpi::Universe& u) {
  add_totals(*this, [&u](const char* name) {
    return static_cast<double>(u.pvar_total(name));
  });
  const jhpc::minimpi::SlabStats s = u.slab_stats();
  slab_hits += static_cast<double>(s.hits);
  slab_misses += static_cast<double>(s.misses);
}

void Counters::add_registry(const jhpc::obs::PvarRegistry& reg) {
  auto total = [&reg](const char* name) {
    return static_cast<double>(reg.total(reg.find(name)));
  };
  add_totals(*this, total);
  slab_hits += total("transport.slab.hits");
  slab_misses += total("transport.slab.misses");
}

void Counters::report(Metrics& m) const {
  const auto n = static_cast<std::size_t>(msgs_sent);
  m["minimpi.eager_ratio"] = {ratio(eager_sent, msgs_sent), "ratio", n};
  m["minimpi.wait_ns_per_msg"] = {ratio(wait_ns, msgs_recvd), "ns", n};
  m["minimpi.unexpected_hwm"] = {unexpected_hwm, "count", n};
  m["minimpi.slab.hit_ratio"] = {
      ratio(slab_hits, slab_hits + slab_misses), "ratio",
      static_cast<std::size_t>(slab_hits + slab_misses)};
  m["mpjbuf.pool.hit_ratio"] = {ratio(pool_hits, pool_requests), "ratio",
                                static_cast<std::size_t>(pool_requests)};
  for (int i = 0; i < 6; ++i) m[kAlgMetric[i]] = {alg[i], "count", n};
}

void report_passes(Metrics& m, const ClockCounts& before,
                   const ClockCounts& after, double msgs, double real_virt_ns,
                   double det_virt_ns, double ops) {
  const double reads =
      static_cast<double>(after.thread_cpu - before.thread_cpu);
  m["support.clock.cpu_reads_per_msg"] = {
      after.available ? ratio(reads, msgs) : 0.0, "count",
      static_cast<std::size_t>(msgs)};
  const auto n = static_cast<std::size_t>(ops);
  m["netsim.modelled_ns_per_op"] = {ratio(det_virt_ns, ops), "ns", n};
  m["virt.cpu_leak_ns_per_op"] = {ratio(real_virt_ns - det_virt_ns, ops),
                                  "ns", n};
}

}  // namespace perfbench
