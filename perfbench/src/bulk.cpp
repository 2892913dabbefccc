// bulk: copy bandwidth and the large-message algorithms. Four ranks on two
// virtual nodes (ppn 2). A seeded mix of mv2j bcast, allReduce (double
// SUM) and inter-node pingpong (ranks 0 and 2) at 64 KiB to 4 MiB, half
// on ByteBuffers and half on arrays. An op is one call; a pingpong op's
// latency is its half round trip.
#include <atomic>
#include <cstring>
#include <mutex>

#include "jhpc/mv2j/env.hpp"
#include "plans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace mj = jhpc::minijvm;
namespace mm = jhpc::minimpi;
using jhpc::now_ns;

constexpr int kRanks = 4;
constexpr int kPpn = 2;
constexpr int kBatch = 32;          // ops per batch (and per stop check)
constexpr int kFixedOps = 96;       // ops of each fixed traced pass
constexpr std::size_t kHeapMib = 64;
constexpr int kTagPing = 5;
constexpr std::size_t kMaxEls = kBulkMaxBytes / 8;
constexpr const char* kKindName[3] = {"bcast", "allreduce", "pingpong"};

/// Sampled element positions of an n-double allreduce payload.
template <class F>
void for_sampled(std::size_t n, F&& f) {
  const std::size_t stride = n > 512 ? n / 512 : 1;
  for (std::size_t p = 0; p < n; p += stride) f(p);
  f(n - 1);
}

/// Closed form of the allreduce check: rank r contributes
/// (r+1)*k + p%13 at position p, so the sum is 10k + 4*(p%13).
void put_reduce_input(std::byte* raw_bytes, std::size_t n, int rank, double k) {
  for_sampled(n, [&](std::size_t p) {
    const double v = (rank + 1) * k + static_cast<double>(p % 13);
    std::memcpy(raw_bytes + p * 8, &v, 8);
  });
}
bool check_reduce(const std::byte* raw_bytes, std::size_t n, double k) {
  bool ok = true;
  for_sampled(n, [&](std::size_t p) {
    double v = 0;
    std::memcpy(&v, raw_bytes + p * 8, 8);
    ok = ok && v == 10.0 * k + 4.0 * static_cast<double>(p % 13);
  });
  return ok;
}

/// Rank 0's record of a run of ops.
struct Collect {
  Samples* op_us = nullptr;  ///< the outcome's store; null: not kept
  std::vector<double> batch_rate, virt_op_us;
  std::int64_t ops = 0;
  double virt_ns = 0.0;
  SpanLog* spans = nullptr;
};

/// One rank's bindings environment and payloads.
class BulkRank {
 public:
  BulkRank(mm::Comm& native, const jhpc::mv2j::RunOptions& opts,
           std::atomic<std::int64_t>& failed)
      : native_(native),
        env_(native, opts),
        sb_(env_.newDirectBuffer(kBulkMaxBytes)),
        rb_(env_.newDirectBuffer(kBulkMaxBytes)),
        sa_(env_.newArray<mj::jdouble>(kMaxEls)),
        ra_(env_.newArray<mj::jdouble>(kMaxEls)),
        failed_(failed) {}

  jhpc::mv2j::Env& env() { return env_; }

  /// Ops [first, first+count), or with count < 0 batches of ops until
  /// rank 0's deadline has passed. With `alt`, every other batch is
  /// recorded there instead (the traced half of a traced run).
  void ops(std::uint64_t seed, std::int64_t first, std::int64_t count,
           std::int64_t deadline, Collect& plain, Collect* alt = nullptr) {
    const bool r0 = native_.rank() == 0;
    std::int64_t i = first;
    for (int batch = 0;; ++batch) {
      Collect& c = alt != nullptr && batch % 2 == 1 ? *alt : plain;
      int go = count >= 0 ? static_cast<int>(i < first + count) : 0;
      if (count < 0) {
        go = r0 && now_ns() < deadline ? 1 : 0;
        native_.bcast(&go, sizeof(go), 0);
      }
      if (go == 0) break;
      const std::int64_t t0 = now_ns();
      const std::int64_t v0 = native_.vtime_ns();
      int j = 0;
      for (; j < kBatch && (count < 0 || i < first + count); ++j, ++i) {
        const BulkOp op = bulk_op(seed, i);
        const std::int64_t sv0 = c.spans ? native_.vtime_ns() : 0;
        const std::int64_t st0 = now_ns();
        const std::int64_t ns = run(op, mix(seed, 11, static_cast<std::uint64_t>(i)));
        if (r0) {
          if (c.op_us != nullptr) c.op_us->add(static_cast<double>(ns) / 1e3);
          if (c.spans != nullptr) {
            c.spans->add({kKindName[op.kind], i, -1, st0, now_ns(),
                          native_.vtime_ns() - sv0});
          }
        }
      }
      if (r0) {
        const double dt = static_cast<double>(now_ns() - t0);
        const double dv = static_cast<double>(native_.vtime_ns() - v0);
        c.batch_rate.push_back(j / (dt * 1e-9));
        c.virt_op_us.push_back(dv / 1e3 / j);
        c.virt_ns += dv;
        c.ops += j;
      }
    }
  }

  /// Set-up warm-up: one op of every kind and payload at a fixed size, so
  /// slabs, pools and pages are warm for the first timed op.
  void warm_up() {
    for (const auto kind : {BulkOp::kBcast, BulkOp::kAllreduce, BulkOp::kPingpong}) {
      for (const bool arrays : {false, true}) {
        run({kind, 256 * 1024, arrays, 1}, mix(0, 12, static_cast<std::uint64_t>(kind)));
      }
    }
    native_.barrier();
  }

  /// Run one op on this rank; returns the host ns of the call (the half
  /// round trip for a pingpong). Replays skip the payload verification.
  std::int64_t run(const BulkOp& op, std::uint64_t key, bool verify = true) {
    return op.arrays ? run_on(op, key, verify, sa_, ra_)
                     : run_on(op, key, verify, sb_, rb_);
  }

  /// Replay sampled op `op` at each lower boundary on every rank; rank 0
  /// peels it and adds its samples to `acc`.
  void peel(const BulkOp& op, double reads_per_op, SpanLog* spans,
            std::int64_t op_id, PeelSamples& acc);

 private:
  template <class Buf>
  std::int64_t run_on(const BulkOp& op, std::uint64_t key, bool verify,
                      Buf& s, Buf& r) {
    auto& w = env_.COMM_WORLD();
    const auto& DOUBLE = jhpc::mv2j::DOUBLE;
    const int n = static_cast<int>(op.bytes / 8);
    const int me = native_.rank();
    std::int64_t t0 = 0, t = 0;
    switch (op.kind) {
      case BulkOp::kBcast:
        if (verify && me == op.root) fill_pattern(raw(s), op.bytes, key);
        t0 = now_ns();
        w.bcast(s, n, DOUBLE, op.root);
        t = now_ns() - t0;
        if (verify && me != op.root && !check_pattern(raw(s), op.bytes, key)) {
          ++failed_;
        }
        break;
      case BulkOp::kAllreduce: {
        const auto k = static_cast<double>(key % 97 + 1);
        if (verify) put_reduce_input(raw(s), static_cast<std::size_t>(n), me, k);
        t0 = now_ns();
        w.allReduce(s, r, n, DOUBLE, jhpc::mv2j::SUM);
        t = now_ns() - t0;
        if (verify && !check_reduce(raw(r), static_cast<std::size_t>(n), k)) {
          ++failed_;
        }
        break;
      }
      case BulkOp::kPingpong:
        if (me == 0) {
          if (verify) fill_pattern(raw(s), op.bytes, key);
          t0 = now_ns();
          w.send(s, n, DOUBLE, 2, kTagPing);
          w.recv(r, n, DOUBLE, 2, kTagPing);
          t = (now_ns() - t0) / 2;
          if (verify && !check_pattern(raw(r), op.bytes, key)) ++failed_;
        } else if (me == 2) {
          w.recv(r, n, DOUBLE, 0, kTagPing);
          w.send(r, n, DOUBLE, 0, kTagPing);
          if (verify && !check_pattern(raw(r), op.bytes, key)) ++failed_;
        }
        break;
    }
    return t;
  }

  mm::Comm& native_;
  jhpc::mv2j::Env env_;
  mj::ByteBuffer sb_, rb_;
  mj::JArray<mj::jdouble> sa_, ra_;
  std::atomic<std::int64_t>& failed_;
};

void BulkRank::peel(const BulkOp& op, double reads_per_op, SpanLog* spans,
                    std::int64_t op_id,
                    PeelSamples& acc) {
  const int me = native_.rank();
  const bool pair = op.kind == BulkOp::kPingpong;
  const bool in_op = !pair || me == 0 || me == 2;
  const int reps = op.bytes >= (1u << 20) ? 2 : 8;
  constexpr int kBatches = 5;
  std::byte* s = raw(sb_);
  std::byte* r = raw(rb_);
  const std::size_t n = op.bytes / 8;
  const int peer = 2 - me;
  Timed bind, nat, stream;
  if (in_op) {
    bind = timed_calls(native_, [&] { run(op, 0, false); }, reps, kBatches);
    nat = timed_calls(
        native_,
        [&] {
          switch (op.kind) {
            case BulkOp::kBcast:
              native_.bcast(s, op.bytes, op.root);
              break;
            case BulkOp::kAllreduce:
              native_.allreduce(s, r, n, mm::BasicKind::kDouble,
                                mm::ReduceOp::kSum);
              break;
            case BulkOp::kPingpong:
              if (me == 0) {
                native_.send(s, op.bytes, peer, kTagPing);
                native_.recv(r, op.bytes, peer, kTagPing);
              } else {
                native_.recv(r, op.bytes, peer, kTagPing);
                native_.send(r, op.bytes, peer, kTagPing);
              }
              break;
          }
        },
        reps, kBatches);
    if (pair) {
      // A window of 8 messages and one acknowledgement.
      stream = timed_calls(
          native_,
          [&] {
            for (int i = 0; i < 8; ++i) {
              if (me == 0) native_.send(s, op.bytes, peer, kTagPing + 1);
              else native_.recv(r, op.bytes, peer, kTagPing + 1);
            }
            if (me == 0) native_.recv(r, 8, peer, kTagPing + 2);
            else native_.send(s, 8, peer, kTagPing + 2);
          },
          1, kBatches);
    }
  }
  if (me == 0) {
    const double half = pair ? 0.5 : 1.0;  // timed_calls saw round trips
    std::vector<PeelNode> nodes = {
        {std::string("op.") + kKindName[op.kind] +
             (op.arrays ? ".arrays" : ".buffer"),
         bind.host_ns * half, {1}},
        {"minimpi", nat.host_ns * half, {2}},
        {"support.clock", replay_clock(native_, reads_per_op).host_ns, {}}};
    std::vector<double> virt = {bind.virt_ns * half, nat.virt_ns * half, 0.0};
    if (op.arrays) {
      std::vector<mj::jdouble> tmp(n);
      const Timed stage =
          timed_calls(native_, stage_call(env_.pool(), sa_, n), reps, kBatches);
      const Timed copy = timed_calls(
          native_, jni_call(env_.jvm().jni(), sa_, tmp, n), reps, kBatches);
      nodes[0].children.push_back(3);
      nodes.push_back({"mpjbuf", stage.host_ns, {4}});
      nodes.push_back({"minijvm.jni", copy.host_ns, {}});
      virt.push_back(stage.virt_ns);
      virt.push_back(copy.virt_ns);
    }
    const std::vector<double> self = peel_self(nodes);
    const double binding_self =
        self[0] + (op.arrays ? self[3] + self[4] : 0.0);
    acc[op.arrays ? "mv2j.arrays.self_ns" : "mv2j.buffer.self_ns"].push_back(
        binding_self);
    if (op.kind == BulkOp::kBcast) acc["coll.bcast.call_ns"].push_back(nat.host_ns);
    if (op.kind == BulkOp::kAllreduce) {
      acc["coll.allreduce.call_ns.large"].push_back(nat.host_ns);
    }
    if (pair) {
      acc["minimpi.pingpong.half_rtt_ns"].push_back(nat.host_ns / 2);
      acc["minimpi.stream.msg_ns"].push_back(stream.host_ns / 8);
    }
    if (spans != nullptr) add_peel_spans(*spans, nodes, virt, op_id, now_ns());
  }
  native_.barrier();
}

jhpc::mv2j::RunOptions bulk_options() {
  return lib_options<jhpc::mv2j::RunOptions>(kRanks, kPpn, kHeapMib);
}

void absorb(Outcome& out, const Collect& c) {
  out.batch_rate.insert(out.batch_rate.end(), c.batch_rate.begin(),
                        c.batch_rate.end());
  out.virt_op_us.insert(out.virt_op_us.end(), c.virt_op_us.begin(),
                        c.virt_op_us.end());
  out.attempted += c.ops;
}

/// One fixed pass of ops [0, kFixedOps) in a fresh universe of the given
/// flavour.
Collect fixed_pass(std::uint64_t seed, Pass pass, Counters* counters,
                   std::atomic<std::int64_t>& failed) {
  const jhpc::mv2j::RunOptions opts = bulk_options();
  mm::Universe uni(pass_config(opts.universe_config(), pass));
  Collect c;
  double pool_requests = 0, pool_hits = 0;
  std::mutex mu;
  uni.run([&](mm::Comm& native) {
    bind_to_core(native.rank());
    BulkRank br(native, opts, failed);
    br.warm_up();
    br.ops(seed, 0, kFixedOps, 0, c);
    const auto ps = br.env().pool().stats();
    std::lock_guard<std::mutex> lk(mu);
    pool_requests += static_cast<double>(ps.requests);
    pool_hits += static_cast<double>(ps.pool_hits);
  });
  if (counters != nullptr) {
    counters->add_universe(uni);
    counters->pool_requests = pool_requests;
    counters->pool_hits = pool_hits;
  }
  return c;
}

}  // namespace

void run_bulk(const Args& a, Outcome& out, SpanLog* spans) {
  const jhpc::mv2j::RunOptions opts = bulk_options();
  std::atomic<std::int64_t> failed{0};
  Collect plain, traced;
  plain.op_us = &out.op_us;
  traced.spans = spans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    mm::Universe uni(opts.universe_config());
    uni.run([&](mm::Comm& native) {
      bind_to_core(native.rank());
      BulkRank br(native, opts, failed);
      br.warm_up();
      if (native.rank() == 0) {
        out.setup_s.push_back(rep == 0 ? since_start_s()
                                       : static_cast<double>(now_ns() - t0) * 1e-9);
      }
      if (rep + 1 < kSetupReps) return;
      // The timed phase runs on the last set-up's universe and payloads.
      // Only rank 0's deadline matters: it decides when every rank stops.
      br.ops(a.seed, 0, -1,
             now_ns() + static_cast<std::int64_t>(a.seconds * 1e9), plain,
             a.trace ? &traced : nullptr);
    });
  }
  absorb(out, plain);
  if (!a.trace) {
    out.failed = failed.load();
    return;
  }
  out.attempted += traced.ops;
  Metrics& m = out.layer;
  m["trace.overhead_ratio"] = {
      median(plain.batch_rate) / median(traced.batch_rate), "ratio",
      plain.batch_rate.size() + traced.batch_rate.size()};

  const ClockCounts c0 = clock_counts();
  const Collect ref = fixed_pass(a.seed, Pass::kTimed, nullptr, failed);
  const ClockCounts c1 = clock_counts();
  Counters counters;
  const Collect cnt = fixed_pass(a.seed, Pass::kCounting, &counters, failed);
  const Collect det = fixed_pass(a.seed, Pass::kDeterministic, nullptr, failed);
  out.attempted += ref.ops + cnt.ops + det.ops;
  counters.report(m);
  report_passes(m, c0, c1, counters.msgs_sent, ref.virt_ns, det.virt_ns,
                static_cast<double>(ref.ops));

  // Peel one sampled op of every (kind, payload) pair of the plan.
  const double reads_per_op =
      ref.ops > 0 ? static_cast<double>(c1.thread_cpu - c0.thread_cpu) /
                        static_cast<double>(ref.ops) / kRanks
                  : 0.0;
  std::vector<BulkOp> sampled;
  std::vector<std::size_t> sizes;
  for (std::int64_t i = 0; sampled.size() < 6 && i < 10000; ++i) {
    const BulkOp op = bulk_op(a.seed, i);
    bool seen = false;
    for (const BulkOp& s : sampled) {
      seen = seen || (s.kind == op.kind && s.arrays == op.arrays);
    }
    if (!seen) {
      sampled.push_back(op);
      if (op.arrays) sizes.push_back(op.bytes);
    }
  }
  PeelSamples acc;
  mm::Universe uni(opts.universe_config());
  uni.run([&](mm::Comm& native) {
    bind_to_core(native.rank());
    BulkRank br(native, opts, failed);
    native.barrier();
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      br.peel(sampled[k], reads_per_op, spans,
              1'000'000'000 + static_cast<std::int64_t>(k), acc);
    }
  });
  for (const auto& [name, v] : acc) m[name] = median_metric(v, "ns");
  probe_support(m);
  probe_jvm_and_pool(m, sizes);
  out.failed = failed.load();
}

}  // namespace perfbench
