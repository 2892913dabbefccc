// cg_app: time to solution. Four ranks on two virtual nodes (ppn 2) run
// the examples/cg_poisson pattern: conjugate gradient on the 1-D Poisson
// system, block-row partitioned, on a seeded manufactured solution. Each
// iteration does a halo iSend/iRecv on direct buffers, a waitAll, two
// 1-double allReduces on arrays and the local vector updates. An op is
// one CG iteration; every solve is verified at relative error < 1e-8.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <span>
#include <vector>

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
constexpr std::size_t kLocalN = 1000;  // rows per rank
constexpr int kBatch = 64;             // iterations per batch
constexpr std::size_t kHeapMib = 8;
constexpr int kHaloTag = 11;

struct Collect {
  Samples* op_us = nullptr;  ///< the outcome's store; null: not kept
  std::vector<double> batch_rate, virt_op_us;
  std::int64_t ops = 0, failed = 0;
  double virt_ns = 0.0;
  SpanLog* spans = nullptr;
};

class CgRank {
 public:
  CgRank(mm::Comm& native, const jhpc::mv2j::RunOptions& opts)
      : native_(native),
        env_(native, opts),
        me_(native.rank()),
        up_(me_ > 0 ? me_ - 1 : -1),
        down_(me_ + 1 < native.size() ? me_ + 1 : -1),
        send_up_(env_.newDirectBuffer(8)),
        send_down_(env_.newDirectBuffer(8)),
        recv_up_(env_.newDirectBuffer(8)),
        recv_down_(env_.newDirectBuffer(8)),
        dot_in_(env_.newArray<mj::jdouble>(1)),
        dot_out_(env_.newArray<mj::jdouble>(1)),
        x_(kLocalN), r_(kLocalN), p_(kLocalN), ap_(kLocalN), xt_(kLocalN),
        b_(kLocalN) {}

  jhpc::mv2j::Env& env() { return env_; }

  /// Solves [first, first+count), or with count < 0 solves until rank
  /// 0's deadline has passed. With `alt`, every other batch of iterations
  /// is recorded there instead (the traced half of a traced run).
  void solves(std::uint64_t seed, int first, int count, std::int64_t deadline,
              Collect& plain, Collect* alt = nullptr) {
    for (int s = first;; ++s) {
      int go = count >= 0 ? static_cast<int>(s < first + count) : 0;
      if (count < 0) {
        go = me_ == 0 && now_ns() < deadline ? 1 : 0;
        native_.bcast(&go, sizeof(go), 0);
      }
      if (go == 0) break;
      solve(cg_problem(seed, s), plain, alt);
    }
  }

  /// Set-up warm-up: the communication of kBatch iterations (one halo
  /// exchange and two dot products each) on this rank's buffers.
  void warm_up() {
    for (int i = 0; i < kBatch; ++i) {
      halo(0.0, 0.0);
      dot_sum(0.0);
      dot_sum(0.0);
    }
  }

  /// y = A v for the tridiagonal Laplacian, with the halo exchange.
  void matvec(const std::vector<double>& v, std::vector<double>& y) {
    halo(v.front(), v.back());
    const double gu = up_ >= 0 ? recv_up_.get_double(0) : 0.0;
    const double gd = down_ >= 0 ? recv_down_.get_double(0) : 0.0;
    for (std::size_t i = 0; i < kLocalN; ++i) {
      const double left = i > 0 ? v[i - 1] : gu;
      const double right = i + 1 < kLocalN ? v[i + 1] : gd;
      y[i] = 2.0 * v[i] - left - right;
    }
  }

  /// Exchange one boundary value with each neighbour via the bindings.
  void halo(double to_up, double to_down) {
    auto& w = env_.COMM_WORLD();
    std::vector<jhpc::mv2j::Request> reqs;
    reqs.reserve(4);
    if (up_ >= 0) {
      reqs.push_back(w.iRecv(recv_up_, 8, jhpc::mv2j::BYTE, up_, kHaloTag));
      send_up_.put_double(0, to_up);
      reqs.push_back(w.iSend(send_up_, 8, jhpc::mv2j::BYTE, up_, kHaloTag));
    }
    if (down_ >= 0) {
      reqs.push_back(w.iRecv(recv_down_, 8, jhpc::mv2j::BYTE, down_, kHaloTag));
      send_down_.put_double(0, to_down);
      reqs.push_back(w.iSend(send_down_, 8, jhpc::mv2j::BYTE, down_, kHaloTag));
    }
    jhpc::mv2j::Request::waitAll(reqs);
  }

  /// The same exchange through the native communicator.
  void native_halo() {
    mm::Request reqs[4];
    int n = 0;
    for (const int peer : {up_, down_}) {
      if (peer < 0) continue;
      std::byte* in = raw(peer == up_ ? recv_up_ : recv_down_);
      std::byte* out = raw(peer == up_ ? send_up_ : send_down_);
      reqs[n++] = native_.irecv(in, 8, peer, kHaloTag);
      reqs[n++] = native_.isend(out, 8, peer, kHaloTag);
    }
    mm::Request::wait_all(std::span<mm::Request>(reqs, static_cast<std::size_t>(n)));
  }

  double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double local = 0.0;
    for (std::size_t i = 0; i < kLocalN; ++i) local += a[i] * b[i];
    return dot_sum(local);
  }

  /// The global sum of one double: allReduce on 1-element arrays.
  double dot_sum(double local) {
    dot_in_[0] = local;
    env_.COMM_WORLD().allReduce(dot_in_, dot_out_, 1, jhpc::mv2j::DOUBLE,
                                jhpc::mv2j::SUM);
    return dot_out_[0];
  }

  /// Replay each boundary of an iteration and peel it (rank 0).
  void peel(double iteration_ns, double reads_per_msg, SpanLog* spans,
            PeelSamples& acc);

 private:
  void solve(const CgProblem& pb, Collect& plain, Collect* alt) {
    const double n = static_cast<double>(kLocalN) * native_.size();
    for (std::size_t i = 0; i < kLocalN; ++i) {
      const double g = static_cast<double>(static_cast<std::size_t>(me_) * kLocalN + i);
      xt_[i] = pb.amp * std::sin(pb.freq * g / n + pb.phase) + pb.shift;
    }
    matvec(xt_, b_);
    std::fill(x_.begin(), x_.end(), 0.0);
    r_ = b_;
    p_ = b_;
    double rr = dot(r_, r_);
    const double rr0 = rr;
    const int max_iters = 8 * static_cast<int>(n);
    int iters = 0, in_batch = 0;
    const std::int64_t vs = native_.vtime_ns();
    std::int64_t bt0 = now_ns(), bv0 = vs;
    while (rr > 1e-22 * rr0 && iters < max_iters) {
      Collect& c = alt != nullptr && batches_ % 2 == 1 ? *alt : plain;
      const std::int64_t sv0 = c.spans ? native_.vtime_ns() : 0;
      const std::int64_t t0 = now_ns();
      matvec(p_, ap_);
      const double alpha = rr / dot(p_, ap_);
      for (std::size_t i = 0; i < kLocalN; ++i) {
        x_[i] += alpha * p_[i];
        r_[i] -= alpha * ap_[i];
      }
      const double rr_new = dot(r_, r_);
      const double beta = rr_new / rr;
      for (std::size_t i = 0; i < kLocalN; ++i) p_[i] = r_[i] + beta * p_[i];
      rr = rr_new;
      ++iters;
      if (me_ == 0) {
        const std::int64_t t1 = now_ns();
        if (c.op_us != nullptr) c.op_us->add(static_cast<double>(t1 - t0) / 1e3);
        if (c.spans != nullptr) {
          c.spans->add({"iteration", plain.ops + iters, -1, t0, t1,
                        native_.vtime_ns() - sv0});
        }
        if (++in_batch == kBatch) {
          const std::int64_t v1 = native_.vtime_ns();
          c.batch_rate.push_back(kBatch / (static_cast<double>(now_ns() - bt0) * 1e-9));
          c.virt_op_us.push_back(static_cast<double>(v1 - bv0) / 1e3 / kBatch);
          in_batch = 0;
          ++batches_;
          bt0 = now_ns();
          bv0 = native_.vtime_ns();
        }
      }
    }
    if (me_ == 0) plain.virt_ns += static_cast<double>(native_.vtime_ns() - vs);

    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < kLocalN; ++i) {
      err += (x_[i] - xt_[i]) * (x_[i] - xt_[i]);
      norm += xt_[i] * xt_[i];
    }
    const double rel = std::sqrt(dot_sum(err) / dot_sum(norm));
    if (me_ == 0) {
      plain.ops += iters;
      if (!(rel < 1e-8)) plain.failed += iters;
    }
  }

  mm::Comm& native_;
  jhpc::mv2j::Env env_;
  int me_, up_, down_;
  mj::ByteBuffer send_up_, send_down_, recv_up_, recv_down_;
  mj::JArray<mj::jdouble> dot_in_, dot_out_;
  std::vector<double> x_, r_, p_, ap_, xt_, b_;
  int batches_ = 0;  // completed batches of iterations (rank 0)
};

void CgRank::peel(double iteration_ns, double reads_per_msg, SpanLog* spans,
                  PeelSamples& acc) {
  constexpr int kReps = 200, kBatches = 9;
  const Timed halo_b = timed_calls(native_, [&] { halo(1.0, 2.0); }, kReps, kBatches);
  const Timed halo_n = timed_calls(native_, [&] { native_halo(); }, kReps, kBatches);
  const Timed ar_b = timed_calls(native_, [&] { dot_sum(1.0); }, kReps, kBatches);
  double in = 1.0, out = 0.0;
  const Timed ar_n = timed_calls(
      native_,
      [&] {
        native_.allreduce(&in, &out, 1, mm::BasicKind::kDouble, mm::ReduceOp::kSum);
      },
      kReps, kBatches);
  // Rank 0 and rank 1 share a node: the halo pair's pingpong and stream.
  std::byte* s = raw(send_down_);
  std::byte* r = raw(recv_down_);
  Timed pp, stream;
  if (me_ < 2) {
    const int peer = 1 - me_;
    pp = timed_calls(
        native_,
        [&] {
          if (me_ == 0) {
            native_.send(s, 8, peer, kHaloTag + 1);
            native_.recv(r, 8, peer, kHaloTag + 1);
          } else {
            native_.recv(r, 8, peer, kHaloTag + 1);
            native_.send(s, 8, peer, kHaloTag + 1);
          }
        },
        kReps, kBatches);
    stream = timed_calls(
        native_,
        [&] {
          for (int i = 0; i < 64; ++i) {
            if (me_ == 0) native_.send(s, 8, peer, kHaloTag + 2);
            else native_.recv(r, 8, peer, kHaloTag + 2);
          }
          if (me_ == 0) native_.recv(r, 8, peer, kHaloTag + 3);
          else native_.send(s, 8, peer, kHaloTag + 3);
        },
        10, kBatches);
  }
  if (me_ == 0) {
    std::vector<double> tmp(1);
    const Timed stage = timed_calls(native_, stage_call(env_.pool(), dot_in_, 1),
                                    kReps, kBatches);
    const Timed copy = timed_calls(
        native_, jni_call(env_.jvm().jni(), dot_in_, tmp, 1), kReps, kBatches);
    // Rank 0's halo is one message each way; its recursive-doubling
    // allreduce on four ranks exchanges twice.
    const double clk = replay_clock(native_, reads_per_msg).host_ns;
    const std::vector<PeelNode> nodes = {
        {"op.iteration", iteration_ns, {1, 4}},
        {"mv2j.halo", halo_b.host_ns, {2}},
        {"minimpi.halo", halo_n.host_ns, {3}},
        {"support.clock", clk, {}},
        {"mv2j.allreduce.x2", 2 * ar_b.host_ns, {5, 7}},
        {"minimpi.allreduce.x2", 2 * ar_n.host_ns, {6}},
        {"support.clock", 2 * 2 * clk, {}},
        {"mpjbuf.x2", 2 * stage.host_ns, {8}},
        {"minijvm.jni.x2", 2 * copy.host_ns, {}}};
    const std::vector<double> virt = {0.0,
                                      halo_b.virt_ns,
                                      halo_n.virt_ns,
                                      0.0,
                                      2 * ar_b.virt_ns,
                                      2 * ar_n.virt_ns,
                                      0.0,
                                      2 * stage.virt_ns,
                                      2 * copy.virt_ns};
    const std::vector<double> self = peel_self(nodes);
    acc["mv2j.buffer.self_ns"].push_back(self[1]);
    acc["mv2j.arrays.self_ns"].push_back((self[4] + self[7] + self[8]) / 2);
    acc["coll.allreduce.call_ns.small"].push_back(ar_n.host_ns);
    acc["minimpi.pingpong.half_rtt_ns"].push_back(pp.host_ns / 2);
    acc["minimpi.stream.msg_ns"].push_back(stream.host_ns / 64);
    if (spans != nullptr) add_peel_spans(*spans, nodes, virt, 1'000'000'000, now_ns());
  }
  native_.barrier();
}

jhpc::mv2j::RunOptions cg_options() {
  return lib_options<jhpc::mv2j::RunOptions>(kRanks, kPpn, kHeapMib);
}

void absorb(Outcome& out, const Collect& c) {
  out.batch_rate.insert(out.batch_rate.end(), c.batch_rate.begin(),
                        c.batch_rate.end());
  out.virt_op_us.insert(out.virt_op_us.end(), c.virt_op_us.begin(),
                        c.virt_op_us.end());
  out.attempted += c.ops;
  out.failed += c.failed;
}

/// One solve of problem 0 in a fresh universe of the given flavour.
Collect fixed_pass(std::uint64_t seed, Pass pass, Counters* counters) {
  const jhpc::mv2j::RunOptions opts = cg_options();
  mm::Universe uni(pass_config(opts.universe_config(), pass));
  Collect c;
  std::mutex mu;
  double pool_requests = 0, pool_hits = 0;
  uni.run([&](mm::Comm& native) {
    bind_to_core(native.rank());
    CgRank cg(native, opts);
    cg.warm_up();
    cg.solves(seed, 0, 1, 0, c);
    const auto ps = cg.env().pool().stats();
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

void run_cg_app(const Args& a, Outcome& out, SpanLog* spans) {
  const jhpc::mv2j::RunOptions opts = cg_options();
  Collect plain, traced;
  plain.op_us = &out.op_us;
  traced.spans = spans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    mm::Universe uni(opts.universe_config());
    uni.run([&](mm::Comm& native) {
      bind_to_core(native.rank());
      CgRank cg(native, opts);
      cg.warm_up();
      if (native.rank() == 0) {
        out.setup_s.push_back(rep == 0 ? since_start_s()
                                       : static_cast<double>(now_ns() - t0) * 1e-9);
      }
      if (rep + 1 < kSetupReps) return;
      // Only rank 0's deadline matters: it decides when every rank stops.
      cg.solves(a.seed, 0, -1,
                now_ns() + static_cast<std::int64_t>(a.seconds * 1e9), plain,
                a.trace ? &traced : nullptr);
    });
  }
  absorb(out, plain);
  if (!a.trace) return;
  Metrics& m = out.layer;
  m["trace.overhead_ratio"] = {
      median(plain.batch_rate) / median(traced.batch_rate), "ratio",
      plain.batch_rate.size() + traced.batch_rate.size()};

  const ClockCounts c0 = clock_counts();
  const Collect ref = fixed_pass(a.seed, Pass::kTimed, nullptr);
  const ClockCounts c1 = clock_counts();
  Counters counters;
  const Collect cnt = fixed_pass(a.seed, Pass::kCounting, &counters);
  const Collect det = fixed_pass(a.seed, Pass::kDeterministic, nullptr);
  for (const Collect* c : {&ref, &cnt, &det}) {
    out.attempted += c->ops;
    out.failed += c->failed;
  }
  counters.report(m);
  report_passes(m, c0, c1, counters.msgs_sent, ref.virt_ns, det.virt_ns,
                static_cast<double>(ref.ops));

  const double iteration_ns = out.op_us.percentile(50.0) * 1e3;
  const double reads_per_msg = m["support.clock.cpu_reads_per_msg"].value;
  PeelSamples acc;
  mm::Universe uni(opts.universe_config());
  uni.run([&](mm::Comm& native) {
    bind_to_core(native.rank());
    CgRank cg(native, opts);
    native.barrier();
    cg.peel(iteration_ns, reads_per_msg, spans, acc);
  });
  for (const auto& [name, v] : acc) m[name] = median_metric(v, "ns");
  probe_support(m);
  probe_jvm_and_pool(m, {8});
}

}  // namespace perfbench
