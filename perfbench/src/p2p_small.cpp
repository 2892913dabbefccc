// p2p_small: the per-message stack. Two ranks on one virtual node. Each
// pass runs one segment of seeded rounds per Fig 5 series (mv2j and ompij,
// each with ByteBuffer and array payloads), in a seeded rotation. A round
// is one pingpong plus one 64-message acknowledged window, 8 B to 4 KiB,
// all eager. An op is one message; op latencies are pingpong half round
// trips.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "plans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace mj = jhpc::minijvm;
namespace mm = jhpc::minimpi;
using jhpc::now_ns;

constexpr int kRounds = 100;  // rounds per segment
constexpr int kWindow = 64;
constexpr int kMsgsPerRound = 2 + kWindow + 1;
constexpr int kTagPing = 1, kTagWin = 2, kTagAck = 3;
constexpr std::size_t kHeapMib = 8;
constexpr int kPeelSizes = 4;  // sampled sizes per series in the peel
// Warm-up rounds of every set-up: fixed, so set-up cost is seed-free.
const std::vector<std::size_t> kWarmSizes = {8, 64, 512, 4096, 8, 64, 512, 4096};

bool is_ompij(Series s) {
  return s == Series::kOmpijBuffer || s == Series::kOmpijArrays;
}
bool is_arrays(Series s) {
  return s == Series::kMv2jArrays || s == Series::kOmpijArrays;
}

/// What the segments of one pass leave behind. Rank 0 writes everything
/// except the shared failure count and the pool counters.
struct PassStats {
  std::vector<double> half_rtt_us;
  std::int64_t host_ns = 0, virt_ns = 0, msgs = 0;
  std::atomic<std::int64_t> failed{0};
  SpanLog* spans = nullptr;
  std::int64_t op_base = 0;
  std::mutex mu;
  double pool_requests = 0, pool_hits = 0;
};

template <class CommT, class Buf>
void rounds(const CommT& w, const mm::Comm& native, Buf& sbuf, Buf& rbuf,
            Buf& ack, const std::vector<std::size_t>& sizes,
            std::uint64_t key0, PassStats& st) {
  const auto& BYTE = jhpc::mv2j::BYTE;
  const bool r0 = w.getRank() == 0;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const std::size_t b = sizes[r];
    const int n = static_cast<int>(b);
    const std::uint64_t key = key0 + r * (kWindow + 2);
    if (r0) {
      fill_pattern(raw(sbuf), b, key);
      const std::int64_t v0 = st.spans ? native.vtime_ns() : 0;
      const std::int64_t t0 = now_ns();
      w.send(sbuf, n, BYTE, 1, kTagPing);
      w.recv(rbuf, n, BYTE, 1, kTagPing);
      const std::int64_t t1 = now_ns();
      const std::int64_t v1 = st.spans ? native.vtime_ns() : 0;
      st.half_rtt_us.push_back(static_cast<double>(t1 - t0) / 2e3);
      if (!check_pattern(raw(rbuf), b, key)) ++st.failed;
      for (int i = 0; i < kWindow; ++i) {
        fill_pattern(raw(sbuf), b, key + 1 + static_cast<std::uint64_t>(i));
        w.send(sbuf, n, BYTE, 1, kTagWin);
      }
      w.recv(ack, 8, BYTE, 1, kTagAck);
      if (!check_pattern(raw(ack), 8, key + kWindow + 1)) ++st.failed;
      if (st.spans != nullptr) {
        const auto op = st.op_base + static_cast<std::int64_t>(r);
        const int root = st.spans->add({"round", op, -1, t0, now_ns(), 0});
        st.spans->add({"pingpong", op, root, t0, t1, v1 - v0});
        st.spans->add({"window", op, root, t1, now_ns(),
                       native.vtime_ns() - v1});
      }
    } else {
      w.recv(rbuf, n, BYTE, 0, kTagPing);
      w.send(rbuf, n, BYTE, 0, kTagPing);
      if (!check_pattern(raw(rbuf), b, key)) ++st.failed;
      for (int i = 0; i < kWindow; ++i) {
        w.recv(rbuf, n, BYTE, 0, kTagWin);
        if (!check_pattern(raw(rbuf), b, key + 1 + static_cast<std::uint64_t>(i))) {
          ++st.failed;
        }
      }
      fill_pattern(raw(ack), 8, key + kWindow + 1);
      w.send(ack, 8, BYTE, 0, kTagAck);
    }
  }
}

/// Allocate the series' three payloads (send, receive, ack) and call
/// `body(sbuf, rbuf, ack)`.
template <class EnvT, class Body>
void with_payloads(EnvT& env, Series s, Body&& body) {
  if (is_arrays(s)) {
    auto a = env.template newArray<mj::jbyte>(kP2pMaxBytes);
    auto b = env.template newArray<mj::jbyte>(kP2pMaxBytes);
    auto c = env.template newArray<mj::jbyte>(8);
    body(a, b, c);
  } else {
    auto a = env.newDirectBuffer(kP2pMaxBytes);
    auto b = env.newDirectBuffer(kP2pMaxBytes);
    auto c = env.newDirectBuffer(8);
    body(a, b, c);
  }
}

/// Replay sampled rounds of series `s` at each lower boundary (see
/// BENCHMARK.md, "Layer peeling").
template <class EnvT>
void peel_rank(EnvT& env, mm::Comm& native, Series s,
               const std::vector<std::size_t>& sizes, double reads_per_msg,
               SpanLog* spans, std::int64_t op0, PeelSamples& acc) {
  const auto& BYTE = jhpc::mv2j::BYTE;
  auto& w = env.COMM_WORLD();
  const bool r0 = native.rank() == 0;
  const int peer = 1 - native.rank();
  std::vector<std::byte> ns(kP2pMaxBytes), nr(kP2pMaxBytes), nack(8);
  constexpr int kReps = 100, kBatches = 9;
  with_payloads(env, s, [&](auto& sbuf, auto& rbuf, auto&) {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const std::size_t b = sizes[k];
      const int n = static_cast<int>(b);
      const Timed bind = timed_calls(
          native,
          [&] {
            if (r0) {
              w.send(sbuf, n, BYTE, peer, 9);
              w.recv(rbuf, n, BYTE, peer, 9);
            } else {
              w.recv(rbuf, n, BYTE, peer, 9);
              w.send(rbuf, n, BYTE, peer, 9);
            }
          },
          kReps, kBatches);
      const Timed nat = timed_calls(
          native,
          [&] {
            if (r0) {
              native.send(ns.data(), b, peer, 9);
              native.recv(nr.data(), b, peer, 9);
            } else {
              native.recv(nr.data(), b, peer, 9);
              native.send(nr.data(), b, peer, 9);
            }
          },
          kReps, kBatches);
      const Timed stream = timed_calls(
          native,
          [&] {
            if (r0) {
              for (int i = 0; i < kWindow; ++i) native.send(ns.data(), b, peer, 10);
              native.recv(nack.data(), 8, peer, 11);
            } else {
              for (int i = 0; i < kWindow; ++i) native.recv(nr.data(), b, peer, 10);
              native.send(nack.data(), 8, peer, 11);
            }
          },
          10, kBatches);
      if (r0) {
        std::vector<PeelNode> nodes = {
            {std::string("op.") + kSeriesName[static_cast<int>(s)],
             bind.host_ns / 2, {1}},
            {"minimpi", nat.host_ns / 2, {2}},
            {"support.clock", replay_clock(native, reads_per_msg).host_ns, {}}};
        std::vector<double> virt = {bind.virt_ns / 2, nat.virt_ns / 2, 0.0};
        if (is_arrays(s)) {
          auto arr = env.jvm().template new_array<mj::jbyte>(b);
          auto& jni = env.jvm().jni();
          Timed stage;
          const char* stage_name = "mpjbuf";
          if constexpr (requires { env.pool(); }) {
            stage = timed_calls(native, stage_call(env.pool(), arr, b), kReps,
                                kBatches);
          } else {
            // ompij stages through a fresh native buffer on each end.
            stage_name = "ompij.staging";
            stage = timed_calls(
                native,
                [&] {
                  auto out = std::make_unique<mj::jbyte[]>(b);
                  jni.get_array_region(arr, 0, b, out.get());
                  auto in = std::make_unique<mj::jbyte[]>(b);
                  jni.set_array_region(arr, 0, b, in.get());
                },
                kReps, kBatches);
          }
          std::vector<mj::jbyte> tmp(b);
          const Timed copy =
              timed_calls(native, jni_call(jni, arr, tmp, b), kReps, kBatches);
          nodes[0].children.push_back(3);
          nodes.push_back({stage_name, stage.host_ns, {4}});
          nodes.push_back({"minijvm.jni", copy.host_ns, {}});
          virt.push_back(stage.virt_ns);
          virt.push_back(copy.virt_ns);
        }
        const std::vector<double> self = peel_self(nodes);
        double binding_self = self[0];
        if (is_arrays(s)) binding_self += self[3] + self[4];
        acc[std::string(kSeriesName[static_cast<int>(s)]) + ".self_ns"]
            .push_back(binding_self);
        acc["minimpi.pingpong.half_rtt_ns"].push_back(nat.host_ns / 2);
        acc["minimpi.stream.msg_ns"].push_back(stream.host_ns / kWindow);
        if (spans != nullptr) {
          add_peel_spans(*spans, nodes, virt,
                         op0 + static_cast<std::int64_t>(k), now_ns());
        }
      }
      native.barrier();
    }
  });
}

/// The two job universes of one pass flavour: mv2j on the mv2 suite and
/// ompij on the basic suite, as the bindings configure them.
class Fleet {
 public:
  explicit Fleet(Pass p)
      : mv2_(pass_config(mo_.universe_config(), p)),
        ompi_(pass_config(oo_.universe_config(), p)) {}

  /// Set-up: build every rank's Env and payloads and run a fixed warm-up
  /// segment per series, so slabs and pools are warm for the first op.
  void ready(PassStats& st) {
    for (const Series s : p2p_series_order(0, 0)) {
      segment(s, kWarmSizes, mix(0, 99, static_cast<std::uint64_t>(s)), st);
    }
  }

  /// One pass of the plan: the four series in seeded rotation.
  void pass(std::uint64_t seed, int pass, PassStats& st, Counters* counters) {
    for (const Series s : p2p_series_order(seed, pass)) {
      segment(s, p2p_sizes(seed, pass, s, kRounds),
              mix(seed, 100 + static_cast<std::uint64_t>(pass),
                  static_cast<std::uint64_t>(s)),
              st);
      if (counters != nullptr) counters->add_universe(universe(s));
    }
  }

  void peel(std::uint64_t seed, double reads_per_msg, SpanLog* spans,
            PeelSamples& acc) {
    std::int64_t op0 = 1'000'000'000;
    for (const Series s : p2p_series_order(seed, 0)) {
      auto sizes = p2p_sizes(seed, 0, s, kRounds);
      std::sort(sizes.begin(), sizes.end());
      std::vector<std::size_t> picked;
      for (int k = 0; k < kPeelSizes; ++k) {
        picked.push_back(sizes[static_cast<std::size_t>(
            (2 * k + 1) * kRounds / (2 * kPeelSizes))]);
      }
      on(s, [&](auto& env, mm::Comm& native) {
        peel_rank(env, native, s, picked, reads_per_msg, spans, op0, acc);
      });
      op0 += kPeelSizes;
    }
  }

 private:
  mm::Universe& universe(Series s) { return is_ompij(s) ? ompi_ : mv2_; }

  /// One Universe run of series `s`: Envs, payloads, then the rounds.
  void segment(Series s, const std::vector<std::size_t>& sizes,
               std::uint64_t key0, PassStats& st) {
    on(s, [&](auto& env, mm::Comm& native) {
      with_payloads(env, s, [&](auto& sbuf, auto& rbuf, auto& ack) {
        native.barrier();
        const std::int64_t t0 = now_ns();
        const std::int64_t v0 = native.vtime_ns();
        rounds(env.COMM_WORLD(), native, sbuf, rbuf, ack, sizes, key0, st);
        if (native.rank() == 0) {
          st.host_ns += now_ns() - t0;
          st.virt_ns += native.vtime_ns() - v0;
          st.msgs += static_cast<std::int64_t>(sizes.size()) * kMsgsPerRound;
          st.op_base += static_cast<std::int64_t>(sizes.size());
        }
      });
      if constexpr (requires { env.pool(); }) {
        const auto ps = env.pool().stats();
        std::lock_guard<std::mutex> lk(st.mu);
        st.pool_requests += static_cast<double>(ps.requests);
        st.pool_hits += static_cast<double>(ps.pool_hits);
      }
    });
  }

  /// Run `body(env, native)` on both ranks of the series' universe.
  template <class Body>
  void on(Series s, Body&& body) {
    if (is_ompij(s)) {
      ompi_.run([&](mm::Comm& native) {
        bind_to_core(native.rank());
        jhpc::ompij::Env env(native, oo_);
        body(env, native);
      });
    } else {
      mv2_.run([&](mm::Comm& native) {
        bind_to_core(native.rank());
        jhpc::mv2j::Env env(native, mo_);
        body(env, native);
      });
    }
  }

  jhpc::mv2j::RunOptions mo_ =
      lib_options<jhpc::mv2j::RunOptions>(2, 0, kHeapMib);
  jhpc::ompij::RunOptions oo_ =
      lib_options<jhpc::ompij::RunOptions>(2, 0, kHeapMib);
  mm::Universe mv2_;
  mm::Universe ompi_;
};

void account(Outcome& out, PassStats& st) {
  out.attempted += st.msgs;
  out.failed += st.failed.load();
}

/// Passes of the plan until `seconds` have elapsed; one batch per pass.
/// With `traced`, every other pass goes there and records spans, so the
/// two halves see the same drift and warm-up.
void timed_phase(Fleet& f, const Args& a, Outcome& plain, Outcome* traced,
                 SpanLog* spans) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  std::int64_t op_base = 0;
  for (int pass = 0; now_ns() < deadline; ++pass) {
    const bool trace = traced != nullptr && pass % 2 == 1;
    Outcome& out = trace ? *traced : plain;
    PassStats st;
    st.spans = trace ? spans : nullptr;
    st.op_base = op_base;
    f.pass(a.seed, pass, st, nullptr);
    op_base = st.op_base;
    out.batch_rate.push_back(static_cast<double>(st.msgs) /
                             (static_cast<double>(st.host_ns) * 1e-9));
    out.virt_op_us.push_back(static_cast<double>(st.virt_ns) / 1e3 /
                             static_cast<double>(st.msgs));
    for (const double v : st.half_rtt_us) out.op_us.add(v);
    account(out, st);
  }
}

}  // namespace

void run_p2p_small(const Args& a, Outcome& out, SpanLog* spans) {
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    fleet.reset();
    fleet = std::make_unique<Fleet>(Pass::kTimed);
    PassStats warm;
    fleet->ready(warm);
    out.setup_s.push_back(rep == 0 ? since_start_s()
                                   : static_cast<double>(now_ns() - t0) * 1e-9);
    account(out, warm);
  }
  if (!a.trace) {
    timed_phase(*fleet, a, out, nullptr, nullptr);
    return;
  }

  Outcome traced;
  timed_phase(*fleet, a, out, &traced, spans);
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  Metrics& m = out.layer;
  m["trace.overhead_ratio"] = {
      median(out.batch_rate) / median(traced.batch_rate), "ratio",
      out.batch_rate.size() + traced.batch_rate.size()};

  // Three fixed passes over plan pass 0: real clock with clock reads
  // counted, pvars on, and the deterministic clock.
  PassStats ref, cnt, det;
  const ClockCounts c0 = clock_counts();
  fleet->pass(a.seed, 0, ref, nullptr);
  const ClockCounts c1 = clock_counts();
  Counters counters;
  Fleet(Pass::kCounting).pass(a.seed, 0, cnt, &counters);
  Fleet(Pass::kDeterministic).pass(a.seed, 0, det, nullptr);
  for (PassStats* st : {&ref, &cnt, &det}) account(out, *st);
  counters.pool_requests = cnt.pool_requests;
  counters.pool_hits = cnt.pool_hits;
  counters.report(m);
  report_passes(m, c0, c1, static_cast<double>(ref.msgs),
                static_cast<double>(ref.virt_ns),
                static_cast<double>(det.virt_ns),
                static_cast<double>(ref.msgs));

  PeelSamples acc;
  fleet->peel(a.seed, m["support.clock.cpu_reads_per_msg"].value, spans, acc);
  for (const auto& [name, v] : acc) m[name] = median_metric(v, "ns");

  probe_support(m);
  std::vector<std::size_t> sizes;
  for (std::size_t b = kP2pMinBytes; b <= kP2pMaxBytes; b *= 8) sizes.push_back(b);
  probe_jvm_and_pool(m, sizes);
}

}  // namespace perfbench
