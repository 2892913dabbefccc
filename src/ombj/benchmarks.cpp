// OMB-J benchmark bodies (see benchmarks.hpp), written once for every
// environment: the two binding Envs and NativeEnv (native_env.hpp).
#include "jhpc/ombj/benchmarks.hpp"

#include <algorithm>
#include <string>
#include <type_traits>

#include "jhpc/mv2j/win.hpp"
#include "jhpc/ombj/native_env.hpp"
#include "jhpc/support/error.hpp"
#include "jhpc/support/sizes.hpp"
#include "jhpc/support/stats.hpp"

namespace jhpc::ombj {

using minijvm::jbyte;
using minijvm::jfloat;
using mv2j::BYTE;
using mv2j::FLOAT;
using mv2j::SUM;

namespace {

constexpr int kPingTag = 1;
constexpr int kPongTag = 2;
constexpr int kAckTag = 3;

/// Environments with the binding surface the native adapter leaves out:
/// reduce_scatter, scan, the vectored collectives (element counts and
/// displacements) and one-sided windows.
template <typename EnvT>
concept BindingEnv = requires(EnvT& env) { env.jvm(); };

/// Sizes for a byte-payload sweep.
std::vector<std::size_t> byte_sizes(const BenchOptions& opt) {
  return size_sweep(opt.min_size == 0 ? 1 : opt.min_size, opt.max_size);
}

/// Sizes for a float-payload sweep (reductions): multiples of 4 only.
std::vector<std::size_t> float_sizes(const BenchOptions& opt) {
  return size_sweep(opt.min_size < 4 ? 4 : opt.min_size, opt.max_size);
}

int bytes_of(std::size_t size) { return static_cast<int>(size); }
int floats_of(std::size_t size) {
  return static_cast<int>(size / sizeof(jfloat));
}

/// The one allocation step: runs `body(alloc)`, where `alloc(n)` returns
/// room for `n` elements of T through the API the options select — a
/// direct ByteBuffer, or a Java array (plain vectors on NativeEnv).
template <typename T, typename EnvT, typename Body>
std::vector<ResultRow> with_payloads(EnvT& env, const BenchOptions& opt,
                                     Body&& body) {
  if (opt.api == Api::kBuffer) {
    return body(
        [&env](std::size_t n) { return env.newDirectBuffer(n * sizeof(T)); });
  }
  return body(
      [&env](std::size_t n) { return env.template newArray<T>(n); });
}

void require_buffer_api(const BenchOptions& opt, const char* why) {
  if (opt.api != Api::kBuffer) throw UnsupportedOperationError(why);
}

// Deterministic per-iteration payload byte.
jbyte expected_byte(std::size_t j, int iteration) {
  return static_cast<jbyte>((j + static_cast<std::size_t>(iteration)) & 0x7f);
}

// Populate/verify helpers for the validation mode (Figure 18): element-
// wise access through each payload's natural accessor — the very thing
// the experiment measures.
jbyte byte_at(const minijvm::ByteBuffer& b, std::size_t j) { return b.get(j); }
void set_byte(minijvm::ByteBuffer& b, std::size_t j, jbyte v) { b.put(j, v); }
template <typename Array>
jbyte byte_at(const Array& a, std::size_t j) {
  return static_cast<jbyte>(a[j]);
}
template <typename Array>
void set_byte(Array& a, std::size_t j, jbyte v) {
  a[j] = static_cast<std::decay_t<decltype(a[j])>>(v);
}
template <typename Payload>
void fill(Payload& p, std::size_t n, int iteration) {
  for (std::size_t j = 0; j < n; ++j) set_byte(p, j, expected_byte(j, iteration));
}
template <typename Payload>
void verify(const Payload& p, std::size_t n, int iteration) {
  for (std::size_t j = 0; j < n; ++j) {
    if (byte_at(p, j) != expected_byte(j, iteration))
      throw jhpc::Error("validation failed at byte " + std::to_string(j));
  }
}

/// Average a per-rank value across the communicator (untimed; OMB uses
/// MPI_Reduce for exactly this).
template <typename EnvT>
double rank_average(EnvT& env, double local) {
  double sum = 0.0;
  env.COMM_WORLD().native().allreduce(&local, &sum, 1,
                                      minimpi::BasicKind::kDouble,
                                      minimpi::ReduceOp::kSum);
  return sum / env.COMM_WORLD().getSize();
}

/// One window of nonblocking traffic: `n` calls of each of `posts`, in
/// order, then a wait on every request in posting order.
template <typename... PostFns>
void window(int n, PostFns&&... posts) {
  std::vector<std::common_type_t<std::invoke_result_t<PostFns&>...>> reqs;
  reqs.reserve(static_cast<std::size_t>(n) * sizeof...(posts));
  const auto post_n = [&](auto& post) {
    for (int w = 0; w < n; ++w) reqs.push_back(post());
  };
  (post_n(posts), ...);
  for (auto& r : reqs) r.waitFor();
}

/// Ping-pong latency (osu_latency) over any (sendable, recvable) pair of
/// payload handles.
template <typename EnvT, typename Payload>
std::vector<ResultRow> latency_loop(EnvT& env, const BenchOptions& opt,
                                    Payload& sbuf, Payload& rbuf) {
  auto& world = env.COMM_WORLD();
  const int rank = world.getRank();
  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    if (rank == 0) {
      std::int64_t t0 = 0;
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t0 = world.native().vtime_ns();
        if (opt.validate) fill(sbuf, size, i);
        world.send(sbuf, count, BYTE, 1, kPingTag);
        world.recv(rbuf, count, BYTE, 1, kPongTag);
        if (opt.validate) verify(rbuf, size, i);
      }
      const auto elapsed = world.native().vtime_ns() - t0;
      rows.push_back(
          {size, static_cast<double>(elapsed) / (2.0 * iters * 1000.0)});
    } else if (rank == 1) {
      for (int i = 0; i < warmup + iters; ++i) {
        world.recv(rbuf, count, BYTE, 0, kPingTag);
        if (opt.validate) {
          verify(rbuf, size, i);
          fill(sbuf, size, i);
        }
        world.send(sbuf, count, BYTE, 0, kPongTag);
      }
    }
    world.barrier();
  }
  return rows;
}

/// Windowed unidirectional bandwidth (osu_bw).
template <typename EnvT, typename Payload>
std::vector<ResultRow> bandwidth_loop(EnvT& env, const BenchOptions& opt,
                                      Payload& sbuf, Payload& rbuf,
                                      Payload& ack) {
  auto& world = env.COMM_WORLD();
  const int rank = world.getRank();
  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    if (rank == 0) {
      std::int64_t t0 = 0;
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t0 = world.native().vtime_ns();
        window(opt.window,
               [&] { return world.iSend(sbuf, count, BYTE, 1, kPingTag); });
        world.recv(ack, 1, BYTE, 1, kAckTag);
      }
      const auto elapsed = world.native().vtime_ns() - t0;
      const auto total_bytes = static_cast<std::int64_t>(size) *
                               opt.window * iters;
      rows.push_back({size, bandwidth_mbps(total_bytes, elapsed)});
    } else if (rank == 1) {
      for (int i = 0; i < warmup + iters; ++i) {
        window(opt.window,
               [&] { return world.iRecv(rbuf, count, BYTE, 0, kPingTag); });
        world.send(ack, 1, BYTE, 0, kAckTag);
      }
    }
    world.barrier();
  }
  return rows;
}

/// Bidirectional bandwidth (osu_bibw): both ranks stream simultaneously.
template <typename EnvT, typename Payload>
std::vector<ResultRow> bibandwidth_loop(EnvT& env, const BenchOptions& opt,
                                        Payload& sbuf, Payload& rbuf,
                                        Payload& ack) {
  auto& world = env.COMM_WORLD();
  const int rank = world.getRank();
  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    if (rank > 1) {
      for (int b = 0; b < 2; ++b) world.barrier();
      continue;
    }
    const int peer = 1 - rank;
    std::int64_t t0 = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = world.native().vtime_ns();
      window(
          opt.window,
          [&] { return world.iRecv(rbuf, count, BYTE, peer, kPingTag); },
          [&] { return world.iSend(sbuf, count, BYTE, peer, kPingTag); });
      // Handshake so windows stay aligned.
      if (rank == 0) {
        world.recv(ack, 1, BYTE, 1, kAckTag);
      } else {
        world.send(ack, 1, BYTE, 0, kAckTag);
      }
    }
    if (rank == 0) {
      const auto elapsed = world.native().vtime_ns() - t0;
      const auto total_bytes =
          2 * static_cast<std::int64_t>(size) * opt.window * iters;
      rows.push_back({size, bandwidth_mbps(total_bytes, elapsed)});
    }
    world.barrier();
    world.barrier();  // mirror the idle ranks' extra barrier
  }
  return rows;
}

/// osu_mbw_mr body: the first half of the ranks stream windows at their
/// partner in the second half; aggregate bandwidth is total bytes over
/// the slowest pair's (virtual) elapsed time.
template <typename EnvT, typename Payload>
std::vector<ResultRow> multi_bandwidth_loop(EnvT& env,
                                            const BenchOptions& opt,
                                            Payload& sbuf, Payload& rbuf,
                                            Payload& ack) {
  auto& world = env.COMM_WORLD();
  const int rank = world.getRank();
  const int pairs = world.getSize() / 2;
  JHPC_REQUIRE(pairs >= 1, "osu_mbw_mr needs at least 2 ranks");
  const bool is_sender = rank < pairs;
  const int peer = is_sender ? rank + pairs : rank - pairs;
  const bool active = rank < 2 * pairs;

  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    std::int64_t t0 = 0;
    if (active) {
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t0 = world.native().vtime_ns();
        if (is_sender) {
          window(opt.window, [&] {
            return world.iSend(sbuf, count, BYTE, peer, kPingTag);
          });
          world.recv(ack, 1, BYTE, peer, kAckTag);
        } else {
          window(opt.window, [&] {
            return world.iRecv(rbuf, count, BYTE, peer, kPingTag);
          });
          world.send(ack, 1, BYTE, peer, kAckTag);
        }
      }
    }
    // Slowest pair limits the aggregate (max over the senders' elapsed).
    double local_elapsed =
        is_sender && active
            ? static_cast<double>(world.native().vtime_ns() - t0)
            : 0.0;
    double max_elapsed = 0.0;
    world.native().allreduce(&local_elapsed, &max_elapsed, 1,
                             minimpi::BasicKind::kDouble,
                             minimpi::ReduceOp::kMax);
    if (rank == 0) {
      const auto total_bytes = static_cast<std::int64_t>(size) *
                               opt.window * iters * pairs;
      rows.push_back({size, bandwidth_mbps(total_bytes,
                                           static_cast<std::int64_t>(
                                               max_elapsed))});
    }
    world.barrier();
  }
  return rows;
}

/// osu_multi_lat body: every pair (r, r+pairs) ping-pongs simultaneously;
/// the reported latency is the average over pairs.
template <typename EnvT, typename Payload>
std::vector<ResultRow> multi_latency_loop(EnvT& env, const BenchOptions& opt,
                                          Payload& sbuf, Payload& rbuf) {
  auto& world = env.COMM_WORLD();
  const int rank = world.getRank();
  const int pairs = world.getSize() / 2;
  JHPC_REQUIRE(pairs >= 1, "osu_multi_lat needs at least 2 ranks");
  const bool is_initiator = rank < pairs;
  const int peer = is_initiator ? rank + pairs : rank - pairs;
  const bool active = rank < 2 * pairs;

  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    std::int64_t t0 = 0;
    if (active) {
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t0 = world.native().vtime_ns();
        if (is_initiator) {
          world.send(sbuf, count, BYTE, peer, kPingTag);
          world.recv(rbuf, count, BYTE, peer, kPongTag);
        } else {
          world.recv(rbuf, count, BYTE, peer, kPingTag);
          world.send(sbuf, count, BYTE, peer, kPongTag);
        }
      }
    }
    double local_us =
        is_initiator && active
            ? static_cast<double>(world.native().vtime_ns() - t0) /
                  (2.0 * iters * 1000.0)
            : 0.0;
    double sum_us = 0.0;
    world.native().allreduce(&local_us, &sum_us, 1,
                             minimpi::BasicKind::kDouble,
                             minimpi::ReduceOp::kSum);
    if (rank == 0) rows.push_back({size, sum_us / pairs});
    world.barrier();
  }
  return rows;
}

/// Collective latency loop: `op(size)` runs the collective once; the
/// per-rank averages are averaged over ranks, as OMB does.
template <typename EnvT, typename OpFn>
std::vector<ResultRow> collective_loop(EnvT& env, const BenchOptions& opt,
                                       const std::vector<std::size_t>& sizes,
                                       OpFn&& op) {
  auto& world = env.COMM_WORLD();
  std::vector<ResultRow> rows;
  for (const std::size_t size : sizes) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    double local_ns = 0.0;
    for (int i = 0; i < warmup + iters; ++i) {
      world.barrier();
      const auto t0 = world.native().vtime_ns();
      op(size);
      const auto dt = world.native().vtime_ns() - t0;
      if (i >= warmup) local_ns += static_cast<double>(dt);
    }
    const double avg_us = rank_average(env, local_ns / iters / 1000.0);
    if (world.getRank() == 0) rows.push_back({size, avg_us});
  }
  return rows;
}

/// osu_barrier: one row (size 0, average barrier latency in us).
template <typename EnvT>
std::vector<ResultRow> barrier_loop(EnvT& env, const BenchOptions& opt) {
  auto& world = env.COMM_WORLD();
  const int iters = opt.iters_small;
  const int warmup = opt.warmup_small;
  double local_ns = 0.0;
  for (int i = 0; i < warmup + iters; ++i) {
    const auto t0 = world.native().vtime_ns();
    world.barrier();
    if (i >= warmup)
      local_ns += static_cast<double>(world.native().vtime_ns() - t0);
  }
  const double avg_us = rank_average(env, local_ns / iters / 1000.0);
  std::vector<ResultRow> rows;
  if (world.getRank() == 0) rows.push_back({0, avg_us});
  return rows;
}

/// Equal per-rank counts/displacements in elements for the v-variants
/// (OMB's vectored benchmarks use uniform counts; the v-API is the
/// subject, not irregularity).
struct VectorLayout {
  std::vector<int> counts;
  std::vector<int> displs;
};
VectorLayout uniform_layout(int ranks, std::size_t count) {
  VectorLayout l;
  for (int r = 0; r < ranks; ++r) {
    l.counts.push_back(static_cast<int>(count));
    l.displs.push_back(static_cast<int>(count) * r);
  }
  return l;
}

/// osu_ibcast / osu_iallreduce: rows carry the pure (no-compute) latency
/// in us and the communication/computation overlap percentage. Per size,
/// the pure init+wait latency t_pure is measured first, a dummy compute
/// loop is calibrated to t_pure, and the overlapped pass times
/// init;compute;wait as t_total, giving
/// overlap = 100 * (1 - (t_total - t_compute) / t_pure). `init(size)`
/// posts the nonblocking operation and returns its request. All timing
/// is in virtual time: vtime_ns() charges elapsed CPU, so the compute
/// loop shows up on the virtual clock at its real cost while the
/// schedule's communication progresses underneath it.
template <typename EnvT, typename InitFn>
std::vector<ResultRow> overlap_loop(EnvT& env, const BenchOptions& opt,
                                    const std::vector<std::size_t>& sizes,
                                    InitFn&& init) {
  auto& world = env.COMM_WORLD();
  std::vector<ResultRow> rows;
  volatile double sink = 0.0;
  const auto compute = [&sink](std::int64_t n) {
    for (std::int64_t k = 0; k < n; ++k) sink = sink + 1e-9 * k;
  };
  for (const std::size_t size : sizes) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);

    // Pass 1: pure latency — init immediately followed by wait.
    double pure_ns = 0.0;
    for (int i = 0; i < warmup + iters; ++i) {
      world.barrier();
      const auto t0 = world.native().vtime_ns();
      auto req = init(size);
      req.waitFor();
      const auto dt = world.native().vtime_ns() - t0;
      if (i >= warmup) pure_ns += static_cast<double>(dt);
    }
    const double t_pure = pure_ns / iters;

    // Calibrate the compute loop to roughly t_pure of virtual time. A
    // clock that did not move (the deterministic clock charges no
    // compute) keeps the base count instead of scaling it without bound.
    std::int64_t spins = 1000;
    {
      const auto t0 = world.native().vtime_ns();
      compute(spins);
      const auto dt = world.native().vtime_ns() - t0;
      if (dt > 0) {
        spins = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(static_cast<double>(spins) *
                                         t_pure / static_cast<double>(dt)));
      }
    }

    // Pass 2: the calibrated compute alone, then init;compute;wait.
    double compute_ns = 0.0;
    double total_ns = 0.0;
    for (int i = 0; i < warmup + iters; ++i) {
      world.barrier();
      const auto c0 = world.native().vtime_ns();
      compute(spins);
      const auto c1 = world.native().vtime_ns();
      world.barrier();
      const auto t0 = world.native().vtime_ns();
      auto req = init(size);
      compute(spins);
      req.waitFor();
      const auto dt = world.native().vtime_ns() - t0;
      if (i >= warmup) {
        compute_ns += static_cast<double>(c1 - c0);
        total_ns += static_cast<double>(dt);
      }
    }
    const double t_compute = compute_ns / iters;
    const double t_total = total_ns / iters;

    // OSU overlap: the fraction of the pure communication time hidden
    // behind the compute, clamped to [0, 100].
    double local_overlap =
        t_pure > 0.0
            ? 100.0 * (1.0 - (t_total - t_compute) / t_pure)
            : 0.0;
    local_overlap = std::min(std::max(local_overlap, 0.0), 100.0);
    const double avg_us = rank_average(env, t_pure / 1000.0);
    const double avg_overlap = rank_average(env, local_overlap);
    if (world.getRank() == 0) rows.push_back({size, avg_us, avg_overlap});
  }
  return rows;
}

/// One-sided benchmarks (osu_put_latency / osu_get_bw), ByteBuffer API
/// only: an array origin would stage a copy, which defeats the zero-copy
/// transfer these benchmarks measure. put_latency times one
/// passive-target lock/put/unlock round per iteration (unlock forces
/// target completion); get_bw streams `window` gets per shared epoch.
template <typename EnvT>
std::vector<ResultRow> rma_loop(EnvT& env, const BenchOptions& opt,
                                bool gets) {
  require_buffer_api(opt,
                     "one-sided benchmarks require the ByteBuffer API (an "
                     "array origin would reintroduce the staging copy RMA "
                     "avoids)");
  auto& world = env.COMM_WORLD();
  auto origin = env.newDirectBuffer(opt.max_size);
  auto win = world.winAllocate(opt.max_size);
  std::vector<ResultRow> rows;
  for (const std::size_t size : byte_sizes(opt)) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    const int count = bytes_of(size);
    world.barrier();
    if (world.getRank() == 0) {
      std::int64_t t0 = 0;
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t0 = world.native().vtime_ns();
        if (gets) {
          win.lock(minimpi::LockType::kShared, 1);
          for (int w = 0; w < opt.window; ++w)
            win.get(origin, count, BYTE, 1, 0);
        } else {
          win.lock(minimpi::LockType::kExclusive, 1);
          win.put(origin, count, BYTE, 1, 0);
        }
        win.unlock(1);
      }
      const auto elapsed = world.native().vtime_ns() - t0;
      rows.push_back(
          {size, gets ? bandwidth_mbps(static_cast<std::int64_t>(size) *
                                           opt.window * iters,
                                       elapsed)
                      : static_cast<double>(elapsed) / (iters * 1000.0)});
    }
    world.barrier();
  }
  win.free();
  return rows;
}

/// ULFM resilience mode (--kill-rank): the collective latency sweep under
/// ERRORS_RETURN while the fault plan kills ranks mid-run. A death
/// surfaces as RankFailedError (first observer; the collective
/// auto-revokes) or CommRevokedError (everyone else); the survivors
/// shrink to a dense survivors-only communicator, re-agree on the loop
/// position — the failure can surface one collective apart on different
/// ranks — and continue the sweep. Rank 0 must survive: it reports the
/// per-size averages over the iterations that completed. Only the
/// size-independent collectives (bcast, allreduce) run in this mode:
/// their buffers do not scale with the communicator size, so the same
/// payloads stay valid after a shrink. `op(comm, size)` runs the
/// collective once on the current communicator; the recovery allreduces
/// run on the native communicator underneath, like the rank averages.
template <typename EnvT, typename OpFn>
std::vector<ResultRow> resilient_loop(EnvT& env, const BenchOptions& opt,
                                      const std::vector<std::size_t>& sizes,
                                      OpFn&& op) {
  auto comm = env.COMM_WORLD();
  comm.setErrhandler(minimpi::Errhandler::kErrorsReturn);
  // Shrink to the survivors, then agree on the furthest loop position.
  // Loops in case another rank dies during the recovery itself.
  const auto recover = [&comm](int& i) {
    while (true) {
      try {
        comm = comm.shrink();
        int agreed = i;
        comm.native().allreduce(&i, &agreed, 1, minimpi::BasicKind::kInt,
                                minimpi::ReduceOp::kMax);
        i = agreed;
        return;
      } catch (const minimpi::RankFailedError&) {
      } catch (const minimpi::CommRevokedError&) {
      }
    }
  };

  const int world_rank = env.COMM_WORLD().getRank();
  std::vector<ResultRow> rows;
  for (const std::size_t size : sizes) {
    const int iters = opt.iterations_for(size);
    const int warmup = opt.warmup_for(size);
    double local_ns = 0.0;
    int timed = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      try {
        comm.barrier();
        const auto t0 = comm.native().vtime_ns();
        op(comm, size);
        if (i >= warmup) {
          local_ns += static_cast<double>(comm.native().vtime_ns() - t0);
          ++timed;
        }
      } catch (const minimpi::RankFailedError&) {
        recover(i);
      } catch (const minimpi::CommRevokedError&) {
        recover(i);
      }
    }
    double avg_us = timed > 0 ? local_ns / timed / 1000.0 : 0.0;
    try {
      double sum_us = 0.0;
      comm.native().allreduce(&avg_us, &sum_us, 1,
                              minimpi::BasicKind::kDouble,
                              minimpi::ReduceOp::kSum);
      avg_us = sum_us / comm.getSize();
    } catch (const minimpi::RankFailedError&) {
      int scratch = 0;
      recover(scratch);
    } catch (const minimpi::CommRevokedError&) {
      int scratch = 0;
      recover(scratch);
    }
    if (world_rank == 0) rows.push_back({size, avg_us});
  }
  return rows;
}

std::vector<ResultRow> run_resilient(BenchKind kind, auto& env,
                                     const BenchOptions& opt) {
  switch (kind) {
    case BenchKind::kBcast:
      return with_payloads<jbyte>(env, opt, [&](auto alloc) {
        auto buf = alloc(opt.max_size);
        return resilient_loop(env, opt, byte_sizes(opt),
                              [&](auto& comm, std::size_t s) {
                                comm.bcast(buf, bytes_of(s), BYTE, 0);
                              });
      });
    case BenchKind::kAllreduce:
      return with_payloads<jfloat>(env, opt, [&](auto alloc) {
        auto sbuf = alloc(opt.max_size / sizeof(jfloat));
        auto rbuf = alloc(opt.max_size / sizeof(jfloat));
        return resilient_loop(env, opt, float_sizes(opt),
                              [&](auto& comm, std::size_t s) {
                                comm.allReduce(sbuf, rbuf, floats_of(s),
                                               FLOAT, SUM);
                              });
      });
    default:
      throw UnsupportedOperationError(
          std::string("resilience mode (--kill-rank) supports bcast and "
                      "allreduce, not ") +
          bench_name(kind));
  }
}

}  // namespace

template <typename EnvT>
std::vector<ResultRow> run_benchmark(BenchKind kind, EnvT& env,
                                     const BenchOptions& opt) {
  if (opt.resilient) return run_resilient(kind, env, opt);
  auto& world = env.COMM_WORLD();
  const auto n = static_cast<std::size_t>(world.getSize());
  const std::size_t bytes = opt.max_size;
  const std::size_t floats = opt.max_size / sizeof(jfloat);
  // A byte-payload collective over `ins` and `outs` elements per rank.
  const auto byte_coll = [&](std::size_t ins, std::size_t outs, auto op) {
    return with_payloads<jbyte>(env, opt, [&](auto alloc) {
      auto sbuf = alloc(ins);
      auto rbuf = alloc(outs);
      return collective_loop(env, opt, byte_sizes(opt),
                             [&](std::size_t s) { op(sbuf, rbuf, s); });
    });
  };
  // A float reduction over `ins` and `outs` elements per rank.
  const auto float_coll = [&](std::size_t ins, std::size_t outs, auto op) {
    return with_payloads<jfloat>(env, opt, [&](auto alloc) {
      auto sbuf = alloc(ins);
      auto rbuf = alloc(outs);
      return collective_loop(env, opt, float_sizes(opt),
                             [&](std::size_t s) { op(sbuf, rbuf, s); });
    });
  };

  switch (kind) {
    case BenchKind::kLatency:
    case BenchKind::kMultiLat:
      return with_payloads<jbyte>(env, opt, [&](auto alloc) {
        auto sbuf = alloc(bytes);
        auto rbuf = alloc(bytes);
        return kind == BenchKind::kLatency
                   ? latency_loop(env, opt, sbuf, rbuf)
                   : multi_latency_loop(env, opt, sbuf, rbuf);
      });
    case BenchKind::kBandwidth:
    case BenchKind::kBiBandwidth:
    case BenchKind::kMultiBw:
      return with_payloads<jbyte>(env, opt, [&](auto alloc) {
        auto sbuf = alloc(bytes);
        auto rbuf = alloc(bytes);
        auto ack = alloc(4);
        if (kind == BenchKind::kBandwidth)
          return bandwidth_loop(env, opt, sbuf, rbuf, ack);
        if (kind == BenchKind::kBiBandwidth)
          return bibandwidth_loop(env, opt, sbuf, rbuf, ack);
        return multi_bandwidth_loop(env, opt, sbuf, rbuf, ack);
      });
    case BenchKind::kBcast:
      return with_payloads<jbyte>(env, opt, [&](auto alloc) {
        auto buf = alloc(bytes);
        return collective_loop(env, opt, byte_sizes(opt), [&](std::size_t s) {
          world.bcast(buf, bytes_of(s), BYTE, 0);
        });
      });
    case BenchKind::kReduce:
      return float_coll(floats, floats, [&](auto& s, auto& r, std::size_t z) {
        world.reduce(s, r, floats_of(z), FLOAT, SUM, 0);
      });
    case BenchKind::kAllreduce:
      return float_coll(floats, floats, [&](auto& s, auto& r, std::size_t z) {
        world.allReduce(s, r, floats_of(z), FLOAT, SUM);
      });
    case BenchKind::kGather:
      return byte_coll(bytes, bytes * n, [&](auto& s, auto& r, std::size_t z) {
        world.gather(s, bytes_of(z), BYTE, r, 0);
      });
    case BenchKind::kScatter:
      return byte_coll(bytes * n, bytes, [&](auto& s, auto& r, std::size_t z) {
        world.scatter(s, bytes_of(z), BYTE, r, 0);
      });
    case BenchKind::kAllgather:
      return byte_coll(bytes, bytes * n, [&](auto& s, auto& r, std::size_t z) {
        world.allGather(s, bytes_of(z), BYTE, r);
      });
    case BenchKind::kAlltoall:
      return byte_coll(bytes * n, bytes * n,
                       [&](auto& s, auto& r, std::size_t z) {
                         world.allToAll(s, bytes_of(z), BYTE, r);
                       });
    case BenchKind::kBarrier:
      return barrier_loop(env, opt);
    case BenchKind::kIbcast: {
      require_buffer_api(opt, "nonblocking collectives are ByteBuffer-only");
      auto buf = env.newDirectBuffer(bytes);
      return overlap_loop(env, opt, byte_sizes(opt), [&](std::size_t s) {
        return world.iBcast(buf, bytes_of(s), BYTE, 0);
      });
    }
    case BenchKind::kIallreduce: {
      require_buffer_api(opt, "nonblocking collectives are ByteBuffer-only");
      auto sbuf = env.newDirectBuffer(bytes);
      auto rbuf = env.newDirectBuffer(bytes);
      return overlap_loop(env, opt, float_sizes(opt), [&](std::size_t s) {
        return world.iAllReduce(sbuf, rbuf, floats_of(s), FLOAT, SUM);
      });
    }
    default:
      break;
  }
  if constexpr (BindingEnv<EnvT>) {
    switch (kind) {
      case BenchKind::kReduceScatter:
        return float_coll(floats * n, floats,
                          [&](auto& s, auto& r, std::size_t z) {
                            world.reduceScatterBlock(s, r, floats_of(z),
                                                     FLOAT, SUM);
                          });
      case BenchKind::kScan:
        return float_coll(floats, floats,
                          [&](auto& s, auto& r, std::size_t z) {
                            world.scan(s, r, floats_of(z), FLOAT, SUM);
                          });
      case BenchKind::kGatherv:
        return byte_coll(bytes, bytes * n,
                         [&](auto& s, auto& r, std::size_t z) {
                           const auto l = uniform_layout(world.getSize(), z);
                           world.gatherv(s, bytes_of(z), BYTE, r, l.counts,
                                         l.displs, 0);
                         });
      case BenchKind::kScatterv:
        return byte_coll(bytes * n, bytes,
                         [&](auto& s, auto& r, std::size_t z) {
                           const auto l = uniform_layout(world.getSize(), z);
                           world.scatterv(s, l.counts, l.displs, BYTE, r,
                                          bytes_of(z), 0);
                         });
      case BenchKind::kAllgatherv:
        return byte_coll(bytes, bytes * n,
                         [&](auto& s, auto& r, std::size_t z) {
                           const auto l = uniform_layout(world.getSize(), z);
                           world.allGatherv(s, bytes_of(z), BYTE, r, l.counts,
                                            l.displs);
                         });
      case BenchKind::kAlltoallv:
        return byte_coll(bytes * n, bytes * n,
                         [&](auto& s, auto& r, std::size_t z) {
                           const auto l = uniform_layout(world.getSize(), z);
                           world.allToAllv(s, l.counts, l.displs, BYTE, r,
                                           l.counts, l.displs);
                         });
      case BenchKind::kPutLatency:
        return rma_loop(env, opt, /*gets=*/false);
      case BenchKind::kGetBandwidth:
        return rma_loop(env, opt, /*gets=*/true);
      default:
        break;
    }
  }
  throw UnsupportedOperationError(
      std::string("native benchmark not implemented for ") + bench_name(kind));
}

template std::vector<ResultRow> run_benchmark(BenchKind, mv2j::Env&,
                                              const BenchOptions&);
template std::vector<ResultRow> run_benchmark(BenchKind, ompij::Env&,
                                              const BenchOptions&);
template std::vector<ResultRow> run_benchmark(BenchKind, NativeEnv&,
                                              const BenchOptions&);

}  // namespace jhpc::ombj
