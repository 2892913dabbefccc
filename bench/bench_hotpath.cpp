// Real wall-clock hot-path benchmark for the minimpi transport.
//
// Unlike the fig* binaries (which report *virtual* time on the simulated
// cluster), this harness measures how many real messages per second the
// transport moves on the host — the number the zero-allocation eager fast
// path exists to raise, and the repo's perf-regression tripwire
// (BENCH_hotpath.json). Two patterns, both well under the eager limit:
//
//   pingpong  — OSU-latency-style strict alternation (scheduler-bound on
//               an oversubscribed host; reported for completeness)
//   stream    — mbw_mr-style windowed streaming: the sender pushes a
//               window of eager messages, the receiver drains it and
//               acks. Sender-side per-message cost dominates, which is
//               exactly where the slab recycler and the matched-receive
//               fast path live.
//
// Each pattern runs in two universe configurations:
//   real — default clock (per-thread CPU passthrough feeds the virtual
//          clock, as the fig benches run)
//   det  — deterministic_clock=true (no CPU sampling: the pure software
//          path, the most repeatable view of transport overhead)
//
// allocations/op comes from a separate short instrumented pass that reads
// the transport.slab.* pvars (absent on pre-slab builds: reported as -1).
//
// Usage: bench_hotpath [--quick] [--json PATH] [--baseline PATH]
//                      [--min-msgs-per-sec N]
// Exit status is non-zero when the best stream rate is below the floor
// (CI catches order-of-magnitude regressions only, not noise).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace jhpc::bench;
using jhpc::minimpi::Comm;
using jhpc::minimpi::Universe;
using jhpc::minimpi::UniverseConfig;

constexpr int kTag = 7;
constexpr int kAckTag = 8;
constexpr int kWindow = 64;

UniverseConfig base_config(bool det) {
  UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.deterministic_clock = det;
  cfg.obs.pvars = false;
  cfg.obs.trace_path.clear();
  return cfg;
}

/// One round trip per window: rank 0 sends and awaits the echo.
void pingpong(Comm& world, std::size_t size, auto&& run) {
  std::vector<std::byte> buf(size == 0 ? 1 : size);
  const int peer = 1 - world.rank();
  run([&] {
    if (world.rank() == 0) {
      world.send(buf.data(), size, peer, kTag);
      world.recv(buf.data(), size, peer, kTag);
    } else {
      world.recv(buf.data(), size, peer, kTag);
      world.send(buf.data(), size, peer, kTag);
    }
  });
}

/// kWindow eager sends per window from rank 0, drained with blocking
/// receives on rank 1 and acked.
void stream(Comm& world, std::size_t size, auto&& run) {
  std::vector<std::byte> buf(size == 0 ? 1 : size);
  std::byte ack{};
  const int peer = 1 - world.rank();
  run([&] {
    if (world.rank() == 0) {
      for (int m = 0; m < kWindow; ++m)
        world.send(buf.data(), size, peer, kTag);
      world.recv(&ack, 1, peer, kAckTag);
    } else {
      for (int m = 0; m < kWindow; ++m)
        world.recv(buf.data(), size, peer, kTag);
      world.send(&ack, 1, peer, kAckTag);
    }
  });
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(
      argc, argv, {.json = "BENCH_hotpath.json", .floor = "--min-msgs-per-sec"});
  const bool quick = args.quick;
  const std::vector<std::size_t> sizes = {8, 128, 1024, 8192};
  // Each configuration is sampled repeatedly and summarised as a
  // bootstrap mean with a 95% CI (see jhpc::bootstrap_ci), so the JSON
  // carries an honest noise estimate instead of a single shot.
  const int samples = quick ? 3 : 5;
  const int pp_iters = quick ? 700 : 4000;
  const int pp_warmup = quick ? 100 : 800;
  const int st_windows = quick ? 50 : 300;
  const int st_warmup = quick ? 10 : 50;

  std::vector<Fields> rows;
  double best_stream = 0.0;
  for (const bool det : {false, true}) {
    const char* mode = det ? "det" : "real";
    Universe u(base_config(det));
    for (const std::size_t size : sizes) {
      for (const bool streaming : {false, true}) {
        const auto pattern = [&](Comm& world, auto&& run) {
          streaming ? stream(world, size, run) : pingpong(world, size, run);
        };
        const int per_sample = streaming ? st_windows : pp_iters;
        const int warmup = streaming ? st_warmup : pp_warmup;
        const auto messages = static_cast<std::int64_t>(per_sample) *
                              (streaming ? kWindow : 2);
        const Sampled s = sample(samples, messages, [&](int k) {
          return run_windows(u, k == 0 ? warmup : 0, per_sample, pattern)
              .seconds;
        });
        double allocs = -1.0;
        if (streaming) {
          allocs = slab_misses_per_window(base_config(/*det=*/true), 4,
                                          quick ? 20 : 100, pattern);
          if (allocs >= 0) allocs /= kWindow;
          if (s.rate.mean > best_stream) best_stream = s.rate.mean;
        }
        rows.push_back({{"pattern", str(streaming ? "stream" : "pingpong")},
                        {"mode", str(mode)},
                        {"size", integer(static_cast<std::int64_t>(size))},
                        {"messages", integer(messages)},
                        {"samples", integer(samples)},
                        {"seconds", num(s.seconds)},
                        {"msgs_per_sec", num(s.rate.mean)},
                        {"msgs_per_sec_lo", num(s.rate.lo)},
                        {"msgs_per_sec_hi", num(s.rate.hi)},
                        {"allocs_per_op", num(allocs)}});
        std::fprintf(stderr,
                     "[bench_hotpath] %-8s %4s %5zu B  %10.0f msgs/s "
                     "[%.0f, %.0f]  %.3f allocs/op\n",
                     streaming ? "stream" : "pingpong", mode, size,
                     s.rate.mean, s.rate.lo, s.rate.hi, allocs);
      }
    }
  }

  write_json(args, "hotpath", {{"window", integer(kWindow)}}, rows, {});
  return above_floor(args, "hotpath", "best stream rate", best_stream,
                     " msgs/s")
             ? 0
             : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}
