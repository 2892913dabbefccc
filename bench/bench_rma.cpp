// One-sided transfer benchmark: RDMA-emulating zero-copy puts versus a
// send/recv emulation of the same one-sided traffic.
//
// Two modes move the SAME payloads (kWindow puts per epoch, fence-style
// synchronization after every window):
//
//   rma      — win.put() on the zero-copy netsim path: payload lands
//              directly in the exposed window memory, no mailbox bounce,
//              no tag matching, fence closes the epoch.
//   twosided — what applications did before windows existed: the origin
//              send()s each payload, the target recv()s it into the
//              "window" region by hand, and a barrier stands in for the
//              fence. Every byte takes the full eager/rendezvous
//              two-sided path (mailbox copy + matching).
//
// The sweep covers eager-sized and rendezvous-sized payloads; the
// acceptance floor looks at the large (>= 256 KiB) puts where the copy
// saved per byte dominates. Every configuration is sampled repeatedly
// and summarised as a bootstrap mean with a 95% CI (jhpc::bootstrap_ci)
// over REAL wall time (the simulator's virtual clock would hide the
// mailbox copies this benchmark exists to expose).
//
// Usage: bench_rma [--quick] [--json PATH] [--baseline PATH]
//                  [--min-speedup X]
// Exit status is non-zero when the geometric-mean rma/twosided speedup
// over the large payloads falls below the floor.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "jhpc/minimpi/win.hpp"

namespace {

using namespace jhpc::bench;
using jhpc::minimpi::Comm;
using jhpc::minimpi::Universe;
using jhpc::minimpi::UniverseConfig;
using jhpc::minimpi::Win;

constexpr int kTag = 11;
constexpr int kWindow = 32;
constexpr std::size_t kLargeFloor = 256 * 1024;

UniverseConfig base_config() {
  UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.deterministic_clock = true;
  cfg.obs.trace_path.clear();
  return cfg;
}

/// rma mode: kWindow puts from rank 0 into rank 1's window per epoch,
/// each epoch closed by a fence.
void rma(Comm& world, std::size_t size, auto&& run) {
  std::vector<std::byte> origin(size, std::byte{0x5a});
  Win win = world.win_allocate(size);
  win.fence();
  run([&] {
    if (world.rank() == 0)
      for (int m = 0; m < kWindow; ++m) win.put(origin.data(), size, 1, 0);
    win.fence();
  });
  win.free();
}

/// The same traffic emulated with two-sided messaging: the target drains
/// each "put" with a recv into its window region and a barrier plays the
/// fence. This is the mailbox-bounce path RMA removes.
void twosided(Comm& world, std::size_t size, auto&& run) {
  std::vector<std::byte> origin(size, std::byte{0x5a});
  std::vector<std::byte> window_mem(size);
  run([&] {
    if (world.rank() == 0) {
      for (int m = 0; m < kWindow; ++m)
        world.send(origin.data(), size, 1, kTag);
    } else {
      for (int m = 0; m < kWindow; ++m)
        world.recv(window_mem.data(), size, 0, kTag);
    }
    world.barrier();
  });
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(
      argc, argv, {.json = "BENCH_rma.json", .floor = "--min-speedup"});
  const bool quick = args.quick;
  // 1 KiB and 8 KiB ride the eager path in twosided mode; 256 KiB and
  // 1 MiB are deep in rendezvous territory where the saved copy per
  // byte dominates.
  const std::vector<std::size_t> sizes = {1024, 8192, 256 * 1024,
                                          1024 * 1024};
  const int samples = quick ? 3 : 5;
  const int base_windows = quick ? 30 : 150;
  const int warmup = quick ? 5 : 20;

  std::vector<Fields> rows;
  std::vector<double> speedups;
  std::vector<double> large_speedups;
  Universe u(base_config());
  for (const std::size_t size : sizes) {
    // Keep per-sample byte volume roughly constant across sizes.
    const int windows =
        size >= kLargeFloor ? (quick ? 5 : 20) : base_windows;
    const std::int64_t messages = static_cast<std::int64_t>(windows) * kWindow;
    double rma_mean = 0.0;
    for (const bool is_rma : {true, false}) {
      const auto mode = [&](Comm& world, auto&& run) {
        is_rma ? rma(world, size, run) : twosided(world, size, run);
      };
      const Sampled r = sample(
          samples, static_cast<double>(messages) * size / 1e6, [&](int k) {
            return run_windows(u, k == 0 ? warmup : 0, windows, mode).seconds;
          });
      if (is_rma) {
        rma_mean = r.rate.mean;
      } else if (rma_mean > 0 && r.rate.mean > 0) {
        const double sp = rma_mean / r.rate.mean;
        speedups.push_back(sp);
        if (size >= kLargeFloor) large_speedups.push_back(sp);
        std::fprintf(stderr,
                     "[bench_rma] size=%8zu B  speedup rma/twosided = "
                     "%.2fx\n",
                     size, sp);
      }
      rows.push_back({{"mode", str(is_rma ? "rma" : "twosided")},
                      {"size", integer(static_cast<std::int64_t>(size))},
                      {"messages", integer(messages)},
                      {"samples", integer(samples)},
                      {"seconds", num(r.seconds)},
                      {"mb_per_sec", num(r.rate.mean)},
                      {"mb_per_sec_lo", num(r.rate.lo)},
                      {"mb_per_sec_hi", num(r.rate.hi)}});
      std::fprintf(stderr,
                   "[bench_rma] %-8s size=%8zu B  %10.1f MB/s [%.1f, %.1f]\n",
                   is_rma ? "rma" : "twosided", size, r.rate.mean, r.rate.lo,
                   r.rate.hi);
    }
  }

  const double geo = jhpc::geometric_mean(speedups);
  const double large_geo = jhpc::geometric_mean(large_speedups);
  std::fprintf(stderr,
               "[bench_rma] geomean speedup %.2fx (large-only %.2fx)\n", geo,
               large_geo);
  write_json(args, "rma", {{"window", integer(kWindow)}}, rows,
             {{"speedups", nums(speedups)},
              {"geomean_speedup", num(geo)},
              {"geomean_speedup_large", num(large_geo)}});
  return above_floor(args, "rma", "large-put geomean speedup", large_geo,
                     "x")
             ? 0
             : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}
