// Derived-datatype fast-path benchmark: zero-copy strided eager sends
// versus the manual pack the paper-era Java codes had to write by hand.
//
// Two modes move the SAME strided payload (a vector datatype: nblocks
// blocks of `blocklen` ints at a 2*blocklen-int stride, 50% density):
//
//   typed  — world.send(buf, 1, vector_type, ...): the transport
//            gathers the runs straight into the recycled eager slab
//            (one copy, zero steady-state allocations) and the matched
//            receiver scatters straight into its strided buffer.
//   manual — the application packs into a dense staging vector, sends
//            the staging bytes, and the receiver unpacks by hand: two
//            extra copies per message plus the staging buffers.
//
// The sweep crosses blocklen x payload size, including payloads past the
// 16 KiB eager limit where both modes ride the rendezvous pipeline.
// Every configuration is sampled repeatedly and summarised as a
// bootstrap mean with a 95% CI (jhpc::bootstrap_ci), and the typed mode
// additionally reports steady-state allocations per message from the
// transport.slab.misses pvar.
//
// Usage: bench_datatype [--quick] [--json PATH] [--baseline PATH]
//                       [--min-speedup X]
// Exit status is non-zero when the geometric-mean typed/manual speedup
// over the eager-sized configurations falls below the floor (CI uses a
// generous floor to catch real regressions, not scheduler noise).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace jhpc::bench;
using jhpc::minimpi::Comm;
using jhpc::minimpi::Datatype;
using jhpc::minimpi::Universe;
using jhpc::minimpi::UniverseConfig;

constexpr int kTag = 7;
constexpr int kAckTag = 8;
constexpr int kWindow = 32;

struct Shape {
  int blocklen;        // ints per block
  std::size_t payload; // payload bytes (sum of blocks)
};

UniverseConfig base_config() {
  UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.deterministic_clock = true;
  cfg.obs.pvars = false;
  cfg.obs.trace_path.clear();
  return cfg;
}

Datatype shape_type(const Shape& s) {
  const int nblocks = static_cast<int>(s.payload / 4) / s.blocklen;
  return Datatype::vector(nblocks, s.blocklen, 2 * s.blocklen,
                          Datatype::int_type());
}

/// Typed mode: kWindow sends of one strided element per window; the
/// transport gathers straight into the eager slab and the receiver
/// scatters straight from it.
void typed(Comm& world, const Shape& s, auto&& run) {
  const Datatype dt = shape_type(s);
  std::vector<std::int32_t> buf(dt.extent() / 4, 1);
  std::byte ack{};
  const int peer = 1 - world.rank();
  run([&] {
    if (world.rank() == 0) {
      for (int m = 0; m < kWindow; ++m)
        world.send(buf.data(), 1, dt, peer, kTag);
      world.recv(&ack, 1, peer, kAckTag);
    } else {
      for (int m = 0; m < kWindow; ++m)
        world.recv(buf.data(), 1, dt, peer, kTag);
      world.send(&ack, 1, peer, kAckTag);
    }
  });
}

/// The same traffic with an application-level pack/unpack through dense
/// staging buffers and the byte API — what user code does without a
/// datatype engine.
void manual(Comm& world, const Shape& s, auto&& run) {
  std::vector<std::int32_t> buf(shape_type(s).extent() / 4, 1);
  std::vector<std::int32_t> staging(s.payload / 4);
  const int nblocks = static_cast<int>(s.payload / 4) / s.blocklen;
  const int bl = s.blocklen;
  std::byte ack{};
  const int peer = 1 - world.rank();
  run([&] {
    if (world.rank() == 0) {
      for (int m = 0; m < kWindow; ++m) {
        for (int b = 0; b < nblocks; ++b)
          std::memcpy(staging.data() + b * bl, buf.data() + b * 2 * bl,
                      static_cast<std::size_t>(bl) * 4);
        world.send(staging.data(), s.payload, peer, kTag);
      }
      world.recv(&ack, 1, peer, kAckTag);
    } else {
      for (int m = 0; m < kWindow; ++m) {
        world.recv(staging.data(), s.payload, peer, kTag);
        for (int b = 0; b < nblocks; ++b)
          std::memcpy(buf.data() + b * 2 * bl, staging.data() + b * bl,
                      static_cast<std::size_t>(bl) * 4);
      }
      world.send(&ack, 1, peer, kAckTag);
    }
  });
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(
      argc, argv, {.json = "BENCH_datatype.json", .floor = "--min-speedup"});
  const bool quick = args.quick;
  // blocklen x payload sweep: 50% density throughout (stride =
  // 2*blocklen). 1 KiB..8 KiB ride the eager fast path; 64 KiB is past
  // the 16 KiB eager limit and rides the rendezvous pipeline.
  const std::vector<Shape> shapes = {
      {1, 1024},  {4, 1024},  {16, 1024},   // small eager
      {1, 4096},  {4, 4096},  {16, 4096},   // mid eager
      {1, 8192},  {4, 8192},  {16, 8192},   // large eager
      {4, 65536}, {16, 65536},              // rendezvous
  };
  const int samples = quick ? 3 : 5;
  const int windows = quick ? 40 : 250;
  const int warmup = quick ? 10 : 40;
  const std::int64_t messages = static_cast<std::int64_t>(windows) * kWindow;

  std::vector<Fields> rows;
  std::vector<double> speedups;
  std::vector<double> eager_speedups;
  Universe u(base_config());
  for (const Shape& s : shapes) {
    const bool eager = s.payload <= 16 * 1024;
    double typed_mean = 0.0;
    for (const bool is_typed : {true, false}) {
      const auto mode = [&](Comm& world, auto&& run) {
        is_typed ? typed(world, s, run) : manual(world, s, run);
      };
      const Sampled r = sample(samples, messages, [&](int k) {
        return run_windows(u, k == 0 ? warmup : 0, windows, mode).seconds;
      });
      // Steady-state slab misses per typed message (the fast path's
      // zero-allocation claim); -1 in manual mode.
      double allocs = -1.0;
      if (is_typed) {
        typed_mean = r.rate.mean;
        allocs = slab_misses_per_window(base_config(), 6, quick ? 15 : 60,
                                        mode);
        if (allocs >= 0) allocs /= kWindow;
      } else if (typed_mean > 0 && r.rate.mean > 0) {
        const double sp = typed_mean / r.rate.mean;
        speedups.push_back(sp);
        if (eager) eager_speedups.push_back(sp);
        std::fprintf(stderr,
                     "[bench_datatype] bl=%-3d payload=%6zu B  "
                     "speedup typed/manual = %.2fx\n",
                     s.blocklen, s.payload, sp);
      }
      rows.push_back({{"mode", str(is_typed ? "typed" : "manual")},
                      {"blocklen", integer(s.blocklen)},
                      {"stride", integer(2 * s.blocklen)},
                      {"payload", integer(static_cast<std::int64_t>(s.payload))},
                      {"eager", boolean(eager)},
                      {"messages", integer(messages)},
                      {"samples", integer(samples)},
                      {"msgs_per_sec", num(r.rate.mean)},
                      {"msgs_per_sec_lo", num(r.rate.lo)},
                      {"msgs_per_sec_hi", num(r.rate.hi)},
                      {"allocs_per_op", num(allocs)}});
      std::fprintf(stderr,
                   "[bench_datatype] %-6s bl=%-3d payload=%6zu B  "
                   "%10.0f msgs/s [%.0f, %.0f]  %.3f allocs/op\n",
                   is_typed ? "typed" : "manual", s.blocklen, s.payload,
                   r.rate.mean, r.rate.lo, r.rate.hi, allocs);
    }
  }

  const double geo = jhpc::geometric_mean(speedups);
  const double eager_geo = jhpc::geometric_mean(eager_speedups);
  std::fprintf(stderr,
               "[bench_datatype] geomean speedup %.2fx (eager-only %.2fx)\n",
               geo, eager_geo);
  write_json(args, "datatype", {{"window", integer(kWindow)}}, rows,
             {{"speedups", nums(speedups)},
              {"geomean_speedup", num(geo)},
              {"geomean_speedup_eager", num(eager_geo)}});
  return above_floor(args, "datatype", "eager geomean speedup", eager_geo,
                     "x")
             ? 0
             : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 1;
}
