// The per-rank bindings environment and the job runner of the binding
// core.
//
// In the paper's deployment each MPI rank is a JVM process that loads the
// Java bindings on top of the native MPI library. Here each rank thread
// owns an Env: its simulated JVM (managed heap + JNI), the mpjbuf buffer
// pool when the vendor stages arrays through one, and COMM_WORLD bound to
// the native communicator. The native library is a minimpi Universe
// configured with the vendor's collective suite — the mv2 suite for
// MVAPICH2-J ("MVAPICH2" in this reproduction), the basic suite for
// Open MPI-J.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/mv2j/comm.hpp"
#include "jhpc/obs/obs.hpp"

namespace jhpc::bindings {

/// The staging-pool knob: only a pooled binding's options have one.
struct PoolOption {
  mpjbuf::FactoryConfig pool{};
};
struct NoPoolOption {};

/// Job-level options (the mpirun line plus JVM flags).
template <VendorPolicy P>
struct RunOptions
    : std::conditional_t<kPooled<P>, PoolOption, NoPoolOption> {
  /// Takes every field but `ranks` and `hier_collectives` from the knobs.
  RunOptions();

  int ranks = 2;
  netsim::FabricConfig fabric{};
  std::size_t eager_limit = 16 * 1024;
  minijvm::JvmConfig jvm{};
  /// Observability switches (JHPC_PVARS / JHPC_TRACE by default).
  obs::ObsConfig obs{};
  /// Run collectives on the topology-aware hierarchical engine instead
  /// of the vendor's suite (JHPC_COLL=hier equivalent; see docs/API.md).
  bool hier_collectives = false;

  /// The native universe configuration this implies: the vendor's suite
  /// (VendorPolicy::suite) with its shm channel profile, unless
  /// `hier_collectives` selects the hierarchical engine.
  minimpi::UniverseConfig universe_config() const;
};

/// One rank's bindings environment.
template <VendorPolicy P>
class Env {
 public:
  Env(minimpi::Comm& native_world, const RunOptions<P>& options);
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// MPI.COMM_WORLD.
  Comm<P>& COMM_WORLD() { return world_; }
  minijvm::Jvm& jvm() { return *jvm_; }
  /// The mpjbuf staging pool; per-call staging has none.
  mpjbuf::BufferFactory& pool()
    requires kPooled<P>
  {
    return *pool_;
  }

  // --- MPI_T-style tool access (the Java side's MPI.T) -------------------
  /// The job's performance-variable registry (values indexed by world
  /// rank), or nullptr when observability is disabled.
  obs::PvarRegistry* pvars() const { return world_.native().pvars(); }
  /// This rank's value of pvar `name`; 0 when unknown or disabled.
  std::int64_t readPvar(const std::string& name) const;
  /// This rank's decoded distribution of histogram pvar `name` (raw
  /// registered units, virtual ns for latency histograms); an empty
  /// reading when unknown, not a histogram, or disabled.
  obs::HistReading readHistogram(const std::string& name) const;
  /// Percentile `p` (0..100) of this rank's histogram `name`; 0 when
  /// empty or unknown.
  std::int64_t histogramPercentile(const std::string& name, double p) const;

  /// Convenience allocators mirroring a Java program's
  /// `ByteBuffer.allocateDirect(...)` / `new T[n]`.
  ByteBuffer newDirectBuffer(std::size_t bytes) {
    return ByteBuffer::allocate_direct(bytes);
  }
  template <JavaPrimitive T>
  JArray<T> newArray(std::size_t n) {
    return jvm_->new_array<T>(n);
  }

 private:
  friend class Comm<P>;
  std::unique_ptr<minijvm::Jvm> jvm_;
  std::unique_ptr<mpjbuf::BufferFactory> pool_;  ///< null without a pool
  Comm<P> world_;
};

/// Launch a job: spin up the native universe, give each rank an Env, run
/// `rank_main` everywhere, join.
template <VendorPolicy P>
void run(const RunOptions<P>& options,
         const std::function<void(std::type_identity_t<Env<P>>&)>& rank_main);

}  // namespace jhpc::bindings

namespace jhpc::mv2j {

/// Options of an MVAPICH2-J job, including the mpjbuf pool's.
using RunOptions = bindings::RunOptions<bindings::kMv2j>;
/// One rank's MVAPICH2-J environment.
using Env = bindings::Env<bindings::kMv2j>;
/// Launch an MVAPICH2-J job.
using bindings::run;

}  // namespace jhpc::mv2j
