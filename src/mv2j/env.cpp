#include "jhpc/mv2j/env.hpp"

#include "jhpc/support/error.hpp"
#include "jhpc/support/knobs.hpp"

namespace jhpc::bindings {

template <VendorPolicy P>
RunOptions<P>::RunOptions() {
  const minimpi::UniverseConfig native;
  fabric = native.fabric;
  eager_limit = native.eager_limit;
  obs = native.obs;
  const KnobEnv env;
  if (env.get("JHPC_HEAP_MB", jvm.heap_bytes)) jvm.heap_bytes <<= 20;
  env.get("JHPC_JNI_CROSS_NS", jvm.jni_crossing_ns);
  if constexpr (kPooled<P>) {
    env.get("JHPC_POOL_MIN_CAPACITY", this->pool.min_capacity);
    env.get("JHPC_POOL_MAX_BUFFERS", this->pool.max_pooled_buffers);
  }
}

template <VendorPolicy P>
minimpi::UniverseConfig RunOptions<P>::universe_config() const {
  minimpi::UniverseConfig cfg;
  cfg.world_size = ranks;
  cfg.fabric = fabric;
  cfg.eager_limit = eager_limit;
  cfg.suite = hier_collectives ? minimpi::CollectiveSuite::kHier : P.suite;
  cfg.apply_suite_profile();
  cfg.obs = obs;
  return cfg;
}

template <VendorPolicy P>
Env<P>::Env(minimpi::Comm& native_world, const RunOptions<P>& options)
    : jvm_(std::make_unique<minijvm::Jvm>(options.jvm)),
      world_(this, native_world) {
  if constexpr (kPooled<P>) {
    pool_ = std::make_unique<mpjbuf::BufferFactory>(options.pool);
    // Surface this rank's pool stats through the job-wide pvar registry
    // (COMM_WORLD rank == world rank).
    if (obs::PvarRegistry* reg = native_world.pvars())
      pool_->bind_pvars(*reg, native_world.rank());
  }
}

template <VendorPolicy P>
Env<P>::~Env() = default;

template <VendorPolicy P>
std::int64_t Env<P>::readPvar(const std::string& name) const {
  obs::PvarRegistry* reg = pvars();
  if (reg == nullptr) return 0;
  return reg->read(reg->find(name), world_.native().rank());
}

template <VendorPolicy P>
obs::HistReading Env<P>::readHistogram(const std::string& name) const {
  obs::PvarRegistry* reg = pvars();
  if (reg == nullptr) return {};
  return reg->read_hist(reg->find(name), world_.native().rank());
}

template <VendorPolicy P>
std::int64_t Env<P>::histogramPercentile(const std::string& name,
                                         double p) const {
  return readHistogram(name).percentile(p);
}

template <VendorPolicy P>
void run(const RunOptions<P>& options,
         const std::function<void(std::type_identity_t<Env<P>>&)>& rank_main) {
  JHPC_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  minimpi::Universe::launch(options.universe_config(),
                            [&options, &rank_main](minimpi::Comm& world) {
                              Env<P> env(world, options);
                              rank_main(env);
                            });
}

template struct RunOptions<kMv2j>;
template struct RunOptions<kOmpij>;
template class Env<kMv2j>;
template class Env<kOmpij>;
template void run<kMv2j>(const RunOptions<kMv2j>&,
                         const std::function<void(Env<kMv2j>&)>&);
template void run<kOmpij>(const RunOptions<kOmpij>&,
                          const std::function<void(Env<kOmpij>&)>&);

}  // namespace jhpc::bindings
