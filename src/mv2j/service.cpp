#include "jhpc/mv2j/service.hpp"

#include <memory>

#include "jhpc/support/error.hpp"

namespace jhpc::bindings {

template <VendorPolicy P>
jhpcd::JobHandle Service<P>::submit(const ServiceJobOptions<P>& options,
                                    std::function<void(Env<P>&)> rank_main) {
  JHPC_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  // The options outlive the submission call but not the job; share them
  // with every rank thread of the (possibly much later) run.
  auto opts = std::make_shared<RunOptions<P>>(options.run);
  auto body =
      std::make_shared<std::function<void(Env<P>&)>>(std::move(rank_main));
  jhpcd::JobSpec spec;
  spec.name = options.name;
  spec.config = opts->universe_config();
  spec.job_class = options.job_class;
  spec.priority = options.priority;
  spec.quota = options.quota;
  spec.rank_main = [opts, body](minimpi::Comm& world) {
    Env<P> env(world, *opts);
    (*body)(env);
  };
  return manager_.submit(std::move(spec));
}

template class Service<kMv2j>;
template class Service<kOmpij>;

}  // namespace jhpc::bindings
