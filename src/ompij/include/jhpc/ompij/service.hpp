// Open MPI-J service mode: the binding core's Service facade (see
// jhpc/mv2j/service.hpp and docs/SERVICE.md) over a private jhpcd fleet.
#pragma once

#include "jhpc/mv2j/service.hpp"
#include "jhpc/ompij/ompij.hpp"

namespace jhpc::ompij {

using ServiceJobOptions = bindings::ServiceJobOptions<bindings::kOmpij>;
/// A resident Open MPI-J scheduler.
using Service = bindings::Service<bindings::kOmpij>;

}  // namespace jhpc::ompij
