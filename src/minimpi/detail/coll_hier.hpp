// The "hier" collective suite: topology-aware two-level algorithms in the
// XHC/SMHC style (per-node leader hierarchies over shared flag trees).
//
// Each collective decomposes into an intra-node phase over a per-node
// shared segment (UniverseImpl::hier_segment) and an inter-node phase run
// among the node leaders as a schedule of the shared builders
// (detail/coll.hpp) over the leader team. The intra-node data path is
// single-copy: receivers memcpy directly out of the publishing rank's
// live user buffer, which stays pinned (the publisher does not return)
// until every reader acknowledged via the segment's done flags.
#pragma once

#include "detail/coll.hpp"

namespace jhpc::minimpi::detail::hier {

/// Run `a` with the hier algorithm when hier specialises its operation
/// (barrier, bcast, reduce, allreduce, gather) and return true; return
/// false otherwise, leaving the call to the mv2 selection.
bool run(const Comm& c, const CollArgs& a, const void* in, void* out);

}  // namespace jhpc::minimpi::detail::hier
