// Argument checks shared by the binding core's ByteBuffer and array paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "jhpc/mv2j/types.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::bindings::detail {

using mv2j::Datatype;

/// `count` as an unsigned element count.
inline std::size_t count_of(int count, const char* what) {
  JHPC_REQUIRE(count >= 0, std::string(what) + ": negative element count");
  return static_cast<std::size_t>(count);
}

/// Collectives that move basic types only: every array collective and
/// every vectored one. A derived layout would otherwise be moved as
/// `count` contiguous elements, ignoring its gaps.
inline void basic_only(const Datatype& type, const char* what) {
  if (!type.isBasic()) {
    throw UnsupportedOperationError(
        std::string(what) +
        ": derived datatypes are not supported on this collective (typed "
        "forms exist for point-to-point and the non-vectored ByteBuffer "
        "collectives)");
  }
}

/// The per-rank blocks of a vectored collective in bytes. Constructed
/// only where the counts and displacements are read, and checked there:
/// one entry per rank, none negative.
struct Layout {
  std::vector<std::size_t> counts, displs;
  std::size_t end = 0;  ///< one past the furthest block

  Layout() = default;
  Layout(std::span<const int> c, std::span<const int> d, std::size_t el,
         int ranks, const char* what) {
    const auto n = static_cast<std::size_t>(ranks);
    JHPC_REQUIRE(c.size() == n && d.size() == n,
                 std::string(what) +
                     ": counts and displacements need one entry per rank");
    for (std::size_t i = 0; i < n; ++i) {
      counts.push_back(count_of(c[i], what) * el);
      displs.push_back(count_of(d[i], what) * el);
      end = std::max(end, displs[i] + counts[i]);
    }
  }
};

}  // namespace jhpc::bindings::detail
