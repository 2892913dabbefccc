// The vendor policy of the binding core.
//
// MVAPICH2-J and the Open MPI Java bindings implement the same Java API
// (paper Section II-C). What separates them in the paper's evaluation is
// three implementation choices, and nothing else; each is one field here.
// The binding core (namespace jhpc::bindings: Comm, Win, Env, RunOptions,
// Service) is written once and instantiated for the two policies below;
// jhpc::mv2j and jhpc::ompij name the two instantiations.
#pragma once

#include "jhpc/minimpi/types.hpp"

namespace jhpc::bindings {

/// How a Java array reaches native memory.
enum class Staging {
  /// MVAPICH2-J (paper Figure 3): a pooled mpjbuf direct buffer, one copy
  /// per side, nothing copied in for a pure receive. Because the staging
  /// buffer can live inside a Request, three features exist only here:
  /// arrays on nonblocking point-to-point, derived datatypes on array
  /// point-to-point, and the element-offset overloads.
  kPooled,
  /// Open MPI-J: a message-sized native buffer on every call through
  /// Get<Type>ArrayRegion (always copied in) and Set<Type>ArrayRegion
  /// (copied back unless the call only reads the array). No pool.
  kPerCall,
};

/// The three choices behind the figures' binding gap.
struct VendorPolicy {
  /// Array staging: the array series of Figs 5-10, and the "n/a" array
  /// series of Figs 7/12 (per-call staging refuses nonblocking arrays).
  Staging staging;
  /// Marshal a Datatype/Comm object graph on every call: one extra JNI
  /// handle check on blocking ByteBuffer send/recv and on every Win
  /// origin. The Fig 11 gap.
  bool marshal_per_call;
  /// The native collective suite, with the shm channel profile
  /// UniverseConfig::apply_suite_profile() gives it. The Figs 14-17 gap.
  /// RunOptions::hier_collectives overrides it for both vendors.
  minimpi::CollectiveSuite suite;
};

inline constexpr VendorPolicy kMv2j{Staging::kPooled, false,
                                    minimpi::CollectiveSuite::kMv2};
inline constexpr VendorPolicy kOmpij{Staging::kPerCall, true,
                                     minimpi::CollectiveSuite::kOmpiBasic};

/// True for the policy whose arrays are staged through the mpjbuf pool.
template <VendorPolicy P>
inline constexpr bool kPooled = P.staging == Staging::kPooled;

template <VendorPolicy P>
class Comm;

}  // namespace jhpc::bindings
