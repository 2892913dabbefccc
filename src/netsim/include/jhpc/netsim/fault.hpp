// Deterministic fault injection for the virtual fabric.
//
// A FaultPlan describes how unreliable each directed node->node link is:
// per-transmission drop probability, uniform latency jitter, a transient
// link-down window (in virtual time) and a bandwidth degradation factor.
// The plan is *seeded*: every random decision is a pure hash of
//
//     (seed, src_rank, dst_rank, message_seq, attempt, salt)
//
// where `message_seq` is a per-directed-rank-pair counter advanced once
// per message ON THE SENDER'S THREAD (program order). No decision reads a
// global RNG stream, so two runs with the same seed make bit-identical
// drop/jitter choices regardless of how the host scheduler interleaves
// rank threads — the contract every chaos test relies on.
//
// The plan is carried inside FabricConfig, so it reaches every stack
// (native minimpi, the mv2j/ompij bindings, the ombj benchmarks) without
// extra plumbing. With the default (empty) plan, `FaultPlan::enabled()`
// is false and the fabric's fault entry points are never consulted: the
// perfect-network fast paths are byte-for-byte those of a fault-free
// build (strict zero-cost-off).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jhpc::netsim {

/// Fault behaviour of one directed node->node link (or the default for
/// all links). All-default means "perfect link".
struct LinkFaults {
  /// Probability that one transmission attempt (data packet or control
  /// message) is lost. In [0, 1].
  double drop_prob = 0.0;
  /// Extra one-way latency drawn uniformly from [0, jitter_ns] per
  /// attempt, ns.
  std::int64_t jitter_ns = 0;
  /// Transient outage: attempts STARTING at virtual time
  /// [down_from_ns, down_until_ns) are lost. down_until_ns <= down_from_ns
  /// means "no window".
  std::int64_t down_from_ns = 0;
  std::int64_t down_until_ns = 0;
  /// Serialization-rate degradation: effective bandwidth is
  /// `bandwidth * bandwidth_factor` (0 < factor <= 1 models a degraded
  /// link; 1 = nominal).
  double bandwidth_factor = 1.0;

  bool has_down_window() const { return down_until_ns > down_from_ns; }
  /// True when this link deviates from a perfect link in any way.
  bool active() const {
    return drop_prob > 0.0 || jitter_ns > 0 || has_down_window() ||
           bandwidth_factor != 1.0;
  }
};

/// The whole job's fault model: a default per-link behaviour plus
/// optional per-directed-link overrides, a seed, and the reliability
/// protocol's pacing knobs (carried here so they travel with the plan
/// through every stack's FabricConfig).
struct FaultPlan {
  std::uint64_t seed = 1;
  LinkFaults link_defaults;

  struct LinkOverride {
    int src_node = 0;
    int dst_node = 0;
    LinkFaults faults;
  };
  std::vector<LinkOverride> overrides;

  // --- Rank-failure model (fail-stop) -----------------------------------
  /// One scheduled rank death: the rank fail-stops the first time its own
  /// thread enters the transport at virtual time >= at_vns. A dead rank
  /// never communicates again; survivors detect the death through the
  /// epitaph the failing rank publishes (see docs/FAULTS.md).
  struct RankKill {
    int rank = 0;
    std::int64_t at_vns = 0;
  };
  std::vector<RankKill> kills;

  /// Failure-detection latency: survivors observe a death no earlier than
  /// `dead_at + heartbeat_ns` of virtual time (models heartbeat rounds on
  /// a real fabric). Purely a virtual-time floor; detection itself is
  /// epitaph-based and therefore deterministic.
  std::int64_t heartbeat_ns = 1'000'000;

  // --- Reliable-delivery pacing (used by the minimpi transport) ---------
  /// Initial ack/CTS retransmit timeout, virtual ns.
  std::int64_t rto_ns = 50'000;
  /// Exponential-backoff cap for the retransmit timeout, virtual ns.
  std::int64_t rto_max_ns = 2'000'000;
  /// Total virtual-time budget for delivering one message (all
  /// retransmits included); exhausting it raises TransportTimeoutError.
  std::int64_t delivery_timeout_ns = 500'000'000;

  /// True when any link (default or override) injects faults. Gates every
  /// fault code path; false for a default-constructed plan. Deliberately
  /// does NOT cover `kills`: rank death must not switch the transport to
  /// the retransmit protocol (see kills_enabled()).
  bool enabled() const;

  /// True when any rank death is scheduled. Gates the rank-failure checks
  /// in the transport independently of the link-fault machinery.
  bool kills_enabled() const { return !kills.empty(); }

  /// Fault behaviour of the directed link src_node -> dst_node.
  const LinkFaults& link(int src_node, int dst_node) const;

  /// Parse a down window "FROM:UNTIL" (virtual ns) into `link_defaults`;
  /// throws InvalidArgumentError on malformed input or negative bounds.
  void parse_down(const std::string& spec);

  /// Parse a kill spec into `kills`:
  ///
  ///   "1@500000;3@2000000"
  ///
  /// Each clause is RANK@VNS (rank dies at virtual ns). Throws
  /// InvalidArgumentError on malformed input, negative values, or a rank
  /// listed twice.
  void parse_kills(const std::string& spec);

  /// Parse a per-link override spec into `overrides`:
  ///
  ///   "0>1:drop=0.5,jitter=200;2>0:down=1000-2000,bw=0.25"
  ///
  /// Each clause is SRC>DST:key=value[,key=value...] with keys drop,
  /// jitter (ns), down (FROM-UNTIL ns) and bw. Unspecified keys inherit
  /// `link_defaults`. Throws InvalidArgumentError on malformed input.
  void parse_links(const std::string& spec);
};

/// Salt values separating the independent decision streams of one
/// message (data-drop, ack-drop, RTS/CTS-drop, jitter draws).
enum class FaultSalt : std::uint32_t {
  kData = 1,  ///< payload packet drop
  kAck = 2,   ///< acknowledgement drop (reverse link)
  kRts = 3,   ///< rendezvous ready-to-send drop
  kCts = 4,   ///< rendezvous clear-to-send drop (reverse link)
};

/// Offset added to a FaultSalt to key the same attempt's latency-jitter
/// draw, so jitter stays identical whether or not drops are configured.
inline constexpr std::uint32_t kJitterSaltOffset = 0x100;

/// Stateless mixing hash (splitmix64 chain) behind every fault decision.
/// Exposed for tests: determinism here IS the feature.
std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t src,
                         std::uint64_t dst, std::uint64_t seq,
                         std::uint64_t attempt, std::uint64_t salt);

/// The same hash mapped to [0, 1).
double fault_uniform(std::uint64_t seed, std::uint64_t src, std::uint64_t dst,
                     std::uint64_t seq, std::uint64_t attempt,
                     std::uint64_t salt);

}  // namespace jhpc::netsim
