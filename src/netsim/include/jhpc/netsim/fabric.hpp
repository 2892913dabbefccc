// Virtual cluster fabric: node placement and inter-node link cost model.
//
// The paper evaluates on TACC Frontera (Cascade Lake nodes, InfiniBand
// HDR-100). This environment has neither multiple nodes nor InfiniBand, so
// the fabric is simulated: ranks are mapped onto virtual nodes (block
// placement, `ppn` ranks per node) and every message that crosses a node
// boundary pays
//
//     serialization (bytes / bandwidth, on a per-directed-link clock)
//   + one-way latency
//
// before it is considered delivered. Messages between ranks on the same
// virtual node pay only a small fixed latency here — their dominant cost
// is the shared-memory copy performed by the transport, which charges a
// dense eager copy from its copy model and measures the rest. The per-link
// clock makes concurrent transfers queue behind each other, which is what
// gives osu_bw its saturation plateau and keeps multi-rank collectives
// honest about link contention.
//
// All timestamps are VIRTUAL nanoseconds: the fabric never consults the
// wall clock. Callers (the minimpi transport) pass the sender's virtual
// time and obtain the virtual delivery time; rank virtual clocks advance
// by real per-thread CPU time plus these modelled delays, so tree-shaped
// collectives exhibit their true parallelism even when every rank thread
// shares one physical core.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "jhpc/netsim/fault.hpp"

namespace jhpc::netsim {

/// How ranks map onto virtual nodes (mpirun's block vs cyclic mapping;
/// OMB exercises both because collective locality depends on it).
enum class Placement : std::uint8_t {
  kBlock,       ///< ranks 0..ppn-1 on node 0, ppn..2ppn-1 on node 1, ...
  kRoundRobin,  ///< rank r on node r % node_count
};

/// Tunable fabric parameters. Defaults approximate an HDR-100 InfiniBand
/// fabric (the paper's testbed): ~1.8 us one-way small-message latency at
/// the native level and ~12.5 GB/s per-direction link bandwidth.
struct FabricConfig {
  /// Ranks per virtual node. <=0 means "all ranks on one node", i.e. a
  /// pure intra-node run.
  int ranks_per_node = 0;
  /// Rank-to-node mapping policy. Env: JHPC_PLACEMENT=block|rr.
  Placement placement = Placement::kBlock;
  /// Explicit rank→node map overriding ranks_per_node/placement when
  /// non-empty (one entry per rank, node ids 0..max contiguous). This is
  /// how tests exercise arbitrary shuffled placements that no
  /// block/round-robin layout produces; topology-aware collectives must
  /// be correct for any of them.
  std::vector<int> node_map{};
  /// One-way latency added to every inter-node message, ns.
  std::int64_t inter_latency_ns = 1800;
  /// Per-direction inter-node link bandwidth, MB/s (MB = 1e6 bytes).
  double inter_bandwidth_mbps = 12500.0;
  /// Latency added to intra-node messages, ns (models kernel/shared-memory
  /// hand-off; the copies are charged by the transport: dense eager copies
  /// from its copy model, rendezvous and typed copies as measured CPU).
  std::int64_t intra_latency_ns = 100;

  /// Seeded fault-injection plan (drops, jitter, down windows, bandwidth
  /// degradation). Disabled by default; see jhpc/netsim/fault.hpp. Env:
  /// JHPC_FAULT_*.
  FaultPlan faults{};
};

/// The fabric instance shared by all ranks of one Universe.
///
/// Thread-safe: `reserve_delivery` may be called concurrently from any
/// rank thread.
class Fabric {
 public:
  Fabric(int world_size, FabricConfig config);

  int world_size() const { return world_size_; }
  int node_count() const { return node_count_; }
  const FabricConfig& config() const { return config_; }

  /// Virtual node hosting `rank`.
  int node_of(int rank) const;

  /// True when both ranks live on the same virtual node.
  bool same_node(int rank_a, int rank_b) const;

  /// World ranks hosted on `node`, ascending. The topology query behind
  /// hierarchical (node-aware) collectives; built once at construction.
  const std::vector<int>& ranks_on_node(int node) const;

  /// Reserve link time for a `bytes`-sized message from `src_rank` to
  /// `dst_rank` entering the fabric at virtual time `start_ns`; returns
  /// the virtual time at which the message is delivered. For intra-node
  /// pairs this is start_ns + intra_latency_ns and no link time is
  /// reserved.
  std::int64_t reserve_delivery(std::int64_t start_ns, int src_rank,
                                int dst_rank, std::size_t bytes);

  /// Serialization time for `bytes` on an inter-node link, ns.
  std::int64_t serialization_ns(std::size_t bytes) const;

  /// One-way control-message latency between two ranks (inter- or
  /// intra-node); what a rendezvous RTS/CTS hop costs.
  std::int64_t hop_latency_ns(int src_rank, int dst_rank) const {
    return same_node(src_rank, dst_rank) ? config_.intra_latency_ns
                                         : config_.inter_latency_ns;
  }

  /// Clear all link clocks and per-pair message sequence counters
  /// (virtual time restarts at 0 for a new job).
  void reset();

  // --- Fault injection (see jhpc/netsim/fault.hpp) -----------------------

  /// True when the configured FaultPlan injects anything. Cached so the
  /// transport's zero-cost-off guard is one bool load.
  bool faults_enabled() const { return faults_enabled_; }
  const FaultPlan& faults() const { return config_.faults; }

  /// Next message sequence number for the directed rank pair src->dst.
  /// Must be called on the SENDING rank's thread, once per message (not
  /// per attempt): per-pair program order is what keys the deterministic
  /// fault decisions. Only valid when faults_enabled().
  std::uint64_t next_msg_seq(int src_rank, int dst_rank);

  /// Outcome of one transmission attempt under the fault plan.
  struct TxAttempt {
    bool dropped = false;
    /// Virtual delivery time (jitter included); meaningless when dropped.
    std::int64_t deliver_at_ns = 0;
  };

  /// One DATA-packet attempt: reserves link occupancy (lost frames still
  /// occupy the sender's serializer; bandwidth degradation applies), then
  /// decides drop (down window or seeded draw) and jitter. Intra-node
  /// attempts never fault and pay only intra_latency_ns.
  TxAttempt try_data(std::int64_t start_ns, int src_rank, int dst_rank,
                     std::size_t bytes, std::uint64_t seq,
                     std::uint32_t attempt);

  /// One CONTROL-message attempt (ACK/RTS/CTS): latency-only, reserves no
  /// link time. `salt` separates the decision streams of the protocol's
  /// different control messages for the same (seq, attempt).
  TxAttempt try_control(std::int64_t start_ns, int src_rank, int dst_rank,
                        std::uint64_t seq, std::uint32_t attempt,
                        FaultSalt salt);

 private:
  struct Link {
    /// Timestamp (ns) at which this directed node->node link is free.
    std::atomic<std::int64_t> next_free_ns{0};
  };

  Link& link(int src_node, int dst_node);

  /// Drop/jitter decision shared by try_data/try_control. Returns true
  /// when the attempt is lost; otherwise *jitter_ns gets the extra
  /// latency draw.
  bool attempt_faults(const LinkFaults& lf, std::int64_t start_ns,
                      int src_rank, int dst_rank, std::uint64_t seq,
                      std::uint32_t attempt, std::uint32_t salt,
                      std::int64_t* jitter_ns) const;

  FabricConfig config_;
  int world_size_;
  int node_count_;
  int ranks_per_node_;
  /// node -> its world ranks, ascending (see ranks_on_node).
  std::vector<std::vector<int>> node_members_;
  bool faults_enabled_ = false;
  std::vector<std::unique_ptr<Link>> links_;  // node_count^2 directed links
  /// Per directed rank pair message counters (world_size^2; allocated only
  /// when faults are enabled). Each cell is written only by its source
  /// rank's thread; atomics keep the accounting race-checker clean.
  std::unique_ptr<std::atomic<std::uint64_t>[]> msg_seq_;
};

}  // namespace jhpc::netsim
