#include "jhpc/netsim/fabric.hpp"

#include <algorithm>

#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::netsim {

Fabric::Fabric(int world_size, FabricConfig config)
    : config_(config), world_size_(world_size) {
  JHPC_REQUIRE(world_size >= 1, "fabric needs at least one rank");
  JHPC_REQUIRE(config_.inter_latency_ns >= 0, "negative inter-node latency");
  JHPC_REQUIRE(config_.intra_latency_ns >= 0, "negative intra-node latency");
  JHPC_REQUIRE(config_.inter_bandwidth_mbps > 0.0,
               "inter-node bandwidth must be positive");
  ranks_per_node_ =
      config_.ranks_per_node <= 0 ? world_size : config_.ranks_per_node;
  if (config_.node_map.empty()) {
    node_count_ = (world_size + ranks_per_node_ - 1) / ranks_per_node_;
  } else {
    JHPC_REQUIRE(config_.node_map.size() ==
                     static_cast<std::size_t>(world_size),
                 "node_map must have one entry per rank");
    int max_node = 0;
    for (const int n : config_.node_map) {
      JHPC_REQUIRE(n >= 0 && n < world_size, "node_map entry out of range");
      max_node = std::max(max_node, n);
    }
    node_count_ = max_node + 1;
  }
  node_members_.resize(static_cast<std::size_t>(node_count_));
  for (int r = 0; r < world_size; ++r)
    node_members_[static_cast<std::size_t>(node_of(r))].push_back(r);
  for (int n = 0; n < node_count_; ++n) {
    JHPC_REQUIRE(!node_members_[static_cast<std::size_t>(n)].empty(),
                 "node_map node ids must be contiguous (empty node)");
  }
  links_.resize(static_cast<std::size_t>(node_count_) *
                static_cast<std::size_t>(node_count_));
  for (auto& l : links_) l = std::make_unique<Link>();
  faults_enabled_ = config_.faults.enabled();
  if (faults_enabled_) {
    const auto pairs = static_cast<std::size_t>(world_size_) *
                       static_cast<std::size_t>(world_size_);
    msg_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(pairs);
    for (std::size_t i = 0; i < pairs; ++i)
      msg_seq_[i].store(0, std::memory_order_relaxed);
  }
}

int Fabric::node_of(int rank) const {
  JHPC_REQUIRE(rank >= 0 && rank < world_size_, "rank out of range");
  if (!config_.node_map.empty())
    return config_.node_map[static_cast<std::size_t>(rank)];
  return config_.placement == Placement::kBlock ? rank / ranks_per_node_
                                                : rank % node_count_;
}

bool Fabric::same_node(int rank_a, int rank_b) const {
  return node_of(rank_a) == node_of(rank_b);
}

const std::vector<int>& Fabric::ranks_on_node(int node) const {
  JHPC_REQUIRE(node >= 0 && node < node_count_, "node out of range");
  return node_members_[static_cast<std::size_t>(node)];
}

std::int64_t Fabric::serialization_ns(std::size_t bytes) const {
  // MB/s with MB = 1e6 bytes  =>  ns per byte = 1e3 / MBps.
  return static_cast<std::int64_t>(static_cast<double>(bytes) * 1e3 /
                                   config_.inter_bandwidth_mbps);
}

void Fabric::reset() {
  for (auto& l : links_) l->next_free_ns.store(0, std::memory_order_relaxed);
  if (msg_seq_ != nullptr) {
    const auto pairs = static_cast<std::size_t>(world_size_) *
                       static_cast<std::size_t>(world_size_);
    for (std::size_t i = 0; i < pairs; ++i)
      msg_seq_[i].store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Fabric::next_msg_seq(int src_rank, int dst_rank) {
  JHPC_ASSERT(msg_seq_ != nullptr, "next_msg_seq without a fault plan");
  auto& cell = msg_seq_[static_cast<std::size_t>(src_rank) *
                            static_cast<std::size_t>(world_size_) +
                        static_cast<std::size_t>(dst_rank)];
  return cell.fetch_add(1, std::memory_order_relaxed);
}

bool Fabric::attempt_faults(const LinkFaults& lf, std::int64_t start_ns,
                            int src_rank, int dst_rank, std::uint64_t seq,
                            std::uint32_t attempt, std::uint32_t salt,
                            std::int64_t* jitter_ns) const {
  if (lf.has_down_window() && start_ns >= lf.down_from_ns &&
      start_ns < lf.down_until_ns) {
    return true;
  }
  const auto src = static_cast<std::uint64_t>(src_rank);
  const auto dst = static_cast<std::uint64_t>(dst_rank);
  if (lf.drop_prob > 0.0 &&
      fault_uniform(config_.faults.seed, src, dst, seq, attempt, salt) <
          lf.drop_prob) {
    return true;
  }
  if (lf.jitter_ns > 0) {
    // Separate draw stream: the same attempt must keep its jitter whether
    // or not a drop probability is configured.
    *jitter_ns = static_cast<std::int64_t>(
        fault_hash(config_.faults.seed, src, dst, seq, attempt,
                   salt + kJitterSaltOffset) %
        static_cast<std::uint64_t>(lf.jitter_ns + 1));
  }
  return false;
}

Fabric::TxAttempt Fabric::try_data(std::int64_t start_ns, int src_rank,
                                   int dst_rank, std::size_t bytes,
                                   std::uint64_t seq, std::uint32_t attempt) {
  const int sn = node_of(src_rank);
  const int dn = node_of(dst_rank);
  // Intra-node messages move through shared memory: the fault plan models
  // the fabric, so they never drop and pay only the hand-off latency.
  if (sn == dn) return {false, start_ns + config_.intra_latency_ns};

  const LinkFaults& lf = config_.faults.link(sn, dn);
  // Every attempt occupies the sender's serializer — retransmitted and
  // lost frames burn real link time, which is how drops degrade effective
  // bandwidth. Degradation stretches the occupancy.
  const std::int64_t occupy = static_cast<std::int64_t>(
      static_cast<double>(serialization_ns(bytes)) / lf.bandwidth_factor);
  Link& l = link(sn, dn);
  std::int64_t free_at = l.next_free_ns.load(std::memory_order_relaxed);
  std::int64_t begin, end;
  do {
    begin = free_at > start_ns ? free_at : start_ns;
    end = begin + occupy;
  } while (!l.next_free_ns.compare_exchange_weak(free_at, end,
                                                 std::memory_order_acq_rel));

  std::int64_t jitter = 0;
  if (attempt_faults(lf, start_ns, src_rank, dst_rank, seq, attempt,
                     static_cast<std::uint32_t>(FaultSalt::kData), &jitter)) {
    return {true, 0};
  }
  return {false, end + config_.inter_latency_ns + jitter};
}

Fabric::TxAttempt Fabric::try_control(std::int64_t start_ns, int src_rank,
                                      int dst_rank, std::uint64_t seq,
                                      std::uint32_t attempt, FaultSalt salt) {
  const int sn = node_of(src_rank);
  const int dn = node_of(dst_rank);
  if (sn == dn) return {false, start_ns + config_.intra_latency_ns};

  const LinkFaults& lf = config_.faults.link(sn, dn);
  std::int64_t jitter = 0;
  if (attempt_faults(lf, start_ns, src_rank, dst_rank, seq, attempt,
                     static_cast<std::uint32_t>(salt), &jitter)) {
    return {true, 0};
  }
  return {false, start_ns + config_.inter_latency_ns + jitter};
}

Fabric::Link& Fabric::link(int src_node, int dst_node) {
  return *links_[static_cast<std::size_t>(src_node) *
                     static_cast<std::size_t>(node_count_) +
                 static_cast<std::size_t>(dst_node)];
}

std::int64_t Fabric::reserve_delivery(std::int64_t start_ns, int src_rank,
                                      int dst_rank, std::size_t bytes) {
  const int sn = node_of(src_rank);
  const int dn = node_of(dst_rank);
  if (sn == dn) return start_ns + config_.intra_latency_ns;

  const std::int64_t occupy = serialization_ns(bytes);
  Link& l = link(sn, dn);
  std::int64_t free_at = l.next_free_ns.load(std::memory_order_relaxed);
  std::int64_t start, end;
  do {
    start = free_at > start_ns ? free_at : start_ns;
    end = start + occupy;
  } while (!l.next_free_ns.compare_exchange_weak(free_at, end,
                                                 std::memory_order_acq_rel));
  return end + config_.inter_latency_ns;
}

}  // namespace jhpc::netsim
