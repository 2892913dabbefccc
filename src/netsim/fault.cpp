#include "jhpc/netsim/fault.hpp"

#include <cstddef>

#include "jhpc/support/error.hpp"
#include "jhpc/support/knobs.hpp"

namespace jhpc::netsim {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// "FROM-UNTIL" (or "FROM:UNTIL") -> the two bounds.
void parse_down_window(const std::string& s, char sep, LinkFaults* lf,
                       const std::string& where) {
  const std::size_t dash = s.find(sep);
  JHPC_REQUIRE(dash != std::string::npos,
               where + ": down window must be FROM" + sep + "UNTIL, got '" +
                   s + "'");
  try {
    std::size_t pos = 0;
    lf->down_from_ns = std::stoll(s.substr(0, dash), &pos);
    JHPC_REQUIRE(pos == dash, where + ": trailing garbage in down window");
    const std::string until = s.substr(dash + 1);
    lf->down_until_ns = std::stoll(until, &pos);
    JHPC_REQUIRE(pos == until.size(),
                 where + ": trailing garbage in down window");
  } catch (const std::logic_error&) {
    throw InvalidArgumentError(where + ": cannot parse down window '" + s +
                               "'");
  }
  JHPC_REQUIRE(lf->down_from_ns >= 0 && lf->down_until_ns >= 0,
               where + ": down window bounds must be non-negative");
}

}  // namespace

bool FaultPlan::enabled() const {
  if (link_defaults.active()) return true;
  for (const LinkOverride& o : overrides) {
    if (o.faults.active()) return true;
  }
  return false;
}

const LinkFaults& FaultPlan::link(int src_node, int dst_node) const {
  for (const LinkOverride& o : overrides) {
    if (o.src_node == src_node && o.dst_node == dst_node) return o.faults;
  }
  return link_defaults;
}

void FaultPlan::parse_down(const std::string& spec) {
  parse_down_window(spec, ':', &link_defaults, "$JHPC_FAULT_DOWN");
}

void FaultPlan::parse_kills(const std::string& spec) {
  const std::string where = "$JHPC_FAULT_KILL";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    const std::size_t at = clause.find('@');
    JHPC_REQUIRE(at != std::string::npos,
                 where + ": clause must be RANK@VNS, got '" + clause + "'");
    RankKill kill;
    try {
      std::size_t parsed = 0;
      kill.rank = std::stoi(clause.substr(0, at), &parsed);
      JHPC_REQUIRE(parsed == at, where + ": trailing garbage in rank");
      const std::string when = clause.substr(at + 1);
      kill.at_vns = std::stoll(when, &parsed);
      JHPC_REQUIRE(parsed == when.size(),
                   where + ": trailing garbage in kill time");
    } catch (const std::logic_error&) {
      throw InvalidArgumentError(where + ": cannot parse clause '" + clause +
                                 "'");
    }
    JHPC_REQUIRE(kill.rank >= 0, where + ": rank must be non-negative");
    JHPC_REQUIRE(kill.at_vns >= 0,
                 where + ": kill time must be non-negative");
    for (const RankKill& k : kills) {
      JHPC_REQUIRE(k.rank != kill.rank,
                   where + ": rank " + std::to_string(kill.rank) +
                       " listed twice");
    }
    kills.push_back(kill);
  }
}

void FaultPlan::parse_links(const std::string& spec) {
  const std::string where = "$JHPC_FAULT_LINKS";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    const std::size_t gt = clause.find('>');
    const std::size_t colon = clause.find(':', gt == std::string::npos
                                                     ? 0
                                                     : gt + 1);
    JHPC_REQUIRE(gt != std::string::npos && colon != std::string::npos &&
                     gt < colon,
                 where + ": clause must be SRC>DST:key=value[,...], got '" +
                     clause + "'");
    LinkOverride ov;
    try {
      ov.src_node = std::stoi(clause.substr(0, gt));
      ov.dst_node = std::stoi(clause.substr(gt + 1, colon - gt - 1));
    } catch (const std::logic_error&) {
      throw InvalidArgumentError(where + ": cannot parse link endpoints in '" +
                                 clause + "'");
    }
    JHPC_REQUIRE(ov.src_node >= 0 && ov.dst_node >= 0,
                 where + ": link endpoints must be non-negative");
    ov.faults = link_defaults;  // unspecified keys inherit the defaults

    std::size_t kpos = colon + 1;
    while (kpos <= clause.size()) {
      std::size_t kend = clause.find(',', kpos);
      if (kend == std::string::npos) kend = clause.size();
      const std::string kv = clause.substr(kpos, kend - kpos);
      kpos = kend + 1;
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      JHPC_REQUIRE(eq != std::string::npos,
                   where + ": expected key=value, got '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      // Each key takes the range of its JHPC_FAULT_* knob.
      if (key == "drop") {
        ov.faults.drop_prob = parse_knob<double>("JHPC_FAULT_DROP", val);
      } else if (key == "jitter") {
        ov.faults.jitter_ns =
            parse_knob<std::int64_t>("JHPC_FAULT_JITTER_NS", val);
      } else if (key == "down") {
        parse_down_window(val, '-', &ov.faults, where);
      } else if (key == "bw") {
        ov.faults.bandwidth_factor =
            parse_knob<double>("JHPC_FAULT_BW_FACTOR", val);
      } else {
        throw InvalidArgumentError(where + ": unknown key '" + key +
                                   "' (want drop|jitter|down|bw)");
      }
    }
    overrides.push_back(ov);
  }
}

std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t src,
                         std::uint64_t dst, std::uint64_t seq,
                         std::uint64_t attempt, std::uint64_t salt) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ (src + 0x517CC1B727220A95ull));
  h = splitmix64(h ^ (dst + 0x2545F4914F6CDD1Dull));
  h = splitmix64(h ^ seq);
  h = splitmix64(h ^ (attempt + (salt << 32)));
  return h;
}

double fault_uniform(std::uint64_t seed, std::uint64_t src, std::uint64_t dst,
                     std::uint64_t seq, std::uint64_t attempt,
                     std::uint64_t salt) {
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(
             fault_hash(seed, src, dst, seq, attempt, salt) >> 11) *
         (1.0 / 9007199254740992.0);
}

}  // namespace jhpc::netsim
