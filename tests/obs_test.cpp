// The observability subsystem: pvar registry semantics, trace-ring
// overflow, transport/collective instrumentation counts, and the Chrome
// trace JSON round-tripped through a real parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/obs/hist.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/obs/recorder.hpp"
#include "jhpc/obs/waitstate.hpp"
#include "jhpc/support/error.hpp"
#include "jhpc/support/paths.hpp"

namespace jhpc::obs {
namespace {

// --- PvarRegistry ----------------------------------------------------------

TEST(PvarRegistryTest, RegisterAddReadTotal) {
  PvarRegistry reg(3);
  const PvarId msgs = reg.register_pvar("t.msgs", PvarClass::kCounter, "x");
  reg.add(msgs, 0, 2);
  reg.add(msgs, 1, 5);
  reg.add(msgs, 2, 1);
  EXPECT_EQ(reg.read(msgs, 0), 2);
  EXPECT_EQ(reg.read(msgs, 1), 5);
  EXPECT_EQ(reg.read(msgs, 2), 1);
  EXPECT_EQ(reg.total(msgs), 8);
}

TEST(PvarRegistryTest, RegistrationIsIdempotent) {
  PvarRegistry reg(2);
  const PvarId a = reg.register_pvar("t.same", PvarClass::kCounter, "first");
  const PvarId b = reg.register_pvar("t.same", PvarClass::kLevel, "second");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(reg.size(), 1u);
  reg.add(a, 0, 1);
  reg.add(b, 0, 1);
  EXPECT_EQ(reg.read(a, 0), 2);
}

TEST(PvarRegistryTest, RaiseKeepsHighWaterMark) {
  PvarRegistry reg(1);
  const PvarId depth = reg.register_pvar("t.hwm", PvarClass::kLevel, "x");
  reg.raise(depth, 0, 4);
  reg.raise(depth, 0, 2);  // lower: ignored
  EXPECT_EQ(reg.read(depth, 0), 4);
  reg.raise(depth, 0, 9);
  EXPECT_EQ(reg.read(depth, 0), 9);
}

TEST(PvarRegistryTest, InvalidHandleIsInert) {
  PvarRegistry reg(1);
  PvarId none;  // default-constructed: invalid
  EXPECT_FALSE(none.valid());
  reg.add(none, 0, 5);
  reg.raise(none, 0, 5);
  EXPECT_EQ(reg.read(none, 0), 0);
  EXPECT_EQ(reg.total(none), 0);
  EXPECT_FALSE(reg.find("t.never_registered").valid());
}

TEST(PvarRegistryTest, SnapshotAndReset) {
  PvarRegistry reg(2);
  const PvarId a = reg.register_pvar("t.a", PvarClass::kCounter, "da");
  const PvarId t = reg.register_pvar("t.t", PvarClass::kTimer, "dt");
  reg.add(a, 0, 3);
  reg.add(t, 1, 1500);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "t.a");
  EXPECT_EQ(snap[0].values, (std::vector<std::int64_t>{3, 0}));
  EXPECT_EQ(snap[0].total, 3);
  EXPECT_EQ(snap[1].cls, PvarClass::kTimer);
  EXPECT_EQ(snap[1].values, (std::vector<std::int64_t>{0, 1500}));
  reg.reset_values();
  EXPECT_EQ(reg.read(a, 0), 0);
  EXPECT_EQ(reg.read(t, 1), 0);
  EXPECT_EQ(reg.size(), 2u);  // registrations survive
}

TEST(PvarRegistryTest, ConcurrentRegisterAndUpdate) {
  // The contract the transport relies on: registration is find-or-create
  // from any thread, updates are lock-free. Run under
  // -DJHPC_SANITIZE=thread (ctest -L obs) to race-check it.
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  PvarRegistry reg(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const PvarId id =
          reg.register_pvar("t.shared", PvarClass::kCounter, "x");
      const PvarId mine = reg.register_pvar("t.rank" + std::to_string(t),
                                            PvarClass::kCounter, "x");
      for (int i = 0; i < kAdds; ++i) {
        reg.add(id, t, 1);
        reg.add(mine, t, 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.total(reg.find("t.shared")),
            static_cast<std::int64_t>(kThreads) * kAdds);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.read(reg.find("t.rank" + std::to_string(t)), t), kAdds);
  }
}

// --- TraceRing -------------------------------------------------------------

TEST(TraceRingTest, KeepsEventsInOrderBelowCapacity) {
  TraceRing ring(8);
  ring.push({"a", 10, true});
  ring.push({"a", 20, false});
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_STREQ(evs[0].name, "a");
  EXPECT_TRUE(evs[0].is_begin);
  EXPECT_EQ(evs[1].vtime_ns, 20);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, OverflowDropsOldestAndCounts) {
  TraceRing ring(4);
  for (std::int64_t i = 0; i < 7; ++i)
    ring.push({"e", i, i % 2 == 0});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);  // events 0,1,2 evicted
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(evs[i].vtime_ns, static_cast<std::int64_t>(i) + 3);
}

TEST(TraceRingTest, ClearResetsEverything) {
  TraceRing ring(2);
  ring.push({"a", 1, true});
  ring.push({"a", 2, false});
  ring.push({"a", 3, true});
  EXPECT_EQ(ring.dropped(), 1u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

// --- A minimal JSON parser for the round-trip test -------------------------

struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    EXPECT_TRUE(it != obj.end()) << "missing key: " << key;
    static const Json kEmpty;
    return it != obj.end() ? it->second : kEmpty;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes after JSON value";
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void expect(char c) {
    ASSERT_OK(peek() == c);
    ++pos_;
  }
  static void ASSERT_OK(bool ok) { ASSERT_TRUE(ok) << "malformed JSON"; }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': literal("null"); return Json{};
      default: return number();
    }
  }
  Json object() {
    Json v; v.kind = Json::kObj;
    expect('{');
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      Json key = string_value();
      expect(':');
      v.obj[key.str] = value();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }
  Json array() {
    Json v; v.kind = Json::kArr;
    expect('[');
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.arr.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }
  Json string_value() {
    Json v; v.kind = Json::kStr;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            ASSERT_OK(pos_ + 4 <= s_.size());
            c = static_cast<char>(
                std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc; break;
        }
      }
      v.str.push_back(c);
    }
    expect('"');
    return v;
  }
  Json boolean() {
    Json v; v.kind = Json::kBool;
    if (s_[pos_] == 't') { literal("true"); v.boolean = true; }
    else { literal("false"); }
    return v;
  }
  Json number() {
    Json v; v.kind = Json::kNum;
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) != 0 ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    ASSERT_OK(end > pos_);
    v.number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }
  void literal(const char* lit) {
    const std::string want(lit);
    ASSERT_OK(s_.compare(pos_, want.size(), want) == 0);
    pos_ += want.size();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// --- Transport instrumentation --------------------------------------------

using minimpi::Comm;
using minimpi::Status;
using minimpi::Universe;
using minimpi::UniverseConfig;

UniverseConfig traced_config(int ranks, const std::string& trace_path) {
  UniverseConfig cfg;
  cfg.world_size = ranks;
  cfg.obs = ObsConfig{};  // discard env so the test is hermetic
  cfg.obs.trace_path = trace_path;
  return cfg;
}

TEST(TransportPvarsTest, CountsMessagesBytesAndProtocols) {
  UniverseConfig cfg = traced_config(2, testing::TempDir() + "p2p.json");
  cfg.eager_limit = 64;  // 16-byte sends go eager, 256-byte go rendezvous
  std::int64_t sent = -1, eager = -1, rndv = -1, sent_bytes = -1;
  std::int64_t recvd = -1, recvd_bytes = -1, wait_count = -1;
  Universe::launch(cfg, [&](Comm& world) {
    std::vector<char> small(16, 'x'), large(256, 'y');
    if (world.rank() == 0) {
      for (int i = 0; i < 3; ++i)
        world.send(small.data(), small.size(), 1, 7);
      for (int i = 0; i < 2; ++i)
        world.send(large.data(), large.size(), 1, 7);
      char ack = 0;
      world.recv(&ack, sizeof(ack), 1, 8);
      PvarRegistry& reg = *world.pvars();
      sent = reg.read(reg.find("mpi.msgs_sent"), 0);
      eager = reg.read(reg.find("mpi.eager_sent"), 0);
      rndv = reg.read(reg.find("mpi.rndv_sent"), 0);
      sent_bytes = reg.read(reg.find("mpi.bytes_sent"), 0);
      recvd = reg.read(reg.find("mpi.msgs_recvd"), 1);
      recvd_bytes = reg.read(reg.find("mpi.bytes_recvd"), 1);
      wait_count = reg.total(reg.find("mpi.wait_count"));
    } else {
      std::vector<char> buf(256);
      for (int i = 0; i < 5; ++i)
        world.recv(buf.data(), buf.size(), 0, 7);
      const char ack = 1;
      world.send(&ack, sizeof(ack), 0, 8);
    }
  });
  EXPECT_EQ(sent, 5);
  EXPECT_EQ(eager, 3);
  EXPECT_EQ(rndv, 2);
  EXPECT_EQ(sent_bytes, 3 * 16 + 2 * 256);
  EXPECT_EQ(recvd, 5);
  EXPECT_EQ(recvd_bytes, 3 * 16 + 2 * 256);
  EXPECT_GT(wait_count, 0);
}

TEST(TransportPvarsTest, UnexpectedQueueHighWaterMark) {
  UniverseConfig cfg = traced_config(2, testing::TempDir() + "uq.json");
  std::int64_t hwm = -1;
  Universe::launch(cfg, [&](Comm& world) {
    char token = 0;
    if (world.rank() == 0) {
      // Rank 1 only ever posts a recv for the "go" tag until it arrives,
      // and same-pair messages are non-overtaking, so the three payload
      // sends are parked in its unexpected queue first. The go message
      // itself may or may not land unexpected too, depending on thread
      // timing.
      for (int i = 0; i < 3; ++i)
        world.send(&token, sizeof(token), 1, i);
      world.send(&token, sizeof(token), 1, 9);  // go
      world.recv(&token, sizeof(token), 1, 10);  // ack: rank 1 drained
      PvarRegistry& reg = *world.pvars();
      hwm = reg.read(reg.find("mpi.unexpected_hwm"), 1);
    } else {
      world.recv(&token, sizeof(token), 0, 9);  // go
      for (int i = 0; i < 3; ++i)
        world.recv(&token, sizeof(token), 0, i);
      world.send(&token, sizeof(token), 0, 10);  // ack
    }
  });
  EXPECT_GE(hwm, 3);
  EXPECT_LE(hwm, 4);
}

TEST(TransportPvarsTest, DisabledByDefaultAndZeroObservableState) {
  UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.eager_limit = 64;
  cfg.obs = ObsConfig{};  // no pvars, no trace: fully disabled
  Universe::launch(cfg, [&](Comm& world) {
    EXPECT_EQ(world.pvars(), nullptr);
    EXPECT_EQ(world.recorder(), nullptr);
    // Drive every instrumented site (eager, rendezvous, unexpected
    // matches, waits, collectives) with observability off: the null
    // pointer must carry histograms, wait states, the comm matrix and
    // the flight recorder along with the older counters.
    std::vector<char> small(16, 'a'), large(256, 'b'), buf(256);
    if (world.rank() == 0) {
      world.send(small.data(), small.size(), 1, 1);
      world.send(large.data(), large.size(), 1, 2);
    } else {
      world.recv(buf.data(), buf.size(), 0, 2);  // forces an unexpected
      world.recv(buf.data(), buf.size(), 0, 1);  // queue traversal
    }
    world.barrier();
  });
}

TEST(CollectivePvarsTest, BcastThresholdSelectsAlgorithm) {
  UniverseConfig cfg = traced_config(4, testing::TempDir() + "coll.json");
  cfg.suite = minimpi::CollectiveSuite::kMv2;
  std::int64_t binomial = -1, scatter_ring = -1, barrier_cnt = -1;
  Universe::launch(cfg, [&](Comm& world) {
    // Per-rank buffers: sharing one vector across rank threads would make
    // concurrent deliveries write the same bytes (a real data race).
    std::vector<char> small(64), large(64 * 1024);
    for (int i = 0; i < 3; ++i) world.bcast(small.data(), small.size(), 0);
    for (int i = 0; i < 2; ++i) world.bcast(large.data(), large.size(), 0);
    world.barrier();
    if (world.rank() == 0) {
      PvarRegistry& reg = *world.pvars();
      binomial = reg.total(reg.find("coll.bcast.binomial"));
      scatter_ring = reg.total(reg.find("coll.bcast.scatter_ring"));
      barrier_cnt = reg.read(reg.find("coll.barrier.dissemination"), 0);
    }
  });
  // Every rank counts each invocation once.
  EXPECT_EQ(binomial, 3 * 4);
  EXPECT_EQ(scatter_ring, 2 * 4);
  EXPECT_EQ(barrier_cnt, 1);
}

TEST(CollectivePvarsTest, BasicSuiteCountsLinearAlgorithms) {
  UniverseConfig cfg = traced_config(3, testing::TempDir() + "basic.json");
  cfg.suite = minimpi::CollectiveSuite::kOmpiBasic;
  std::int64_t linear = -1, binomial = -1;
  Universe::launch(cfg, [&](Comm& world) {
    int v = world.rank();
    world.bcast(&v, sizeof(v), 0);
    world.barrier();
    if (world.rank() == 0) {
      PvarRegistry& reg = *world.pvars();
      linear = reg.total(reg.find("coll.bcast.linear"));
      binomial = reg.total(reg.find("coll.bcast.binomial"));
    }
  });
  EXPECT_EQ(linear, 3);
  EXPECT_EQ(binomial, 0);
}

// --- Chrome trace round-trip -----------------------------------------------

TEST(ChromeTraceTest, RoundTripsThroughParserWithStrictNesting) {
  const std::string path = testing::TempDir() + "roundtrip.json";
  UniverseConfig cfg = traced_config(2, path);
  Universe::launch(cfg, [](Comm& world) {
    std::vector<char> buf(512);
    if (world.rank() == 0) {
      world.send(buf.data(), buf.size(), 1, 1);
      world.recv(buf.data(), buf.size(), 1, 2);
    } else {
      world.recv(buf.data(), buf.size(), 0, 1);
      world.send(buf.data(), buf.size(), 0, 2);
    }
    world.barrier();
  });

  const Json root = JsonParser(slurp(path)).parse();
  ASSERT_EQ(root.kind, Json::kObj);
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArr);
  ASSERT_FALSE(events.arr.empty());

  std::map<int, std::vector<std::string>> open_stacks;
  std::map<int, double> last_ts;
  int metadata = 0, durations = 0;
  for (const Json& ev : events.arr) {
    ASSERT_EQ(ev.kind, Json::kObj);
    const std::string ph = ev.at("ph").str;
    const int tid = static_cast<int>(ev.at("tid").number);
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").str, "thread_name");
      continue;
    }
    ++durations;
    const double ts = ev.at("ts").number;
    EXPECT_GE(ts, last_ts[tid]) << "timestamps must be non-decreasing";
    last_ts[tid] = ts;
    if (ph == "B") {
      open_stacks[tid].push_back(ev.at("name").str);
    } else {
      ASSERT_EQ(ph, "E");
      ASSERT_FALSE(open_stacks[tid].empty())
          << "E without matching B on tid " << tid;
      EXPECT_EQ(open_stacks[tid].back(), ev.at("name").str)
          << "B/E must nest strictly";
      open_stacks[tid].pop_back();
    }
  }
  EXPECT_EQ(metadata, 2);  // one thread_name record per rank
  EXPECT_GT(durations, 0);
  for (const auto& [tid, stack] : open_stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST(ChromeTraceTest, OverflowedRingStillProducesBalancedJson) {
  // A tiny ring forces eviction mid-span; the writer must repair the
  // stream into strictly-nested B/E pairs anyway.
  const std::string path = testing::TempDir() + "overflow.json";
  UniverseConfig cfg = traced_config(2, path);
  cfg.obs.trace_capacity = 8;
  Universe::launch(cfg, [](Comm& world) {
    char token = 0;
    for (int i = 0; i < 50; ++i) {
      if (world.rank() == 0) {
        world.send(&token, sizeof(token), 1, 1);
        world.recv(&token, sizeof(token), 1, 2);
      } else {
        world.recv(&token, sizeof(token), 0, 1);
        world.send(&token, sizeof(token), 0, 2);
      }
    }
  });

  const Json root = JsonParser(slurp(path)).parse();
  std::map<int, int> depth;
  for (const Json& ev : root.at("traceEvents").arr) {
    const std::string ph = ev.at("ph").str;
    const int tid = static_cast<int>(ev.at("tid").number);
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
}

// --- Recorder + finalize summary -------------------------------------------

TEST(RecorderTest, SummaryTableReportsTracerCounters) {
  ObsConfig cfg;
  cfg.pvars = true;
  cfg.trace_path = testing::TempDir() + "summary.json";
  cfg.trace_capacity = 4;
  Recorder rec(cfg, 2);
  const PvarId id =
      rec.pvars().register_pvar("t.c", PvarClass::kCounter, "x");
  rec.pvars().add(id, 1, 3);
  for (int i = 0; i < 6; ++i) rec.begin(0, "s", i);
  // The tracer self-reports through real pvars: the recorded-event count
  // (not the retained ring size) and the eviction count, so overflow is
  // visible in the summary and in raw reads alike.
  EXPECT_EQ(rec.pvars().read(rec.pvars().find("obs.trace.events"), 0), 6);
  EXPECT_EQ(rec.pvars().read(rec.pvars().find("obs.trace.dropped"), 0), 2);
  EXPECT_EQ(rec.dropped_events(), 2u);
  const Table table = rec.summary_table();
  ASSERT_GE(table.rows(), 3u);
  auto row_named = [&table](const std::string& name)
      -> const std::vector<std::string>* {
    for (const auto& row : table.data())
      if (!row.empty() && row[0] == name) return &row;
    return nullptr;
  };
  const auto* events = row_named("obs.trace.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ((*events)[2], "6");  // rank 0 recorded (4 retained + 2 dropped)
  const auto* dropped = row_named("obs.trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ((*dropped)[2], "2");
  rec.reset();
  EXPECT_EQ(rec.pvars().read(id, 1), 0);
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(RecorderTest, EnvCapacityKnobsRejectNonPositiveValues) {
  struct EnvGuard {
    explicit EnvGuard(const char* n) : name(n) {}
    ~EnvGuard() { ::unsetenv(name); }
    const char* name;
  };
  {
    EnvGuard g("JHPC_TRACE_CAPACITY");
    ::setenv(g.name, "0", 1);
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
    ::setenv(g.name, "-3", 1);
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
    ::setenv(g.name, "abc", 1);
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
    ::setenv(g.name, "128", 1);
    EXPECT_EQ(minimpi::UniverseConfig{}.obs.trace_capacity, 128u);
  }
  {
    EnvGuard g("JHPC_FLIGHT_RECORDER_CAPACITY");
    ::setenv(g.name, "0", 1);
    EXPECT_THROW(minimpi::UniverseConfig{}, jhpc::InvalidArgumentError);
    ::setenv(g.name, "32", 1);
    EXPECT_EQ(minimpi::UniverseConfig{}.obs.flight_capacity, 32u);
  }
}

// --- Bindings query API -----------------------------------------------------

TEST(BindingsPvarsTest, Mv2jEnvExposesPoolAndTransportPvars) {
  mv2j::RunOptions opts;
  opts.ranks = 2;
  opts.obs = ObsConfig{};
  opts.obs.trace_path = testing::TempDir() + "mv2j.json";
  opts.pool.min_capacity = 256;
  std::int64_t requests = -1, hits = -1, misses = -1, msgs = -1;
  mv2j::run(opts, [&](mv2j::Env& env) {
    auto& world = env.COMM_WORLD();
    // Arrays stage through the mpjbuf pool: first use misses (fresh
    // direct buffer), repeats hit.
    auto arr = env.newArray<minijvm::jint>(64);
    for (int iter = 0; iter < 4; ++iter) {
      if (world.getRank() == 0) {
        world.send(arr, 64, mv2j::INT, 1, 5);
      } else {
        world.recv(arr, 64, mv2j::INT, 0, 5);
      }
    }
    world.barrier();
    if (world.getRank() == 0) {
      ASSERT_NE(env.pvars(), nullptr);
      requests = env.readPvar("mpjbuf.pool.requests");
      hits = env.readPvar("mpjbuf.pool.hits");
      misses = env.readPvar("mpjbuf.pool.misses");
      msgs = env.readPvar("mpi.msgs_sent");
      // The histogram query API (MPI.T-style): eager-send latency was
      // charged to this sending rank, in raw virtual nanoseconds.
      const HistReading h = env.readHistogram("hist.eager_send");
      EXPECT_GE(h.count, 4);
      EXPECT_GE(h.max, env.histogramPercentile("hist.eager_send", 50));
      EXPECT_EQ(env.readHistogram("no.such.histogram").count, 0);
      // Registry and the pool's own stats must agree.
      const auto st = env.pool().stats();
      EXPECT_EQ(static_cast<std::uint64_t>(requests), st.requests);
      EXPECT_EQ(static_cast<std::uint64_t>(hits), st.pool_hits);
      EXPECT_EQ(static_cast<std::uint64_t>(misses), st.pool_misses);
    }
  });
  EXPECT_GE(requests, 4);  // one staging buffer per arrays send
  EXPECT_GE(misses, 1);    // the first request allocates fresh
  EXPECT_GE(hits, 1);      // later requests reuse the returned buffer
  EXPECT_EQ(requests, hits + misses);
  EXPECT_GE(msgs, 4);
}

// The binding-level engine switch reaches the native dispatch: a bcast
// under hier_collectives moves payload over the single-copy path, and
// the same job without the switch must not touch it.
TEST(BindingsPvarsTest, Mv2jHierCollectivesCountSingleCopies) {
  for (const bool hier : {true, false}) {
    mv2j::RunOptions opts;
    opts.ranks = 4;
    opts.fabric.ranks_per_node = 4;  // one node: pure intra-node fan-out
    opts.hier_collectives = hier;
    opts.obs = ObsConfig{};
    opts.obs.trace_path = testing::TempDir() +
                          (hier ? "mv2j_hier.json" : "mv2j_flat.json");
    std::int64_t copies = -1;
    mv2j::run(opts, [&](mv2j::Env& env) {
      auto& world = env.COMM_WORLD();
      auto arr = env.newArray<minijvm::jint>(64);
      world.bcast(arr, 64, mv2j::INT, 0);
      world.barrier();
      if (world.getRank() == 0) {
        // Copies are charged to the consuming members, so read the
        // job-wide total, not rank 0's slot.
        PvarRegistry& reg = *env.pvars();
        copies = reg.total(reg.find("coll.hier.single_copy"));
      }
    });
    if (hier) {
      EXPECT_GT(copies, 0);
    } else {
      EXPECT_EQ(copies, 0);
    }
  }
}

TEST(BindingsPvarsTest, ReadPvarIsZeroWhenDisabled) {
  mv2j::RunOptions opts;
  opts.ranks = 1;
  opts.obs = ObsConfig{};  // disabled
  mv2j::run(opts, [&](mv2j::Env& env) {
    EXPECT_EQ(env.pvars(), nullptr);
    EXPECT_EQ(env.readPvar("mpi.msgs_sent"), 0);
    EXPECT_EQ(env.readHistogram("hist.wait").count, 0);
    EXPECT_EQ(env.histogramPercentile("hist.wait", 99), 0);
  });
}

// --- Histograms ------------------------------------------------------------

TEST(HistTest, BucketIndexIsExactLogBucketing) {
  // Two buckets per octave: index 2k for [2^k, 1.5*2^k), 2k+1 for the
  // upper half-octave. 0 and 1 get their own buckets.
  EXPECT_EQ(hist_bucket_index(-5), 0u);
  EXPECT_EQ(hist_bucket_index(0), 0u);
  EXPECT_EQ(hist_bucket_index(1), 1u);
  EXPECT_EQ(hist_bucket_index(2), 2u);
  EXPECT_EQ(hist_bucket_index(3), 3u);
  EXPECT_EQ(hist_bucket_index(4), 4u);
  EXPECT_EQ(hist_bucket_index(5), 4u);
  EXPECT_EQ(hist_bucket_index(6), 5u);
  EXPECT_EQ(hist_bucket_index(7), 5u);
  EXPECT_EQ(hist_bucket_index(8), 6u);
  EXPECT_EQ(hist_bucket_index(11), 6u);
  EXPECT_EQ(hist_bucket_index(12), 7u);
  EXPECT_EQ(hist_bucket_index(1000), 19u);  // [768, 1024)
  EXPECT_EQ(hist_bucket_index(1023), 19u);
  EXPECT_EQ(hist_bucket_index(1024), 20u);
  // The largest int64 still fits the fixed bucket array.
  EXPECT_LT(hist_bucket_index(std::numeric_limits<std::int64_t>::max()),
            kHistBuckets);
}

TEST(HistTest, BucketFloorInvertsTheIndex) {
  EXPECT_EQ(hist_bucket_floor(0), 0);
  EXPECT_EQ(hist_bucket_floor(1), 1);
  EXPECT_EQ(hist_bucket_floor(2), 2);
  EXPECT_EQ(hist_bucket_floor(5), 6);
  EXPECT_EQ(hist_bucket_floor(6), 8);
  EXPECT_EQ(hist_bucket_floor(7), 12);
  EXPECT_EQ(hist_bucket_floor(19), 768);
  for (std::int64_t v : {1, 2, 3, 5, 17, 1000, 123456789}) {
    const std::size_t idx = hist_bucket_index(v);
    EXPECT_LE(hist_bucket_floor(idx), v) << "v=" << v;
    EXPECT_GT(hist_bucket_floor(idx + 1), v) << "v=" << v;
  }
}

TEST(HistTest, RegistryRecordsDecodesAndMerges) {
  PvarRegistry reg(2);
  const PvarId h =
      reg.register_pvar("t.h", PvarClass::kHistogram, "x");
  reg.record(h, 0, 100);
  reg.record(h, 0, 100);
  reg.record(h, 0, 3);
  reg.record(h, 1, 5000);
  // read() of a histogram is its sample count.
  EXPECT_EQ(reg.read(h, 0), 3);
  EXPECT_EQ(reg.read(h, 1), 1);
  const HistReading r0 = reg.read_hist(h, 0);
  EXPECT_EQ(r0.count, 3);
  EXPECT_EQ(r0.sum, 203);
  EXPECT_EQ(r0.max, 100);
  EXPECT_EQ(r0.buckets[hist_bucket_index(100)], 2);
  EXPECT_EQ(r0.buckets[hist_bucket_index(3)], 1);
  const HistReading all = reg.hist_total(h);
  EXPECT_EQ(all.count, 4);
  EXPECT_EQ(all.sum, 5203);
  EXPECT_EQ(all.max, 5000);
  reg.reset_values();
  EXPECT_EQ(reg.read_hist(h, 0).count, 0);
  EXPECT_EQ(reg.read_hist(h, 0).sum, 0);
  // Non-histogram pvars decode as empty; record() on them is ignored.
  const PvarId c = reg.register_pvar("t.c2", PvarClass::kCounter, "x");
  reg.record(c, 0, 9);
  EXPECT_EQ(reg.read(c, 0), 0);
  EXPECT_EQ(reg.read_hist(c, 0).count, 0);
}

TEST(HistTest, PercentilesAreExactOnKnownDistribution) {
  HistReading r;
  EXPECT_EQ(r.percentile(50), 0);  // empty
  PvarRegistry reg(1);
  const PvarId h = reg.register_pvar("t.p", PvarClass::kHistogram, "x");
  for (int i = 0; i < 100; ++i) reg.record(h, 0, 100);
  reg.record(h, 0, 10000);
  const HistReading hist = reg.read_hist(h, 0);
  // 101 samples: ranks 1..100 live in bucket [96,128) (floor 96), rank
  // 101 in 10000's bucket. Percentiles report the bucket lower bound;
  // p100 is the exact observed max.
  EXPECT_EQ(hist.percentile(50), 96);
  EXPECT_EQ(hist.percentile(90), 96);
  EXPECT_EQ(hist.percentile(99), 96);
  EXPECT_EQ(hist.percentile(100), 10000);
  EXPECT_DOUBLE_EQ(hist.mean(), (100.0 * 100 + 10000) / 101);
}

TEST(PvarRegistryTest, UnitsFollowTheContract) {
  PvarRegistry reg(1);
  const PvarId c = reg.register_pvar("t.cnt", PvarClass::kCounter, "x");
  const PvarId t = reg.register_pvar("t.tmr", PvarClass::kTimer, "x");
  const PvarId h = reg.register_pvar("t.hst", PvarClass::kHistogram, "x");
  const PvarId b = reg.register_pvar("t.byt", PvarClass::kCounter, "x",
                                     PvarUnit::kBytes);
  reg.add(t, 0, 1500);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].unit, PvarUnit::kNone);
  // Timers and histograms default to virtual nanoseconds, and raw reads
  // return those raw units (only rendered tables convert to us).
  EXPECT_EQ(snap[1].unit, PvarUnit::kNanoseconds);
  EXPECT_EQ(snap[2].unit, PvarUnit::kNanoseconds);
  EXPECT_EQ(snap[3].unit, PvarUnit::kBytes);
  EXPECT_EQ(reg.read(t, 0), 1500);
  EXPECT_STREQ(pvar_unit_name(PvarUnit::kNanoseconds), "ns");
  EXPECT_TRUE(reg.has_histograms());
  (void)c;
  (void)h;
  (void)b;
}

// The coll.hier.* pvars are registered up front (engine selection is
// per-config), so their unit contract must hold on every universe, even
// one that never runs the hier engine: copy counts are unitless
// counters, copied volume is a byte counter, and flag-wait time is a
// virtual-nanosecond timer. Tools keying on unit metadata (the rendered
// pvar table, trace consumers) rely on this.
TEST(PvarRegistryTest, HierPvarsCarryContractUnits) {
  UniverseConfig cfg =
      traced_config(2, testing::TempDir() + "hier_units.json");
  bool copies_ok = false, bytes_ok = false, wait_ok = false;
  Universe::launch(cfg, [&](Comm& world) {
    if (world.rank() != 0) return;
    for (const auto& r : world.pvars()->snapshot()) {
      if (r.name == "coll.hier.single_copy") {
        copies_ok =
            r.cls == PvarClass::kCounter && r.unit == PvarUnit::kNone;
      } else if (r.name == "coll.hier.single_copy_bytes") {
        bytes_ok =
            r.cls == PvarClass::kCounter && r.unit == PvarUnit::kBytes;
      } else if (r.name == "coll.hier.flag_wait_ns") {
        wait_ok =
            r.cls == PvarClass::kTimer && r.unit == PvarUnit::kNanoseconds;
      }
    }
  });
  EXPECT_TRUE(copies_ok) << "coll.hier.single_copy: counter, no unit";
  EXPECT_TRUE(bytes_ok) << "coll.hier.single_copy_bytes: counter, bytes";
  EXPECT_TRUE(wait_ok) << "coll.hier.flag_wait_ns: timer, nanoseconds";
}

// --- Wait-state classifier --------------------------------------------------

TEST(WaitStateTest, BarrierSkewChargedToEarlyRanks) {
  PvarRegistry reg(3);
  WaitState ws(reg);
  const std::vector<int> group{0, 1, 2};
  ws.coll_entry(0, group, 0, 100);
  ws.coll_entry(0, group, 1, 250);
  EXPECT_EQ(reg.total(reg.find("waitstate.wait_at_barrier_ns")), 0);
  ws.coll_entry(0, group, 2, 400);  // last arriver resolves the board
  const PvarId ns = reg.find("waitstate.wait_at_barrier_ns");
  const PvarId cnt = reg.find("waitstate.wait_at_barrier");
  EXPECT_EQ(reg.read(ns, 0), 300);
  EXPECT_EQ(reg.read(ns, 1), 150);
  EXPECT_EQ(reg.read(ns, 2), 0);
  EXPECT_EQ(reg.read(cnt, 0), 1);
  EXPECT_EQ(reg.read(cnt, 1), 1);
  EXPECT_EQ(reg.read(cnt, 2), 0);
  // A second collective on the same communicator opens a fresh board.
  ws.coll_entry(0, group, 2, 1000);
  ws.coll_entry(0, group, 1, 1000);
  ws.coll_entry(0, group, 0, 1010);
  EXPECT_EQ(reg.read(ns, 1), 150 + 10);
  EXPECT_EQ(reg.read(ns, 2), 10);
}

UniverseConfig det_pvars_config(int ranks) {
  UniverseConfig cfg;
  cfg.world_size = ranks;
  cfg.deterministic_clock = true;
  cfg.obs = ObsConfig{};  // discard env so the test is hermetic
  cfg.obs.pvars = true;
  return cfg;
}

TEST(WaitStateTest, PostedReceiveClassifiesAsLateSender) {
  // The receive is posted at virtual time ~0; the data cannot arrive
  // before the modelled hop latency, so the receiver idles: late sender.
  UniverseConfig cfg = det_pvars_config(2);
  std::int64_t ls = -1, ls_ns = -1, lr = -1;
  Universe::launch(cfg, [&](Comm& world) {
    char b = 0;
    if (world.rank() == 0) {
      world.send(&b, sizeof(b), 1, 7);
    } else {
      world.recv(&b, sizeof(b), 0, 7);
      PvarRegistry& reg = *world.pvars();
      ls = reg.read(reg.find("waitstate.late_sender"), 1);
      ls_ns = reg.read(reg.find("waitstate.late_sender_ns"), 1);
      lr = reg.total(reg.find("waitstate.late_receiver"));
    }
  });
  EXPECT_EQ(ls, 1);
  EXPECT_GT(ls_ns, 0);
  EXPECT_EQ(lr, 0);
}

TEST(WaitStateTest, UnexpectedMessageClassifiesAsLateReceiver) {
  // Rank 0 sends tag 1 then tag 2; rank 1 receives tag 2 first. Same-pair
  // FIFO link occupancy delivers tag 2 strictly after tag 1 (one node per
  // rank so each eager payload really serializes onto the wire), and the
  // tag-2 completion advances rank 1's virtual clock past the parked
  // tag-1 message's arrival: when its receive is finally posted the data
  // has been sitting in the unexpected queue — late receiver.
  UniverseConfig cfg = det_pvars_config(2);
  cfg.fabric.ranks_per_node = 1;
  std::int64_t lr = -1, lr_ns = -1;
  Universe::launch(cfg, [&](Comm& world) {
    std::vector<char> b(4096, 'x');
    if (world.rank() == 0) {
      world.send(b.data(), b.size(), 1, 1);
      world.send(b.data(), b.size(), 1, 2);
    } else {
      world.recv(b.data(), b.size(), 0, 2);
      world.recv(b.data(), b.size(), 0, 1);
      PvarRegistry& reg = *world.pvars();
      lr = reg.read(reg.find("waitstate.late_receiver"), 1);
      lr_ns = reg.read(reg.find("waitstate.late_receiver_ns"), 1);
    }
  });
  EXPECT_EQ(lr, 1);
  EXPECT_GT(lr_ns, 0);
}

TEST(WaitStateTest, CollectiveEntrySkewChargedInJob) {
  // Ranks 0 and 1 exchange a message before the barrier (their virtual
  // clocks advance past the hop latency); ranks 2 and 3 enter at ~0 and
  // absorb the skew as wait-at-barrier time.
  UniverseConfig cfg = det_pvars_config(4);
  std::int64_t skew_cnt = -1, skew_ns = -1;
  Universe::launch(cfg, [&](Comm& world) {
    char b = 0;
    if (world.rank() == 0) world.send(&b, sizeof(b), 1, 3);
    if (world.rank() == 1) world.recv(&b, sizeof(b), 0, 3);
    world.barrier();
    if (world.rank() == 0) {
      PvarRegistry& reg = *world.pvars();
      skew_cnt = reg.total(reg.find("waitstate.wait_at_barrier"));
      skew_ns = reg.total(reg.find("waitstate.wait_at_barrier_ns"));
    }
  });
  EXPECT_GE(skew_cnt, 2);  // at least the two idle ranks were early
  EXPECT_GT(skew_ns, 0);
}

TEST(WaitStateTest, TransportHistogramsCollectSamples) {
  UniverseConfig cfg = det_pvars_config(2);
  cfg.eager_limit = 64;
  std::int64_t wait_n = -1, eager_n = -1, rndv_n = -1, eager_p100 = -1;
  Universe::launch(cfg, [&](Comm& world) {
    std::vector<char> small(16, 'x'), large(256, 'y');
    if (world.rank() == 0) {
      for (int i = 0; i < 3; ++i)
        world.send(small.data(), small.size(), 1, 7);
      world.send(large.data(), large.size(), 1, 7);
      char ack = 0;
      world.recv(&ack, sizeof(ack), 1, 8);
      PvarRegistry& reg = *world.pvars();
      wait_n = reg.total(reg.find("hist.wait"));
      eager_n = reg.read(reg.find("hist.eager_send"), 0);
      rndv_n = reg.read(reg.find("hist.rndv_send"), 0);
      eager_p100 = reg.hist_total(reg.find("hist.eager_send")).percentile(100);
    } else {
      std::vector<char> buf(256);
      for (int i = 0; i < 4; ++i)
        world.recv(buf.data(), buf.size(), 0, 7);
      const char ack = 1;
      world.send(&ack, sizeof(ack), 0, 8);
    }
  });
  EXPECT_GT(wait_n, 0);
  EXPECT_EQ(eager_n, 3);  // latency charged to the sending rank
  EXPECT_EQ(rndv_n, 1);
  EXPECT_GT(eager_p100, 0);  // eager latency includes the modelled hop
}

// --- Communication matrix ---------------------------------------------------

TEST(CommMatrixTest, RecordsPairsAndRendersTables) {
  CommMatrix m(3);
  m.record(0, 1, 64);
  m.record(0, 1, 64);
  m.record(2, 0, 128);
  EXPECT_EQ(m.msgs(0, 1), 2);
  EXPECT_EQ(m.bytes(0, 1), 128);
  EXPECT_EQ(m.msgs(1, 0), 0);
  const Table pairs = m.to_pairs_table();
  ASSERT_EQ(pairs.rows(), 2u);  // only nonzero pairs
  EXPECT_EQ(pairs.data()[0],
            (std::vector<std::string>{"0", "1", "2", "128"}));
  EXPECT_EQ(pairs.data()[1],
            (std::vector<std::string>{"2", "0", "1", "128"}));
  m.reset();
  EXPECT_EQ(m.msgs(0, 1), 0);
  EXPECT_EQ(m.to_pairs_table().rows(), 0u);
}

TEST(CommMatrixTest, RingExchangeProducesSymmetricCsv) {
  const std::string csv = testing::TempDir() + "matrix.csv";
  UniverseConfig cfg = det_pvars_config(4);
  cfg.obs.comm_matrix = true;
  cfg.obs.comm_matrix_csv = csv;
  Universe::launch(cfg, [&](Comm& world) {
    const int n = world.size();
    const int next = (world.rank() + 1) % n;
    const int prev = (world.rank() + n - 1) % n;
    std::vector<char> out(32, 'z'), in(32);
    minimpi::Request r = world.irecv(in.data(), in.size(), prev, 5);
    world.send(out.data(), out.size(), next, 5);
    r.wait();
    // The sender thread records its own deliveries, so this rank's own
    // outgoing pair is visible immediately.
    ASSERT_NE(world.recorder(), nullptr);
    const CommMatrix* m = world.recorder()->matrix();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->msgs(world.rank(), next), 1);
    EXPECT_EQ(m->bytes(world.rank(), next), 32);
  });
  // The finalize CSV has every pair; the ring is symmetric under
  // rotation: each rank sent exactly one 32-byte message to its
  // successor and nothing anywhere else.
  std::ifstream f(csv);
  ASSERT_TRUE(f.good()) << "missing " << csv;
  std::string line;
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, "src,dst,msgs,bytes");
  std::map<std::pair<int, int>, std::pair<int, int>> got;
  while (std::getline(f, line)) {
    int src, dst, msgs, bytes;
    ASSERT_EQ(std::sscanf(line.c_str(), "%d,%d,%d,%d", &src, &dst, &msgs,
                          &bytes),
              4)
        << line;
    got[{src, dst}] = {msgs, bytes};
  }
  ASSERT_EQ(got.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const auto it = got.find({r, (r + 1) % 4});
    ASSERT_TRUE(it != got.end()) << "missing pair " << r;
    EXPECT_EQ(it->second.first, 1);
    EXPECT_EQ(it->second.second, 32);
  }
}

// --- Machine-readable pvar dump ---------------------------------------------

TEST(PvarsJsonTest, DumpParsesAndCarriesHistogramsAndMatrix) {
  const std::string path = testing::TempDir() + "pvars.json";
  UniverseConfig cfg = det_pvars_config(2);
  cfg.obs.comm_matrix = true;
  cfg.obs.pvars_json_path = path;
  Universe::launch(cfg, [&](Comm& world) {
    char b = 0;
    if (world.rank() == 0) {
      world.send(&b, sizeof(b), 1, 7);
    } else {
      world.recv(&b, sizeof(b), 0, 7);
    }
  });
  const Json root = JsonParser(slurp(path)).parse();
  ASSERT_EQ(root.kind, Json::kObj);
  EXPECT_EQ(static_cast<int>(root.at("ranks").number), 2);
  const Json& pvars = root.at("pvars");
  ASSERT_EQ(pvars.kind, Json::kArr);
  bool saw_sent = false;
  for (const Json& p : pvars.arr) {
    if (p.at("name").str != "mpi.msgs_sent") continue;
    saw_sent = true;
    EXPECT_EQ(p.at("class").str, "counter");
    ASSERT_EQ(p.at("values").arr.size(), 2u);
    EXPECT_EQ(static_cast<int>(p.at("values").arr[0].number), 1);
    EXPECT_EQ(static_cast<int>(p.at("total").number), 1);
  }
  EXPECT_TRUE(saw_sent);
  const Json& hists = root.at("histograms");
  ASSERT_EQ(hists.kind, Json::kArr);
  bool saw_wait = false;
  for (const Json& h : hists.arr) {
    if (h.at("name").str != "hist.wait") continue;
    saw_wait = true;
    EXPECT_EQ(h.at("unit").str, "ns");
    EXPECT_GE(h.at("count").number, 1.0);
    EXPECT_GE(h.at("max").number, h.at("p50").number);
  }
  EXPECT_TRUE(saw_wait);
  const Json& matrix = root.at("comm_matrix");
  ASSERT_EQ(matrix.kind, Json::kArr);
  ASSERT_EQ(matrix.arr.size(), 1u);
  EXPECT_EQ(static_cast<int>(matrix.arr[0].at("src").number), 0);
  EXPECT_EQ(static_cast<int>(matrix.arr[0].at("dst").number), 1);
  EXPECT_EQ(static_cast<int>(matrix.arr[0].at("msgs").number), 1);
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndReportsInvolvedRanks) {
  FlightRecorder fr(8, 3);
  EXPECT_TRUE(fr.on());
  EXPECT_TRUE(fr.empty());
  fr.record(0, {100, 64, 1, 7, FlightKind::kEagerSend});
  fr.record(1, {150, 64, 0, 7, FlightKind::kMatch});
  fr.record(1, {900, 3, 0, -1, FlightKind::kTimeout});
  EXPECT_FALSE(fr.empty());
  const auto evs = fr.events(1);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, FlightKind::kMatch);
  EXPECT_EQ(evs[1].vtime_ns, 900);
  const std::string rep = fr.report();
  EXPECT_NE(rep.find("involved ranks: 0 1"), std::string::npos);
  EXPECT_NE(rep.find("rank 0:"), std::string::npos);
  EXPECT_NE(rep.find("eager_send"), std::string::npos);
  EXPECT_NE(rep.find("timeout"), std::string::npos);
  EXPECT_NE(rep.find("seq=3"), std::string::npos);
  EXPECT_EQ(rep.find("rank 2:"), std::string::npos);  // recorded nothing
  fr.clear();
  EXPECT_TRUE(fr.empty());
  EXPECT_TRUE(fr.report().empty());
}

TEST(FlightRecorderTest, OverflowKeepsTheMostRecentEvents) {
  FlightRecorder fr(2, 1);
  for (std::int64_t i = 0; i < 5; ++i)
    fr.record(0, {i, 0, -1, -1, FlightKind::kPost});
  const auto evs = fr.events(0);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].vtime_ns, 3);
  EXPECT_EQ(evs[1].vtime_ns, 4);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  FlightRecorder fr(0, 4);
  EXPECT_FALSE(fr.on());
  fr.record(0, {1, 0, -1, -1, FlightKind::kKill});
  EXPECT_TRUE(fr.empty());
  EXPECT_TRUE(fr.events(0).empty());
  EXPECT_TRUE(fr.report().empty());
}

// --- path_with_tag (used by fig11 and per-series trace naming) --------------

TEST(PathWithTagTest, InsertsBeforeExtension) {
  EXPECT_EQ(path_with_tag("results/fig11.csv", "overhead"),
            "results/fig11.overhead.csv");
  EXPECT_EQ(path_with_tag("trace.json", "mv2j_buffer"),
            "trace.mv2j_buffer.json");
  EXPECT_EQ(path_with_tag("noext", "t"), "noext.t");
  EXPECT_EQ(path_with_tag("dir.v2/noext", "t"), "dir.v2/noext.t");
  EXPECT_EQ(path_with_tag(".hidden", "t"), ".hidden.t");
}

}  // namespace
}  // namespace jhpc::obs
