// Span tracing: ring claim/publish semantics under wraparound and
// concurrent emitters, name interning, obs::Stage scopes (one clock
// read per edge feeding the histogram and the span), bench phases
// built from stage histograms, the Chrome trace-event export, and the
// async-signal-safe emit path driven by a real SIGSEGV from the
// mprotect engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/page.h"
#include "memtrack/mprotect_engine.h"
#include "obs/stage.h"
#include "tests/json_test_util.h"

namespace ickpt::obs {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

TEST(TraceNameTest, InterningIsStableAndDecodes) {
  const std::uint16_t a = trace_name("test.trace.alpha", TraceCat::kCkpt);
  const std::uint16_t b = trace_name("test.trace.beta", TraceCat::kRestore);
  ASSERT_NE(a, 0);
  ASSERT_NE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(trace_name("test.trace.alpha", TraceCat::kCkpt), a);
  EXPECT_EQ(trace_name_string(a), "test.trace.alpha");
  EXPECT_EQ(trace_name_cat(a), TraceCat::kCkpt);
  EXPECT_EQ(trace_name_string(b), "test.trace.beta");
  EXPECT_EQ(trace_name_cat(b), TraceCat::kRestore);
  EXPECT_EQ(trace_name_string(0), "?");
  EXPECT_EQ(trace_name_cat(0), TraceCat::kOther);
}

TEST(TraceRingTest, HoldsEventsInEmitOrder) {
  const std::uint16_t id = trace_name("test.trace.order");
  TraceRing ring(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.emit(ticks(), id, TracePhase::kInstant, i, i * 2);
  }
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].name_id, id);
    EXPECT_EQ(events[i].arg0, i);
    EXPECT_EQ(events[i].arg1, i * 2);
    EXPECT_EQ(events[i].phase, TracePhase::kInstant);
    if (i > 0) EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceRingTest, WraparoundKeepsTheMostRecentEvents) {
  const std::uint16_t id = trace_name("test.trace.wrap");
  TraceRing ring(8);  // minimum capacity
  ASSERT_EQ(ring.capacity(), 8u);
  const std::uint64_t total = 8 * 5 + 3;  // several revolutions
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.emit(ticks(), id, TracePhase::kInstant, i);
  }
  EXPECT_EQ(ring.emitted(), total);
  EXPECT_EQ(ring.dropped(), total - 8);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Exactly the newest 8, oldest first.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].seq, total - 8 + i);
    EXPECT_EQ(events[i].arg0, total - 8 + i);
  }
}

TEST(TraceRingTest, ReadRecentTruncatesToMax) {
  const std::uint16_t id = trace_name("test.trace.recent");
  TraceRing ring(32);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.emit(ticks(), id, TracePhase::kInstant, i);
  }
  TraceEvent out[5];
  const std::size_t n = ring.read_recent(out, 5);
  ASSERT_EQ(n, 5u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].arg0, 15 + i);  // the 5 newest
  }
  EXPECT_EQ(ring.read_recent(nullptr, 5), 0u);
  EXPECT_EQ(ring.read_recent(out, 0), 0u);
}

TEST(TraceRingTest, ConcurrentEmittersLoseNothingWhenSized) {
  // 4 threads x 4096 events into a 32768-slot ring: nothing wraps, so
  // every event must come out exactly once with its payload intact.
  // Run under TSan this doubles as the emit/read race check.
  const std::uint16_t id = trace_name("test.trace.mt");
  TraceRing ring(1u << 15);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 4096;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, id, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.emit(ticks(), id, TracePhase::kInstant,
                  static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.emitted(), kThreads * kPerThread);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::set<std::uint64_t> args;
  std::set<std::uint32_t> tids;
  for (const auto& e : events) {
    args.insert(e.arg0);
    tids.insert(e.tid);
  }
  EXPECT_EQ(args.size(), kThreads * kPerThread);  // no duplicates, no loss
  EXPECT_EQ(tids.size(), kThreads);
}

TEST(TraceRingTest, ConcurrentReadersSkipTornSlots) {
  // Hammer a tiny ring from two writers while a reader snapshots: the
  // reader must only ever observe fully-published events (payload
  // matches the claimed name id), never garbage.
  const std::uint16_t id = trace_name("test.trace.torn");
  TraceRing ring(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.emit(ticks(), id, TracePhase::kInstant, i, ~i);
        ++i;
      }
    });
  }
  for (int r = 0; r < 2000; ++r) {
    TraceEvent out[8];
    const std::size_t n = ring.read_recent(out, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].name_id, id);
      EXPECT_EQ(out[i].arg1, ~out[i].arg0);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// ------------------------------------------------------------- stages

/// The events of span `id` emitted at or after ring sequence `seq0`.
std::vector<TraceEvent> events_of(std::uint16_t id, std::uint64_t seq0) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : trace_ring()->snapshot()) {
    if (e.seq >= seq0 && e.name_id == id) out.push_back(e);
  }
  return out;
}

TEST(StageTest, RegistersHistogramAndSpanUnderOneName) {
  Stage& s = stage("test.stage.names", TraceCat::kCkpt);
  EXPECT_EQ(&stage("test.stage.names", TraceCat::kCkpt), &s);
  EXPECT_EQ(&s.histogram(), &registry().histogram("test.stage.names_ns"));
  const std::uint16_t id = trace_name("test.stage.names");
  EXPECT_EQ(trace_name_cat(id), TraceCat::kCkpt);
  const auto all = stages();
  EXPECT_EQ(std::count(all.begin(), all.end(), &s), 1);
}

TEST(StageTest, RecordsWhenEnabled) {
  Stage& s = stage("test.stage.on");
  s.histogram().reset();
  set_enabled(true);
  { auto scope = s.begin(); }
  EXPECT_EQ(s.histogram().count(), 1u);
}

TEST(StageTest, SkipsWhenDisabled) {
  Stage& s = stage("test.stage.off");
  s.histogram().reset();
  set_enabled(false);
  { auto scope = s.begin(); }
  set_enabled(true);
  EXPECT_EQ(s.histogram().count(), 0u);
}

TEST(StageTest, CancelAndIdempotentEnd) {
  Stage& s = stage("test.stage.cancel");
  s.histogram().reset();
  {
    auto scope = s.begin();
    scope.cancel();
  }
  EXPECT_EQ(s.histogram().count(), 0u);
  {
    auto scope = s.begin();
    scope.end();
    scope.end();  // second end must not double-record
  }
  EXPECT_EQ(s.histogram().count(), 1u);
}

TEST(StageTest, MovedScopeEndsOnce) {
  Stage& s = stage("test.stage.move");
  s.histogram().reset();
  {
    Stage::Scope held;
    held = s.begin();
    Stage::Scope taken(std::move(held));
  }
  EXPECT_EQ(s.histogram().count(), 1u);
}

TEST(StageTest, SpanEdgesAreTheHistogramsClockReads) {
  Stage& s = stage("test.stage.same_clock");
  s.histogram().reset();
  start_tracing();
  // Past the 1 ms calibration baseline, so the tick slope is cached
  // and the histogram and the ring export convert with the same one.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t seq0 = trace_ring()->emitted();
  {
    auto scope = s.begin(7);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    scope.end(8, 9);
  }
  stop_tracing();
  ASSERT_EQ(s.histogram().count(), 1u);
  const auto ev = events_of(trace_name("test.stage.same_clock"), seq0);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].phase, TracePhase::kBegin);
  EXPECT_EQ(ev[0].arg0, 7u);
  EXPECT_EQ(ev[1].phase, TracePhase::kEnd);
  EXPECT_EQ(ev[1].arg0, 8u);
  EXPECT_EQ(ev[1].arg1, 9u);
  const std::uint64_t span_ns = ev[1].ts_ns - ev[0].ts_ns;
  const std::uint64_t hist_ns = s.histogram().sum();
  EXPECT_GE(hist_ns, 200'000u);
  // Each edge is converted to ns on its own: +-1 ns of rounding.
  EXPECT_LE(std::max(span_ns, hist_ns) - std::min(span_ns, hist_ns), 1u)
      << "span " << span_ns << " ns vs histogram " << hist_ns << " ns";
}

TEST(StageTest, CancelClosesTheSpanButRecordsNothing) {
  Stage& s = stage("test.stage.cancel_traced");
  s.histogram().reset();
  start_tracing();
  const std::uint64_t seq0 = trace_ring()->emitted();
  {
    auto scope = s.begin(1);
    scope.cancel();
  }
  stop_tracing();
  EXPECT_EQ(s.histogram().count(), 0u);
  const auto ev = events_of(trace_name("test.stage.cancel_traced"), seq0);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].phase, TracePhase::kBegin);
  EXPECT_EQ(ev[1].phase, TracePhase::kEnd);
}

TEST(BenchJsonTest, PhasesCountEveryScopeOfTheArm) {
  bench::BenchArgs args;
  bench::BenchJson json("unit", args);
  Stage& s = stage("test.bench.scope", TraceCat::kBench);
  Stage& idle = stage("test.bench.idle", TraceCat::kBench);
  { auto before = idle.begin(); }  // ran before any arm: in no phase
  const std::uint64_t sum0 = s.histogram().sum();
  // Tracing on: 80 000 events, far past the ring's capacity.
  start_tracing();
  constexpr std::uint64_t kScopes = 40'000;
  json.run_arm("many", 0, [&] {
    for (std::uint64_t i = 0; i < kScopes; ++i) {
      auto scope = s.begin(i);
    }
  });
  json.run_arm("few", 0, [&] {
    for (int i = 0; i < 3; ++i) {
      auto scope = s.begin();
    }
  });
  stop_tracing();
  ASSERT_GT(2 * kScopes, TraceRing::kDefaultCapacity);

  const std::string doc = json.to_json();
  JsonParser parser(doc);
  JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed());
  auto& arms = root.object["arms"].array;
  ASSERT_EQ(arms.size(), 2u);
  // Phase `n` of arm `a` as {count, total_ns}; {0, 0} when absent.
  auto phase = [&arms](std::size_t a, const std::string& n) {
    for (auto& p : arms[a].object["phases"].array) {
      if (p.object["name"].str == n) {
        return std::pair<double, double>(p.object["count"].number,
                                         p.object["total_ns"].number);
      }
    }
    return std::pair<double, double>(0, 0);
  };
  EXPECT_EQ(phase(0, "test.bench.scope").first, static_cast<double>(kScopes));
  EXPECT_EQ(phase(1, "test.bench.scope").first, 3);
  EXPECT_EQ(phase(0, "test.bench.scope").second +
                phase(1, "test.bench.scope").second,
            static_cast<double>(s.histogram().sum() - sum0));
  EXPECT_EQ(phase(0, "test.bench.idle").first, 0);
}

TEST(TraceExportTest, ChromeJsonParsesAndCarriesFields) {
  const std::uint16_t id = trace_name("test.export.span", TraceCat::kBench);
  std::vector<TraceEvent> events;
  TraceEvent b;
  b.name_id = id;
  b.phase = TracePhase::kBegin;
  b.ts_ns = 1234567;  // 1234.567 us
  b.tid = 42;
  b.arg0 = 7;
  b.arg1 = 9;
  TraceEvent e = b;
  e.phase = TracePhase::kEnd;
  e.ts_ns = 2234567;
  TraceEvent inst = b;
  inst.phase = TracePhase::kInstant;
  inst.ts_ns = 3000000;
  events = {b, e, inst};

  const std::string json = chrome_trace_json(events);
  JsonParser parser(json);
  JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;
  auto& arr = root.object["traceEvents"];
  ASSERT_EQ(arr.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(arr.array.size(), 3u);
  EXPECT_EQ(arr.array[0].object["name"].str, "test.export.span");
  EXPECT_EQ(arr.array[0].object["cat"].str, "bench");
  EXPECT_EQ(arr.array[0].object["ph"].str, "B");
  EXPECT_DOUBLE_EQ(arr.array[0].object["ts"].number, 1234.567);
  EXPECT_DOUBLE_EQ(arr.array[0].object["tid"].number, 42.0);
  EXPECT_DOUBLE_EQ(arr.array[0].object["args"].object["arg0"].number, 7.0);
  EXPECT_EQ(arr.array[1].object["ph"].str, "E");
  EXPECT_EQ(arr.array[2].object["ph"].str, "i");
  EXPECT_EQ(arr.array[2].object["s"].str, "t");
}

// --------------------------------------------- process ring + fault path

TEST(TraceProcessTest, EmitRequiresTracingOn) {
  Stage& gate = stage("test.process.gate");
  const std::uint16_t id = trace_name("test.process.gate");
  start_tracing();
  TraceRing* ring = trace_ring();
  ASSERT_NE(ring, nullptr);
  const std::uint64_t before = ring->emitted();
  trace_instant(id, 1);
  EXPECT_EQ(ring->emitted(), before + 1);
  stop_tracing();
  trace_instant(id, 2);
  EXPECT_EQ(ring->emitted(), before + 1);
  { auto dead = gate.begin(); }  // begun while off: both edges elided
  EXPECT_EQ(ring->emitted(), before + 1);
  start_tracing();
  {
    auto scope = gate.begin(3);
    scope.end(4);
    scope.end(5);  // idempotent: no second end event
  }
  EXPECT_EQ(ring->emitted(), before + 3);
  stop_tracing();
}

TEST(TraceProcessTest, FaultHandlerEmitsFromSignalContext) {
  // A real SIGSEGV through the mprotect engine must land a
  // "memtrack.fault" instant in the process ring: the emit path runs
  // entirely inside the signal handler.
  const std::size_t psize = page_size();
  PageArena arena(8 * psize);
  arena.prefault();
  memtrack::MProtectEngine engine;
  ASSERT_TRUE(engine.attach(arena.span(), "data").is_ok());
  ASSERT_TRUE(engine.arm().is_ok());

  start_tracing();
  TraceRing* ring = trace_ring();
  ASSERT_NE(ring, nullptr);
  const std::uint64_t before = ring->emitted();
  arena.data()[0] = std::byte{1};          // faults, unprotects, emits
  arena.data()[psize * 3] = std::byte{1};  // a second page
  stop_tracing();

  EXPECT_GE(ring->emitted(), before + 2);
  auto events = ring->snapshot();
  int fault_events = 0;
  for (const auto& e : events) {
    if (e.seq < before) continue;
    if (trace_name_string(e.name_id) == "memtrack.fault") {
      ++fault_events;
      EXPECT_EQ(e.phase, TracePhase::kInstant);
      EXPECT_EQ(trace_name_cat(e.name_id), TraceCat::kMemtrack);
      EXPECT_GE(e.arg1, 1u);  // pages unprotected by this fault
    }
  }
  EXPECT_GE(fault_events, 2);
  ASSERT_TRUE(engine.collect(false).is_ok());
}

}  // namespace
}  // namespace ickpt::obs
