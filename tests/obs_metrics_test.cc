// Observability registry: counter/gauge/histogram semantics, handle
// identity, enabled-gating, thread safety of the record path, and a
// JSON round-trip through a minimal in-test parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "tests/json_test_util.h"

namespace ickpt::obs {
namespace {

// The registry is process-global and never unregisters, so every test
// uses its own metric names and treats pre-existing metrics as
// background noise.

TEST(ObsCounterTest, IncrementAndReset) {
  auto& c = registry().counter("test.counter.basic");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounterTest, GetOrCreateReturnsSameObject) {
  auto& a = registry().counter("test.counter.identity");
  auto& b = registry().counter("test.counter.identity");
  EXPECT_EQ(&a, &b);
  auto& other = registry().counter("test.counter.identity2");
  EXPECT_NE(&a, &other);
}

TEST(ObsGaugeTest, UpdateTracksHighWater) {
  auto& g = registry().gauge("test.gauge.hw");
  g.reset();
  g.update(5);
  g.update(17);
  g.update(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 17);
}

TEST(ObsHistogramTest, BucketIndexByBitWidth) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kBuckets - 1);
}

TEST(ObsHistogramTest, PowerOfTwoBoundariesAreDeterministic) {
  // Exact powers of two open a new bucket: 2^k has bit width k+1, so
  // it is the first value of bucket k+1, and bucket_lo/bucket_hi agree
  // with bucket_index about where every boundary lies.
  for (int k = 0; k < 63; ++k) {
    const std::uint64_t v = 1ull << k;
    const int idx = Histogram::bucket_index(v);
    EXPECT_EQ(idx, std::min(k + 1, Histogram::kBuckets - 1)) << "k=" << k;
    EXPECT_GE(v, Histogram::bucket_lo(idx)) << "k=" << k;
    EXPECT_LE(v, Histogram::bucket_hi(idx)) << "k=" << k;
    if (v > 1) {
      // The predecessor lands one bucket down, never shares the bucket.
      EXPECT_EQ(Histogram::bucket_index(v - 1), idx - 1) << "k=" << k;
      EXPECT_EQ(Histogram::bucket_hi(idx - 1), v - 1) << "k=" << k;
      EXPECT_EQ(Histogram::bucket_lo(idx), v) << "k=" << k;
    }
  }
}

TEST(ObsHistogramTest, QuantileOnEmptyAndExtremeArgs) {
  auto& h = registry().histogram("test.hist.q_empty", Unit::kNone);
  h.reset();
  EXPECT_EQ(h.approx_quantile(-1.0), 0.0);
  EXPECT_EQ(h.approx_quantile(0.0), 0.0);
  EXPECT_EQ(h.approx_quantile(0.5), 0.0);
  EXPECT_EQ(h.approx_quantile(1.0), 0.0);
  EXPECT_EQ(h.approx_quantile(2.0), 0.0);
}

TEST(ObsHistogramTest, QuantileOfSingleSampleIsTheSample) {
  auto& h = registry().histogram("test.hist.q_single", Unit::kNone);
  h.reset();
  h.record(1000);  // bucket [512,1024): the old midpoint estimate
                   // overshot to 768..; min/max clamping answers 1000
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.approx_quantile(q), 1000.0) << "q=" << q;
  }
}

TEST(ObsHistogramTest, QuantileStaysWithinObservedRange) {
  auto& h = registry().histogram("test.hist.q_range", Unit::kNone);
  h.reset();
  // Saturate the top bucket: without clamping, the midpoint of
  // [2^62, ~0] overflows past max().
  h.record(~0ull);
  h.record(~0ull - 1);
  EXPECT_EQ(h.approx_quantile(0.99), static_cast<double>(h.max()));
  h.record(3);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(h.approx_quantile(q), static_cast<double>(h.min()));
    EXPECT_LE(h.approx_quantile(q), static_cast<double>(h.max()));
  }
}

TEST(ObsHistogramTest, StatsAndQuantiles) {
  auto& h = registry().histogram("test.hist.stats", Unit::kNone);
  h.reset();
  for (int i = 0; i < 100; ++i) h.record(10);   // bucket 4: [8,16)
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket 10: [512,1024)
  EXPECT_EQ(h.count(), 110u);
  EXPECT_EQ(h.sum(), 100u * 10 + 10u * 1000);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), (100.0 * 10 + 10.0 * 1000) / 110.0, 1e-9);
  // p50 lands in the low bucket, p99 in the high one; the estimate is
  // the bucket's geometric midpoint so assert the bucket, not the
  // exact value.
  EXPECT_GE(h.approx_quantile(0.5), 8.0);
  EXPECT_LT(h.approx_quantile(0.5), 16.0);
  EXPECT_GE(h.approx_quantile(0.99), 512.0);
  EXPECT_LT(h.approx_quantile(0.99), 1024.0);
}

TEST(ObsHistogramTest, EmptyHistogramIsZeroed) {
  auto& h = registry().histogram("test.hist.empty", Unit::kNone);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.approx_quantile(0.5), 0.0);
}

TEST(ObsRegistryTest, ThreadedIncrementsAreExact) {
  auto& c = registry().counter("test.counter.threads");
  auto& h = registry().histogram("test.hist.threads", Unit::kNone);
  c.reset();
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(7);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------ JSON round-trip

using testutil::JsonParser;
using testutil::JsonValue;

TEST(ObsJsonTest, SnapshotRoundTrips) {
  registry().counter("test.json.counter").reset();
  registry().counter("test.json.counter").inc(1234);
  auto& g = registry().gauge("test.json.gauge");
  g.reset();
  g.update(77);
  g.update(50);
  auto& h = registry().histogram("test.json.hist", Unit::kNanoseconds);
  h.reset();
  for (int i = 0; i < 5; ++i) h.record(100);

  auto snap = registry().snapshot();
  const std::string json = snap.to_json();

  JsonParser parser(json);
  JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  ASSERT_TRUE(root.object.count("enabled"));
  EXPECT_EQ(root.object["enabled"].kind, JsonValue::Kind::kBool);

  auto& counters = root.object["counters"];
  ASSERT_EQ(counters.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(counters.object.count("test.json.counter")) << json;
  EXPECT_DOUBLE_EQ(counters.object["test.json.counter"].number, 1234.0);

  auto& gauges = root.object["gauges"];
  ASSERT_EQ(gauges.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(gauges.object.count("test.json.gauge"));
  EXPECT_DOUBLE_EQ(gauges.object["test.json.gauge"].object["value"].number,
                   50.0);
  EXPECT_DOUBLE_EQ(gauges.object["test.json.gauge"].object["max"].number,
                   77.0);

  auto& hists = root.object["histograms"];
  ASSERT_EQ(hists.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(hists.object.count("test.json.hist"));
  auto& hv = hists.object["test.json.hist"];
  EXPECT_EQ(hv.object["unit"].str, "ns");
  EXPECT_DOUBLE_EQ(hv.object["count"].number, 5.0);
  EXPECT_DOUBLE_EQ(hv.object["sum"].number, 500.0);
  EXPECT_DOUBLE_EQ(hv.object["min"].number, 100.0);
  EXPECT_DOUBLE_EQ(hv.object["max"].number, 100.0);
  // 100 has bit width 7, so the only non-empty bucket is [64,128).
  ASSERT_EQ(hv.object["buckets"].array.size(), 1u);
  EXPECT_DOUBLE_EQ(hv.object["buckets"].array[0].array[0].number, 7.0);
  EXPECT_DOUBLE_EQ(hv.object["buckets"].array[0].array[1].number, 5.0);
}

TEST(ObsJsonTest, EscapesSpecialCharacters) {
  registry().counter("test.json.\"quoted\"\\name").inc();
  const std::string json = registry().to_json();
  JsonParser parser(json);
  JsonValue root = parser.parse();
  ASSERT_FALSE(parser.failed()) << json;
  EXPECT_TRUE(
      root.object["counters"].object.count("test.json.\"quoted\"\\name"))
      << json;
}

TEST(ObsSnapshotTest, TableListsEveryMetric) {
  registry().counter("test.table.counter").inc();
  registry().histogram("test.table.hist", Unit::kNanoseconds).record(5);
  auto table = registry().snapshot().table("t");
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test.table.counter"), std::string::npos);
  EXPECT_NE(out.find("test.table.hist"), std::string::npos);
}

}  // namespace
}  // namespace ickpt::obs
