// Concurrency pins for metrics::Registry, written for the tsan tier: worker
// threads merge per-task scratch registries (the sweep engine's pattern) and
// observe histograms directly while text / JSON expositions render
// concurrently — none of that may race, and the totals must come out exact
// once the writers join.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/support/json.h"
#include "src/support/metrics.h"

namespace zc::metrics {
namespace {

const std::vector<double>& test_bounds() {
  static const std::vector<double> bounds = {0.001, 0.01, 0.1, 1.0};
  return bounds;
}

TEST(MetricsConcurrency, ScratchMergesAndScrapesRaceCleanly) {
  constexpr int kWriters = 8;
  constexpr int kMergesPerWriter = 40;

  Registry target;
  std::atomic<bool> stop{false};

  // Readers render every exposition format in a loop while writers merge —
  // snapshot-then-render must never observe a torn histogram.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = target.to_text();
      EXPECT_EQ(text.find("nan"), std::string::npos);
      (void)target.counter("requests");
      // Histograms are read through the locked JSON snapshot: the pointer
      // find_histogram returns is only for single-threaded inspection.
      const json::Value doc = target.to_json();
      const json::Value& hists = doc.at("histograms");
      if (hists.has("latency") && hists.at("latency").at("count").number > 0) {
        const json::Value& h = hists.at("latency");
        EXPECT_GE(h.at("p50").number, h.at("min").number);
        EXPECT_LE(h.at("p50").number, h.at("max").number);
      }
    }
  });

  {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kMergesPerWriter; ++i) {
          // The sweep task pattern: publish into a scratch registry
          // under a ScopedRegistry redirect, then fold it into the shared
          // one (snapshot-then-apply).
          Registry scratch;
          {
            ScopedRegistry scoped(scratch);
            Registry::current().count("requests");
            Registry::current().count("writer." + std::to_string(w));
            Registry::current().observe("latency", 0.001 * (i % 7), test_bounds());
            Registry::current().gauge("depth", static_cast<double>(i));
          }
          target.merge_from(scratch);
          // And the direct pattern: workers observing into the shared
          // registry with no redirect.
          target.observe("latency.direct", 0.05, test_bounds());
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  stop.store(true);
  scraper.join();

  // Exact totals once the writers join: counters add, histogram counts and
  // bucket sums agree with the number of observations.
  constexpr long long kTotal = static_cast<long long>(kWriters) * kMergesPerWriter;
  EXPECT_EQ(target.counter("requests"), kTotal);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(target.counter("writer." + std::to_string(w)), kMergesPerWriter);
  }
  const Histogram* merged = target.find_histogram("latency");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, kTotal);
  long long bucket_sum = 0;
  for (const long long b : merged->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kTotal) << "every observation lands in exactly one bucket";
  const Histogram* direct = target.find_histogram("latency.direct");
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(direct->count, kTotal);

  // The final expositions agree with the totals.
  const std::string text = target.to_text();
  EXPECT_NE(text.find("counter requests " + std::to_string(kTotal) + "\n"),
            std::string::npos);
  const json::Value doc = target.to_json();
  EXPECT_EQ(doc.at("histograms").at("latency").at("count").number,
            static_cast<double>(kTotal));
}

TEST(MetricsConcurrency, QuantilesStayWithinObservedRangeUnderMergeStorm) {
  Registry target;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        Registry scratch;
        // Values straddle every bucket including overflow.
        scratch.observe("q", 0.0005 * (t + 1), test_bounds());
        scratch.observe("q", 0.5, test_bounds());
        scratch.observe("q", 5.0, test_bounds());
        target.merge_from(scratch);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Histogram* h = target.find_histogram("q");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<long long>(kThreads) * kRounds * 3);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h->quantile(q);
    EXPECT_GE(v, h->min) << "q=" << q;
    EXPECT_LE(v, h->max) << "q=" << q << " (overflow must not extrapolate)";
  }
  EXPECT_DOUBLE_EQ(h->max, 5.0);
}

}  // namespace
}  // namespace zc::metrics
