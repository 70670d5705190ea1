// A small in-process metrics registry: named counters (monotonic),
// gauges (last value wins), and fixed-bucket histograms, published into by
// the driver, the simulation engine, and the optimizer passes, and exposed
// as text (`name value` lines) or JSON for run reports.
//
// The registry is deliberately simple: no label sets, no time series — it
// answers "what has this process done so far", which is what the run reports
// snapshot. Publishing happens at per-plan / per-run granularity, never per
// message, so the cost is negligible and the simulation's timing and
// numerics are untouched.
//
// Threading: one mutex guards a Registry. Publishing is rare (per plan, per
// run) and the hot concurrent publisher — the parallel sweep — never shares
// one: the subsystems publish into Registry::current(), a thread-local
// redirect that defaults to the process-wide global(), and the sweep engine
// (src/exec) installs a private registry per worker task via ScopedRegistry
// and merges the per-task registries into the submitter's at join, in
// submission order — so sweep totals are deterministic regardless of how
// tasks were scheduled. Exposition renders from the name-sorted maps, so it
// is deterministic too.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.h"

namespace zc::metrics {

/// A fixed-bucket histogram: counts per inclusive upper bound plus an
/// overflow bucket, with exact count/sum/min/max.
struct Histogram {
  std::vector<double> bounds;    ///< sorted inclusive upper bounds
  std::vector<long long> buckets;///< bounds.size() + 1 (last = overflow)
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< valid when count > 0
  double max = 0.0;  ///< valid when count > 0

  void observe(double value);

  /// Estimates the q-quantile (q in [0, 1]) by linear interpolation within
  /// the bucket holding the target rank, clamped to [min, max] so the
  /// overflow bucket and sparse edges cannot extrapolate beyond observed
  /// values. Exact when samples are spread one per bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

class Registry {
 public:
  /// Adds `delta` (default 1) to the named counter, creating it at 0.
  void count(std::string_view name, long long delta = 1);

  /// Sets the named gauge to `value` (last write wins).
  void gauge(std::string_view name, double value);

  /// Records `value` into the named histogram. The first observation fixes
  /// the bucket bounds: the given `bounds` if non-empty, else powers of two
  /// 1..2^20. Later `bounds` arguments are ignored.
  void observe(std::string_view name, double value, std::vector<double> bounds = {});

  [[nodiscard]] long long counter(std::string_view name) const;  ///< 0 if absent
  [[nodiscard]] double gauge_value(std::string_view name) const; ///< 0 if absent
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  [[nodiscard]] bool empty() const;

  void reset();

  /// Text exposition: one deterministic `kind name value` line per metric
  /// (histograms expand to their aggregate plus one line per bucket).
  [[nodiscard]] std::string to_text() const;

  /// JSON exposition: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {bounds, buckets, count, sum, min, max}}}.
  [[nodiscard]] json::Value to_json() const;

  /// Folds another registry into this one: counters add, gauges take the
  /// other's value (last write wins, and `other` is the later run), and
  /// histograms add bucket-wise when the bounds match — on a bounds mismatch
  /// the other's samples fold into this histogram's aggregate and overflow
  /// bucket rather than being dropped. Merging a registry into itself is a
  /// no-op.
  void merge_from(const Registry& other);

  /// The process-wide registry.
  static Registry& global();

  /// The registry this thread publishes into: global() unless a
  /// ScopedRegistry redirect is active.
  static Registry& current();

 private:
  friend class ScopedRegistry;

  /// The registry's name-sorted maps; copied out whole for exposition and
  /// snapshot-then-apply merging.
  struct Maps {
    std::map<std::string, long long, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
  };

  [[nodiscard]] Maps snapshot() const;

  mutable std::mutex mu_;
  Maps maps_;
};

/// RAII redirect of Registry::current() for this thread — the sweep engine
/// wraps each task in one so every run publishes into its own registry.
/// Nests (restores the previous redirect on destruction).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace zc::metrics
