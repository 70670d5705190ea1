// The append-only perf-history store: one envelope (envelope.h) per line
// of a JSON-lines file. Append never rewrites existing bytes, so the
// archive survives concurrent benches and interrupted runs; readers skip
// blank lines and surface (rather than die on) unparseable ones.
//
// On top of the raw records sits the metric view: any payload (today the
// zcomm-run-report) flattens into named numeric metrics with a measurement
// direction, so trend statistics and regression gates (trend.h) work
// uniformly over it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/archive/envelope.h"

namespace zc::archive {

/// Which way "better" points for a metric, derived from its name:
/// durations (ns/s/seconds/ms suffixes) and counts regress upward,
/// throughputs/speedups/hit rates regress downward. Neutral metrics are
/// shown in trends but never gated.
enum class Direction { kLowerIsBetter, kHigherIsBetter, kNeutral };

Direction direction_for(const std::string& metric);

/// One extracted measurement: `metric` is a dotted path within the payload
/// ("tomcatv/pl.median_ns", "plan_cache_hit_rate").
struct Measurement {
  std::string metric;
  double value = 0.0;
  Direction direction = Direction::kNeutral;
};

/// Flattens the gateable numeric metrics out of an envelope's payload.
/// Container blocks that are per-run telemetry rather than measurements
/// (metrics snapshots, pass provenance, profiles, timelines, attribution)
/// are skipped.
std::vector<Measurement> extract_metrics(const Envelope& e);

/// Time-range / identity filter for reads. Empty string = no constraint;
/// bench/metric match by substring, host_class matches exactly.
struct Query {
  std::string bench;
  std::string metric;      ///< applied by callers that look at measurements
  std::string host_class;  ///< exact match ("" = all classes)
  long long since_unix = 0;
  long long until_unix = 0;  ///< 0 = open-ended

  [[nodiscard]] bool matches(const Envelope& e) const;
};

class Archive {
 public:
  explicit Archive(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Appends one record (compact single-line JSON + '\n'). Creates the
  /// file on first use; throws zc::Error when the path cannot be opened.
  void append(const Envelope& e) const;

  /// Every parseable record, in file (= chronological append) order. A
  /// missing file reads as empty. Unparseable lines are counted into
  /// `skipped` (when non-null), never thrown past.
  [[nodiscard]] std::vector<Envelope> read_all(int* skipped = nullptr) const;

  /// read_all filtered by `q` (bench/host_class/time range).
  [[nodiscard]] std::vector<Envelope> select(const Query& q, int* skipped = nullptr) const;

 private:
  std::string path_;
};

}  // namespace zc::archive
