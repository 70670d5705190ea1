// Self-contained static HTML dashboard over the perf archive: one file,
// zero external fetches (all CSS inline, charts are inline SVG, data is
// embedded in <script type="application/json"> blocks), so it can be
// attached to a PR, served from a dumb file host, or opened from disk.
//
// Anatomy (DESIGN.md §12):
//   header      archive path, record count, host classes seen
//   per bench   one table: metric x host-class rows with an SVG sparkline
//               of the series, n / median / noise band, latest value and
//               its delta vs the median, and the trend verdict badge
//   latest      the most recent record's identity (fingerprints, git sha)
//               plus, when that record is a run report: its windowed
//               timeline rendered as a per-processor heatmap and its host
//               profile rendered as an expandable span tree ("flamegraph
//               data"), both also embedded as raw JSON
#pragma once

#include <string>
#include <vector>

#include "src/archive/trend.h"

namespace zc::archive {

struct DashboardOptions {
  std::string title = "zcomm perf dashboard";
  double band_sigmas = 3.0;
  double rel_floor = 0.10;
  int max_points = 200;  ///< sparkline tail length per series
};

/// Renders the dashboard HTML for `records` (typically Archive::read_all).
std::string render_dashboard(const std::vector<Envelope>& records,
                             const DashboardOptions& opts = {});

}  // namespace zc::archive
