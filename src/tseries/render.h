// Terminal rendering of the windowed series: the per-processor utilization
// heatmap behind `comm_explorer --timeline`. Pure formatting — every number
// shown is an accessor away on the series itself.
#pragma once

#include <string>

#include "src/tseries/tseries.h"

namespace zc::tseries {

/// ASCII heatmap: one row per simulated processor, one column per used
/// window, glyph by busy fraction ((cpu + compute) / window width, the
/// "doing work" share), followed by aggregate per-window rows for wait and
/// exposed wire time and the conserved channel totals. `title` labels the
/// run (e.g. "tomcatv/pl, 16 procs").
[[nodiscard]] std::string heatmap(const SimSeries& series, const std::string& title);

}  // namespace zc::tseries
