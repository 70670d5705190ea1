#include "src/tseries/render.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace zc::tseries {

namespace {

// Ten-step intensity ramp: index by round(fraction * 9).
constexpr const char kRamp[] = " .:-=+*#%@";

char glyph(double fraction) {
  const int step = static_cast<int>(std::lround(std::clamp(fraction, 0.0, 1.0) * 9.0));
  return kRamp[step];
}

std::string sci(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

}  // namespace

std::string heatmap(const SimSeries& s, const std::string& title) {
  std::ostringstream out;
  const int used = s.used_windows();
  const double w = s.window_width();
  out << "timeline: " << title << " — " << s.procs() << " procs, " << used << " window"
      << (used == 1 ? "" : "s") << " x " << sci(w) << " s (duration " << sci(s.duration())
      << " s)\n";
  out << "utilization = (cpu + compute) / window; ramp \"" << kRamp << "\" = 0..100%\n";
  for (int p = 0; p < s.procs(); ++p) {
    out << "  proc " << p << (p < 10 ? "  |" : " |");
    for (int i = 0; i < used; ++i) {
      const double busy =
          s.value(p, SimSeries::kCpu, i) + s.value(p, SimSeries::kCompute, i);
      out << glyph(busy / w);
    }
    out << "|\n";
  }
  // Aggregate rows: average over processors so the scale stays 0..1.
  const double procs = static_cast<double>(s.procs());
  for (const SimSeries::Channel c : {SimSeries::kWait, SimSeries::kWireExposed}) {
    out << (c == SimSeries::kWait ? "  wait    |" : "  exposed |");
    for (int i = 0; i < used; ++i) {
      double sum = 0.0;
      for (int p = 0; p < s.procs(); ++p) sum += s.value(p, c, i);
      out << glyph(sum / (procs * w));
    }
    out << "|\n";
  }
  out << "totals (s):";
  for (int c = 0; c < SimSeries::kChannelCount; ++c) {
    out << " " << SimSeries::channel_name(c) << " "
        << sci(s.total(static_cast<SimSeries::Channel>(c)));
  }
  out << "\n";
  return out.str();
}

}  // namespace zc::tseries
