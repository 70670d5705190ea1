#include "src/tseries/tseries.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"
#include "src/support/csv.h"

namespace zc::tseries {

Windows::Windows(int rows, int channels, int window_count, double initial_width)
    : rows_(rows), channels_(channels), window_count_(window_count), width_(initial_width) {
  ZC_ASSERT(rows >= 1);
  ZC_ASSERT(channels >= 1);
  ZC_ASSERT(window_count >= 1);
  ZC_ASSERT(initial_width > 0.0);
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(channels) *
                   static_cast<std::size_t>(window_count),
               0.0);
}

std::size_t Windows::index(int row, int channel, int window) const {
  return (static_cast<std::size_t>(row) * static_cast<std::size_t>(channels_) +
          static_cast<std::size_t>(channel)) *
             static_cast<std::size_t>(window_count_) +
         static_cast<std::size_t>(window);
}

void Windows::fold_until(double t) {
  while (t > width_ * static_cast<double>(window_count_)) {
    // Merge adjacent window pairs: sums are preserved exactly (each cell
    // lands in exactly one merged cell), resolution halves.
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < channels_; ++c) {
        double* w = &data_[index(r, c, 0)];
        const int half = (window_count_ + 1) / 2;
        for (int i = 0; i < half; ++i) {
          const double a = w[2 * i];
          const double b = 2 * i + 1 < window_count_ ? w[2 * i + 1] : 0.0;
          w[i] = a + b;
        }
        std::fill(w + half, w + window_count_, 0.0);
      }
    }
    width_ *= 2.0;
  }
}

void Windows::add_span(int row, int channel, double t0, double t1) {
  if (!std::isfinite(t0) || !std::isfinite(t1)) return;
  t0 = std::max(t0, 0.0);
  duration_ = std::max(duration_, t1);
  if (t1 <= t0) return;
  fold_until(t1);
  const double w = width_;
  const int first = std::min(window_count_ - 1, static_cast<int>(t0 / w));
  for (int i = first; i < window_count_; ++i) {
    const double lo = std::max(t0, static_cast<double>(i) * w);
    if (lo >= t1) break;
    // t0 / w can round down onto a window whose rounded upper edge is
    // <= t0; that window's share is empty, but the span continues in the
    // next one, so skip it rather than stop.
    const double hi = std::min(t1, static_cast<double>(i + 1) * w);
    if (hi > lo) data_[index(row, channel, i)] += hi - lo;
  }
}

int Windows::used_windows() const {
  if (duration_ <= 0.0) return 1;
  const int used = static_cast<int>(std::ceil(duration_ / width_));
  return std::clamp(used, 1, window_count_);
}

double Windows::value(int row, int channel, int window) const {
  return data_[index(row, channel, window)];
}

double Windows::row_total(int row, int channel) const {
  double total = 0.0;
  for (int i = 0; i < window_count_; ++i) total += data_[index(row, channel, i)];
  return total;
}

double Windows::channel_total(int channel) const {
  double total = 0.0;
  for (int r = 0; r < rows_; ++r) total += row_total(r, channel);
  return total;
}

// ---- SimSeries ------------------------------------------------------------

const char* SimSeries::channel_name(int channel) {
  switch (channel) {
    case kCpu: return "cpu";
    case kWait: return "wait";
    case kWireExposed: return "wire_exposed";
    case kWireOverlapped: return "wire_overlapped";
    case kCompute: return "compute";
    case kBarrier: return "barrier";
    default: return "?";
  }
}

SimSeries::SimSeries(int procs, int window_count)
    : windows_(procs, kChannelCount, window_count) {}

void SimSeries::add_call(int proc, double begin, double unblocked, double end) {
  windows_.add_span(proc, kWait, begin, unblocked);
  windows_.add_span(proc, kCpu, unblocked, end);
}

void SimSeries::add_compute(int proc, double begin, double end) {
  windows_.add_span(proc, kCompute, begin, end);
}

void SimSeries::add_barrier(int proc, double begin, double end) {
  windows_.add_span(proc, kBarrier, begin, end);
}

void SimSeries::add_wire(int dst, double on_wire, double arrived, double wait_seconds) {
  const double wire = arrived - on_wire;
  if (!(wire > 0.0)) return;
  const double exposed = std::clamp(wait_seconds, 0.0, wire);
  windows_.add_span(dst, kWireExposed, arrived - exposed, arrived);
  windows_.add_span(dst, kWireOverlapped, on_wire, arrived - exposed);
}

json::Value SimSeries::to_json() const {
  json::Value v = json::Value::make_object();
  v["kind"] = json::Value::make_str("zc-sim-timeline");
  v["procs"] = json::Value::make_int(procs());
  v["window_count"] = json::Value::make_int(window_count());
  v["window_width"] = json::Value::make_num(window_width());
  v["duration"] = json::Value::make_num(duration());
  const int used = used_windows();
  v["used_windows"] = json::Value::make_int(used);
  json::Value channels = json::Value::make_object();
  for (int c = 0; c < kChannelCount; ++c) {
    json::Value per_proc = json::Value::make_array();
    for (int p = 0; p < procs(); ++p) {
      json::Value row = json::Value::make_array();
      for (int w = 0; w < used; ++w) {
        row.push_back(json::Value::make_num(value(p, static_cast<Channel>(c), w)));
      }
      per_proc.push_back(std::move(row));
    }
    channels[channel_name(c)] = std::move(per_proc);
  }
  v["channels"] = std::move(channels);
  return v;
}

std::string SimSeries::to_csv() const {
  CsvWriter csv({"proc", "channel", "window", "t0", "t1", "seconds"});
  const int used = used_windows();
  const double w = window_width();
  for (int p = 0; p < procs(); ++p) {
    for (int c = 0; c < kChannelCount; ++c) {
      for (int i = 0; i < used; ++i) {
        const double seconds = value(p, static_cast<Channel>(c), i);
        if (seconds == 0.0) continue;
        csv.add_row({std::to_string(p), channel_name(c), std::to_string(i),
                     std::to_string(static_cast<double>(i) * w),
                     std::to_string(static_cast<double>(i + 1) * w),
                     std::to_string(seconds)});
      }
    }
  }
  return csv.to_string();
}

}  // namespace zc::tseries
