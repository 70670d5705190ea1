#include "src/support/metrics.h"

#include <algorithm>

#include "src/support/str.h"

namespace zc::metrics {

void Histogram::observe(double value) {
  if (buckets.empty()) buckets.assign(bounds.size() + 1, 0);
  std::size_t i = 0;
  while (i < bounds.size() && value > bounds[i]) ++i;
  ++buckets[i];
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double n = static_cast<double>(buckets[i]);
    if (n > 0.0 && cum + n >= target) {
      const double lo = std::clamp(i == 0 ? min : bounds[i - 1], min, max);
      const double hi = std::clamp(i < bounds.size() ? bounds[i] : max, min, max);
      const double frac = (target - cum) / n;
      return std::clamp(lo + (hi - lo) * frac, min, max);
    }
    cum += n;
  }
  return max;
}

namespace {

/// Folds `theirs` into `mine`: bucket-wise when the bounds agree, else into
/// the aggregate + overflow bucket so the totals stay exact either way.
void merge_histogram(Histogram& mine, const Histogram& theirs) {
  if (theirs.count == 0) return;
  if (mine.count == 0) {
    mine = theirs;
    return;
  }
  if (mine.buckets.empty()) mine.buckets.assign(mine.bounds.size() + 1, 0);
  if (mine.bounds == theirs.bounds) {
    for (std::size_t i = 0; i < mine.buckets.size() && i < theirs.buckets.size(); ++i) {
      mine.buckets[i] += theirs.buckets[i];
    }
  } else {
    // Bounds disagree: keep this histogram's shape and fold the other's
    // samples into the overflow bucket so the aggregate stays exact.
    mine.buckets.back() += theirs.count;
  }
  mine.count += theirs.count;
  mine.sum += theirs.sum;
  mine.min = std::min(mine.min, theirs.min);
  mine.max = std::max(mine.max, theirs.max);
}

}  // namespace

void Registry::count(std::string_view name, long long delta) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto it = maps_.counters.find(name);
  if (it == maps_.counters.end()) {
    maps_.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::gauge(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto it = maps_.gauges.find(name);
  if (it == maps_.gauges.end()) {
    maps_.gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Registry::observe(std::string_view name, double value, std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto it = maps_.histograms.find(name);
  if (it == maps_.histograms.end()) {
    Histogram h;
    if (bounds.empty()) {
      for (double b = 1.0; b <= 1048576.0; b *= 2.0) h.bounds.push_back(b);
    } else {
      std::sort(bounds.begin(), bounds.end());
      h.bounds = std::move(bounds);
    }
    it = maps_.histograms.emplace(std::string(name), std::move(h)).first;
  }
  it->second.observe(value);
}

long long Registry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = maps_.counters.find(name);
  return it == maps_.counters.end() ? 0 : it->second;
}

double Registry::gauge_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = maps_.gauges.find(name);
  return it == maps_.gauges.end() ? 0.0 : it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  // The pointer is only stable while no concurrent mutation runs; callers
  // are single-threaded inspectors (tests, report writers) by contract.
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = maps_.histograms.find(name);
  return it == maps_.histograms.end() ? nullptr : &it->second;
}

bool Registry::empty() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return maps_.counters.empty() && maps_.gauges.empty() && maps_.histograms.empty();
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lk(mu_);
  maps_ = Maps{};
}

Registry::Maps Registry::snapshot() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return maps_;
}

void Registry::merge_from(const Registry& other) {
  if (&other == this) return;
  // Snapshot-then-apply: copy the other registry's state under its lock,
  // then fold it in under ours. The two locks are never held together, so
  // two registries merging into each other cannot deadlock.
  const Maps snap = other.snapshot();
  const std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, value] : snap.counters) maps_.counters[name] += value;
  for (const auto& [name, value] : snap.gauges) maps_.gauges[name] = value;
  for (const auto& [name, h] : snap.histograms) {
    auto it = maps_.histograms.find(name);
    if (it == maps_.histograms.end()) {
      maps_.histograms.emplace(name, h);
    } else {
      merge_histogram(it->second, h);
    }
  }
}

namespace {

/// Gauge/histogram values render with enough precision to round-trip the
/// magnitudes the simulator produces (seconds, counts).
std::string render(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  return str::format_f(v, 9);
}

}  // namespace

std::string Registry::to_text() const {
  const Maps snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += "counter " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += "gauge " + name + " " + render(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "hist " + name + " count " + std::to_string(h.count) + " sum " + render(h.sum);
    if (h.count > 0) {
      out += " min " + render(h.min) + " max " + render(h.max);
      out += " p50 " + render(h.quantile(0.50)) + " p90 " + render(h.quantile(0.90)) +
             " p99 " + render(h.quantile(0.99));
    }
    out += "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::string bound = i < h.bounds.size() ? render(h.bounds[i]) : "+inf";
      out += "hist " + name + " le " + bound + " " + std::to_string(h.buckets[i]) + "\n";
    }
  }
  return out;
}

json::Value Registry::to_json() const {
  const Maps snap = snapshot();
  using json::Value;
  Value doc = Value::make_object();
  Value counters = Value::make_object();
  for (const auto& [name, value] : snap.counters) counters[name] = Value::make_int(value);
  doc["counters"] = std::move(counters);

  Value gauges = Value::make_object();
  for (const auto& [name, value] : snap.gauges) gauges[name] = Value::make_num(value);
  doc["gauges"] = std::move(gauges);

  Value hists = Value::make_object();
  for (const auto& [name, h] : snap.histograms) {
    Value v = Value::make_object();
    Value bounds = Value::make_array();
    for (double b : h.bounds) bounds.push_back(Value::make_num(b));
    v["bounds"] = std::move(bounds);
    Value buckets = Value::make_array();
    for (long long b : h.buckets) buckets.push_back(Value::make_int(b));
    v["buckets"] = std::move(buckets);
    v["count"] = Value::make_int(h.count);
    v["sum"] = Value::make_num(h.sum);
    if (h.count > 0) {
      v["min"] = Value::make_num(h.min);
      v["max"] = Value::make_num(h.max);
      v["p50"] = Value::make_num(h.quantile(0.50));
      v["p90"] = Value::make_num(h.quantile(0.90));
      v["p99"] = Value::make_num(h.quantile(0.99));
    }
    hists[name] = std::move(v);
  }
  doc["histograms"] = std::move(hists);
  return doc;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

namespace {
thread_local Registry* tl_current = nullptr;
}  // namespace

Registry& Registry::current() { return tl_current != nullptr ? *tl_current : global(); }

ScopedRegistry::ScopedRegistry(Registry& registry) : previous_(tl_current) {
  tl_current = &registry;
}

ScopedRegistry::~ScopedRegistry() { tl_current = previous_; }

}  // namespace zc::metrics
