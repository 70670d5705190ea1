// Two inert declarations left from a retired process-wide metrics registry.
// Every number it held has a typed home (sim::RunResult, driver::Metrics,
// exec::PlanCacheStats, the PassLog summary, the report's host_profile), and
// nothing in the library publishes to or reads from these types. They are
// kept only because e2ebench/e2ebench.cpp still declares one of each; both
// go, with this header, when that benchmark next changes.
#pragma once

namespace zc::metrics {

struct Registry {};

class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& /*registry*/) {}
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
};

}  // namespace zc::metrics
