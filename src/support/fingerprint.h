// Host and build fingerprints: who produced a measurement. The perf
// archive (src/archive) stamps every envelope with both so trend queries
// can refuse like-for-like comparisons across host classes, run reports
// (schema v5) carry them in the optional "host" block.
//
// The host fingerprint is what timing numbers depend on: core count, the
// CPU model string from /proc/cpuinfo, the page size, and whether the
// binary was built under a sanitizer (a tsan build is a different machine
// as far as perf history is concerned). The build fingerprint records the
// toolchain: compiler id/version and the CMake build type.
#pragma once

#include <string>

#include "src/support/json.h"

namespace zc::fingerprint {

/// The project version stamped into build fingerprints.
inline constexpr const char* kZcommVersion = "0.9.0";

struct Host {
  int cores = 0;           ///< std::thread::hardware_concurrency (0 = unknown)
  std::string cpu_model;   ///< /proc/cpuinfo "model name" ("" where unavailable)
  long long page_size = 0; ///< sysconf(_SC_PAGESIZE)
  std::string sanitize;    ///< -DZC_SANITIZE value at build time ("" = none)
  bool known = true;       ///< false: a legacy record with no fingerprint
  std::string forced_class;///< test/ops override: host_class() returns this verbatim

  /// The like-for-like comparison key: a slug of the CPU model plus the
  /// core count and sanitizer, e.g. "amd-epyc-7b13/8c"; "unknown" when
  /// !known. Two samples are only ever gated against each other when
  /// their classes are equal.
  [[nodiscard]] std::string host_class() const;

  [[nodiscard]] json::Value to_json() const;
  static Host from_json(const json::Value& v);
};

struct Build {
  std::string compiler;         ///< "gcc 12.2.0" / "clang 15.0.7" / "unknown"
  std::string compiler_version; ///< the compiler's own __VERSION__ string
  std::string build_type;       ///< CMAKE_BUILD_TYPE ("" when not configured)
  std::string sanitize;         ///< -DZC_SANITIZE value ("" = none)

  [[nodiscard]] json::Value to_json() const;
  static Build from_json(const json::Value& v);
};

/// The fingerprints of this process / this binary (computed once).
const Host& current_host();
const Build& current_build();

}  // namespace zc::fingerprint
