// Concurrency-safe memoization of communication plans: a sweep over a grid
// of (program x OptOptions x machine) configurations parses and optimizes
// each *distinct* configuration exactly once, sharing one immutable
// comm::CommPlan across every run that executes it (plans are read-only
// after planning; the engine never mutates one).
//
// Keying: the cache key is the *content* of the configuration, not object
// identity — the canonical printed form of the ZIR program (zir::to_source,
// which drops source offsets: two programs lexed from sources differing
// only in whitespace/comments key identically) plus every semantic
// OptOptions field plus a machine salt (the model name; planning itself is
// machine-independent, so e.g. "pl" and "pl with shmem" — same options,
// same T3D — share one plan). OptOptions::pass_log is deliberately NOT part
// of the key and never attached to cached planning: plans are bit-identical
// with or without a log (src/report contract), and provenance callers go to
// plan_communication directly.
//
// Collisions: entries are bucketed by a 64-bit FNV-1a hash of the key but
// verified by full key comparison, so hash collisions cost a probe, never
// correctness (tests force a degenerate constant hash to pin this).
//
// Concurrency: one mutex guards the table. Planning itself runs outside the
// lock under a per-entry std::call_once, so two workers asking for the same
// key block on one planning run while different keys plan in parallel.
// Hit/miss totals are deterministic for a fixed work set (misses == distinct
// keys) regardless of scheduling. Entries live as long as the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/comm/optimizer.h"

namespace zc::exec {

/// Builds the canonical cache key text for (program, options, machine).
std::string plan_key(const zir::Program& program, const comm::OptOptions& options,
                     std::string_view machine_salt);

/// 64-bit FNV-1a — the default bucket hash.
std::uint64_t fnv1a(std::string_view s);

struct PlanCacheStats {
  long long hits = 0;
  long long misses = 0;

  [[nodiscard]] long long lookups() const { return hits + misses; }

  [[nodiscard]] double hit_rate() const {
    const long long total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  struct Options {
    /// Test seam: override the bucket hash (e.g. a constant, to force every
    /// key into one bucket and exercise collision handling).
    std::function<std::uint64_t(std::string_view)> hash;
  };

  PlanCache();
  explicit PlanCache(Options options);

  /// The cached plan for (program, options, machine_salt), planning and
  /// inserting on first request. Also bumps the exec.plan_cache.{hits,
  /// misses} counters in metrics::Registry::current().
  std::shared_ptr<const comm::CommPlan> get_or_plan(const zir::Program& program,
                                                    const comm::OptOptions& options,
                                                    std::string_view machine_salt = "");

  [[nodiscard]] PlanCacheStats stats() const;

  /// The process-wide cache the bench harnesses and CLI sweeps share.
  static PlanCache& process();

 private:
  // Entries are shared_ptr-owned so a bucket can grow (moving its elements)
  // while another thread is still planning or reading an entry it found.
  struct Entry {
    std::string key;
    std::once_flag once;
    std::shared_ptr<const comm::CommPlan> plan;  // written once, under `once`
  };

  std::function<std::uint64_t(std::string_view)> hash_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>> buckets_;
  PlanCacheStats stats_;
};

}  // namespace zc::exec
