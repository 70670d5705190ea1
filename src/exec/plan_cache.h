// Concurrency-safe memoization of communication plans: a sweep over a grid
// of (program x OptOptions x machine) configurations optimizes each
// *distinct* configuration exactly once, sharing one immutable
// comm::CommPlan across every run that executes it (plans are read-only
// after planning; the engine never mutates one).
//
// Keying: the program by identity (its address), every semantic OptOptions
// field by value, and a machine salt (the model name; planning itself is
// machine-independent, so e.g. "pl" and "pl with shmem" — same options,
// same T3D — share one plan). Sweeps parse each source once and share the
// parsed program across its runs, so identity finds every repeat without
// printing or hashing the program. OptOptions::pass_log is deliberately NOT
// part of the key and never attached to cached planning: plans are
// bit-identical with or without a log (src/report contract), and provenance
// callers go to plan_communication directly.
//
// Concurrency: one mutex guards the map, and a miss plans under it. A plan
// costs tens of microseconds against a run's tenths of a second, so
// concurrent first requests simply queue; the first plans, the rest hit.
// Hit/miss totals are deterministic for a fixed work set (misses == distinct
// keys) regardless of scheduling. Entries live as long as the cache.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/comm/optimizer.h"

namespace zc::exec {

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
  /// The cached plan for (program, options, machine_salt), planning and
  /// inserting on first request, and counts the lookup as a hit or a miss
  /// in stats().
  ///
  /// `program` is keyed by address, so it must outlive the cache: a program
  /// destroyed while the cache lives could be replaced by another at the
  /// same address, which would then be served the first one's plans.
  std::shared_ptr<const comm::CommPlan> get_or_plan(const zir::Program& program,
                                                    const comm::OptOptions& options,
                                                    std::string_view machine_salt = "");

  [[nodiscard]] PlanCacheStats stats() const;

 private:
  struct Key {
    std::uintptr_t program = 0;  ///< address: programs key by identity
    bool remove_redundant = false;
    bool combine = false;
    bool pipeline = false;
    comm::CombineHeuristic heuristic = comm::CombineHeuristic::kMaxCombining;
    bool inter_block = false;
    long long hybrid_max_elems = 0;
    /// Bit pattern of hybrid_min_window_fraction: exact, and totally
    /// ordered even for NaN.
    std::uint64_t hybrid_min_window_fraction = 0;
    int est_mesh_rows = 0;
    int est_mesh_cols = 0;
    std::string machine;

    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const comm::CommPlan>> plans_;  // guarded by mu_
  PlanCacheStats stats_;                                        // guarded by mu_
};

}  // namespace zc::exec
