#include "src/exec/plan_cache.h"

#include <bit>
#include <utility>

namespace zc::exec {

std::shared_ptr<const comm::CommPlan> PlanCache::get_or_plan(const zir::Program& program,
                                                             const comm::OptOptions& options,
                                                             std::string_view machine_salt) {
  // Every semantic OptOptions field participates; pass_log deliberately does
  // not (see the header contract).
  Key key{reinterpret_cast<std::uintptr_t>(&program),
          options.remove_redundant,
          options.combine,
          options.pipeline,
          options.heuristic,
          options.inter_block,
          options.hybrid_max_elems,
          std::bit_cast<std::uint64_t>(options.hybrid_min_window_fraction),
          options.est_mesh_rows,
          options.est_mesh_cols,
          std::string(machine_salt)};

  const std::lock_guard<std::mutex> lk(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    comm::OptOptions clean = options;
    clean.pass_log = nullptr;  // plans are bit-identical without a log
    // Planned before the insert, so a throwing plan leaves no entry.
    auto plan_ptr =
        std::make_shared<const comm::CommPlan>(comm::plan_communication(program, clean));
    it = plans_.emplace(std::move(key), std::move(plan_ptr)).first;
    ++stats_.misses;
  } else {
    ++stats_.hits;
  }
  return it->second;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace zc::exec
