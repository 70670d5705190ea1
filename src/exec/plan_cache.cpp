#include "src/exec/plan_cache.h"

#include <sstream>
#include <utility>

#include "src/support/metrics.h"
#include "src/zir/printer.h"

namespace zc::exec {

std::string plan_key(const zir::Program& program, const comm::OptOptions& options,
                     std::string_view machine_salt) {
  // Every semantic OptOptions field participates; pass_log deliberately does
  // not (see the header contract). The program is keyed by its canonical
  // printed form, which two structurally identical programs share no matter
  // how their sources were formatted.
  std::ostringstream key;
  key << "machine=" << machine_salt << '\n'
      << "remove_redundant=" << options.remove_redundant << '\n'
      << "combine=" << options.combine << '\n'
      << "pipeline=" << options.pipeline << '\n'
      << "heuristic=" << static_cast<int>(options.heuristic) << '\n'
      << "inter_block=" << options.inter_block << '\n'
      << "hybrid_max_elems=" << options.hybrid_max_elems << '\n'
      << "hybrid_min_window_fraction=" << options.hybrid_min_window_fraction << '\n'
      << "est_mesh_rows=" << options.est_mesh_rows << '\n'
      << "est_mesh_cols=" << options.est_mesh_cols << '\n'
      << "program:\n"
      << zir::to_source(program);
  return std::move(key).str();
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

PlanCache::PlanCache() : PlanCache(Options{}) {}

PlanCache::PlanCache(Options options)
    : hash_(options.hash ? std::move(options.hash) : fnv1a) {}

std::shared_ptr<const comm::CommPlan> PlanCache::get_or_plan(const zir::Program& program,
                                                             const comm::OptOptions& options,
                                                             std::string_view machine_salt) {
  std::string key = plan_key(program, options, machine_salt);
  const std::uint64_t h = hash_(key);

  std::shared_ptr<Entry> entry;
  bool inserted = false;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::shared_ptr<Entry>>& bucket = buckets_[h];
    for (const std::shared_ptr<Entry>& candidate : bucket) {
      if (candidate->key == key) {  // full-key compare: collisions only probe
        entry = candidate;
        break;
      }
    }
    if (entry == nullptr) {
      entry = std::make_shared<Entry>();
      entry->key = std::move(key);
      bucket.push_back(entry);
      ++stats_.misses;
      inserted = true;
    } else {
      ++stats_.hits;
    }
  }

  metrics::Registry::current().count(inserted ? "exec.plan_cache.misses"
                                              : "exec.plan_cache.hits");

  // Planning runs outside the table lock: concurrent distinct keys plan in
  // parallel; concurrent requests for the same key block on one planning run,
  // and call_once orders their read of `plan` after this store.
  std::call_once(entry->once, [&] {
    comm::OptOptions clean = options;
    clean.pass_log = nullptr;  // plans are bit-identical without a log
    entry->plan = std::make_shared<comm::CommPlan>(comm::plan_communication(program, clean));
  });
  return entry->plan;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

PlanCache& PlanCache::process() {
  static PlanCache cache;
  return cache;
}

}  // namespace zc::exec
