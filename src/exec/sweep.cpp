#include "src/exec/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "src/prof/prof.h"
#include "src/support/diag.h"
#include "src/trace/recorder.h"

namespace zc::exec {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer — cheap and well-distributed for fold hashing.
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return h * 1099511628211ULL ^ v;
}

std::uint64_t mix_str(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

std::uint64_t result_checksum(const sim::RunResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  h = mix(h, bits_of(result.elapsed_seconds));
  h = mix(h, static_cast<std::uint64_t>(result.dynamic_count));
  h = mix(h, static_cast<std::uint64_t>(result.total_messages));
  h = mix(h, static_cast<std::uint64_t>(result.total_bytes));
  h = mix(h, static_cast<std::uint64_t>(result.reduction_count));
  for (const auto& [name, value] : result.scalars) {
    h = mix_str(h, name);
    h = mix(h, bits_of(value));
  }
  for (const auto& [name, value] : result.checksums) {
    h = mix_str(h, name);
    h = mix(h, bits_of(value));
  }
  for (const sim::CommCounters& c : result.per_proc) {
    h = mix(h, static_cast<std::uint64_t>(c.communications));
    h = mix(h, static_cast<std::uint64_t>(c.messages_sent));
    h = mix(h, static_cast<std::uint64_t>(c.messages_received));
    h = mix(h, static_cast<std::uint64_t>(c.bytes_sent));
    h = mix(h, static_cast<std::uint64_t>(c.bytes_received));
  }
  return h;
}

int hardware_jobs() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

std::vector<SweepResult> run_sweep(const std::vector<SweepItem>& items,
                                   const SweepOptions& options) {
  if (options.jobs < 0) {
    throw Error("run_sweep: jobs must be >= 0, got " + std::to_string(options.jobs));
  }
  const std::size_t jobs =
      static_cast<std::size_t>(options.jobs == 0 ? hardware_jobs() : options.jobs);
  PlanCache local_cache;
  PlanCache& cache = options.plan_cache != nullptr ? *options.plan_cache : local_cache;

  std::vector<SweepResult> results(items.size());

  const auto task = [&](std::size_t i) {
    const SweepItem& item = items[i];
    SweepResult& out = results[i];  // submission slot: no cross-task writes
    // Worker threads start detached from any profiler; the calling thread
    // may already carry one. Attach only where none is, and never with
    // nullptr: prof::Attach(nullptr) would *detach* the caller's profiler.
    std::optional<prof::Attach> attach;
    if (options.host_profiler != nullptr && !prof::enabled()) {
      attach.emplace(options.host_profiler);
    }
    const auto wall_start = std::chrono::steady_clock::now();
    try {
      if (item.program == nullptr) throw Error("sweep item '" + item.label + "' has no program");
      out.plan = cache.get_or_plan(*item.program, item.experiment.opts, item.machine.name);

      sim::RunConfig config;
      config.machine = item.machine;
      config.procs = item.procs;
      config.config_overrides = item.config_overrides;
      std::unique_ptr<trace::Recorder> recorder;
      if (item.trace) {
        recorder = std::make_unique<trace::Recorder>(item.procs);
        config.recorder = recorder.get();
      }
      out.metrics = driver::run_planned(*item.program, *out.plan, item.experiment,
                                        std::move(config));
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "sweep item '" + item.label + "' threw a non-standard exception";
    }
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  };

  // Fork/join: the caller and up to jobs-1 threads claim item indices from
  // one counter until none are left. With jobs == 1 no thread starts and the
  // caller runs every item in submission order: the serial baseline every
  // parallel schedule is compared against. The jthreads join at scope exit,
  // also when starting one throws.
  std::atomic<std::size_t> next{0};
  const auto claim = [&] {
    for (std::size_t i = next++; i < items.size(); i = next++) task(i);
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 1; w < std::min(jobs, items.size()); ++w) workers.emplace_back(claim);
    claim();
  }
  return results;
}

}  // namespace zc::exec
