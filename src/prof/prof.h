// Host-side hierarchical profiler for the toolchain itself: where does
// `plan_communication`, the engine, or an analysis pass spend *real* CPU
// time and memory — as opposed to src/trace, which records the *simulated*
// machine's virtual time.
//
// Model: RAII scoped spans (`Span`, usually via ZC_PROF_SPAN) push onto a
// thread-local span stack; closing a span accumulates its wall time
// (steady_clock) into a per-thread tree node keyed by (parent, name).
// `add_bytes` attributes instrumented allocations to the innermost open
// span. `Profiler::tree()` merges the per-thread trees by path into one
// aggregate span tree (count, total/self seconds, bytes per node);
// currently-open frames contribute their elapsed-so-far time, so the root
// total tracks end-to-end wall time even when snapshotted mid-run.
//
// Zero-overhead-off contract (mirrors src/trace and src/report/passlog):
// the profiler is opt-in via `Attach`; with no profiler attached to the
// calling thread a Span constructor is a single thread-local pointer test —
// no allocation, no clock reads — and every instrumented subsystem produces
// bit-identical outputs profiled or not (checked by tests/prof_test.cpp and
// bench_observer_overhead, which also gates the attached engine-path cost
// at <= 5%).
//
// Exports: a text tree (`to_text`), folded stack lines for flamegraph.pl
// (`to_folded`), nested JSON for run reports (`to_json`), and a bounded
// per-thread timeline of completed spans that src/trace/chrome renders as
// host tracks next to the simulated timeline.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace zc::prof {

/// One node of an aggregated span tree (per-thread or merged).
struct Node {
  std::string name;
  int parent = -1;  ///< index into the owning tree's nodes; -1 = root
  long long count = 0;
  double total_seconds = 0.0;
  long long bytes = 0;  ///< instrumented allocations attributed here
  std::vector<int> children;  ///< indices into the owning tree's nodes
};

/// A completed span occurrence, for the Chrome timeline export. Times are
/// host seconds relative to the profiler's construction.
struct TimelineEvent {
  const char* name = nullptr;
  double t_begin = 0.0;
  double t_end = 0.0;
  int depth = 0;  ///< stack depth at entry (0 = a root span)
};

class Profiler {
 public:
  /// `max_timeline_events` bounds the per-thread completed-span timeline
  /// kept for the Chrome export (further spans are counted as dropped; the
  /// aggregate tree is always exact, like trace::Recorder's aggregates).
  explicit Profiler(std::size_t max_timeline_events = 1 << 16);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The merged span tree over every thread that ever attached. Children
  /// are merged by name; `roots` index the top-level spans. Open frames are
  /// included with their elapsed-so-far time (their count already includes
  /// the in-progress entry).
  struct Tree {
    std::vector<Node> nodes;
    std::vector<int> roots;

    /// total − Σ children's totals; ≥ 0 by construction (children nest
    /// within their parent on the same clock).
    [[nodiscard]] double self_seconds(int node) const;
    /// Σ root totals — the profiled wall time.
    [[nodiscard]] double wall_seconds() const;
  };
  [[nodiscard]] Tree tree() const;

  /// Indented text tree: count, total/self ms, bytes per node, preceded by
  /// a wall-time header (comm_explorer --profile).
  [[nodiscard]] std::string to_text() const;

  /// Folded stack lines for flamegraph.pl: `root;child;leaf <self_us>`,
  /// one line per node, frame names sanitized (no ' ' or ';'). Values are
  /// self times in integer microseconds.
  [[nodiscard]] std::string to_folded() const;

  /// {"wall_seconds": W, "spans": [{name, count, total_seconds,
  ///  self_seconds, bytes, children: [...]}, ...]} — the run report's
  /// host_profile payload (minus process gauges, which the report adds).
  [[nodiscard]] json::Value to_json() const;

  /// Per-thread completed-span timelines for the Chrome export, in thread
  /// registration order. Labels are "host thread N".
  [[nodiscard]] int thread_count() const;
  [[nodiscard]] std::vector<TimelineEvent> timeline(int thread) const;
  [[nodiscard]] long long dropped_timeline_events() const;

  /// Opaque per-attached-thread state (defined in prof.cpp; public only so
  /// the thread-local current-profiler pointer can name it).
  struct ThreadState;

 private:
  friend class Attach;
  friend class Span;
  friend void add_bytes(long long n);

  ThreadState* register_thread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t max_timeline_events_;
};

/// RAII: makes `profiler` (which may be null — a no-op) the calling
/// thread's current profiler for its lifetime, restoring the previous one
/// on destruction. Each attaching thread gets its own span stack; stacks
/// never interleave across threads.
class Attach {
 public:
  explicit Attach(Profiler* profiler);
  ~Attach();
  Attach(const Attach&) = delete;
  Attach& operator=(const Attach&) = delete;

 private:
  void* prev_ = nullptr;  // the thread's previous ThreadState*
};

/// A scoped span. `name` must outlive the profiler (string literals only —
/// the tree and timeline keep the pointer until aggregation).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* state_ = nullptr;  // ThreadState* captured at entry; null = off
};

/// Attributes `n` bytes of instrumented allocation to the calling thread's
/// innermost open span. No-op without an attached profiler or open span.
void add_bytes(long long n);

/// True iff the calling thread currently has a profiler attached — lets
/// instrumentation sites skip byte-accounting work entirely when off.
[[nodiscard]] bool enabled();

#define ZC_PROF_CAT2(a, b) a##b
#define ZC_PROF_CAT(a, b) ZC_PROF_CAT2(a, b)
/// Opens a span for the rest of the enclosing scope.
#define ZC_PROF_SPAN(name) ::zc::prof::Span ZC_PROF_CAT(zc_prof_span_, __LINE__)(name)

}  // namespace zc::prof
