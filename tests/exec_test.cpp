// Unit tests for the sweep execution substrate (src/exec): the
// work-stealing thread pool's fork/join and determinism contracts, the plan
// memoization cache (keying, collisions, concurrency, metrics counters), and
// the thread-local metrics registry redirect + merge the sweep engine's
// deterministic accounting rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "src/comm/optimizer.h"
#include "src/exec/plan_cache.h"
#include "src/exec/pool.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/report/passlog.h"
#include "src/support/diag.h"
#include "src/support/metrics.h"

namespace zc::exec {
namespace {

constexpr std::string_view kProgram = R"(
program cachetest;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main() {
  [R] B := Index1 * 0.5;
  [R] A := B@east;
  [R] C := B@east;
}
)";

// Same token stream as kProgram, different whitespace and source offsets —
// structurally identical, so it must share kProgram's cache entry.
constexpr std::string_view kProgramReformatted = R"(
program cachetest;

config n : integer = 8;

region R = [1..n, 1..n];
direction east = [0, 1];

var A, B, C : [R] double;

procedure main() {
  [R] B := Index1 * 0.5;

  [R] A := B@east;
  [R] C := B@east;
}
)";

// Different program text (an extra statement): must key separately even
// when the bucket hash collides.
constexpr std::string_view kOtherProgram = R"(
program cachetest;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main() {
  [R] B := Index1 * 0.5;
  [R] A := B@east;
  [R] C := B@east;
  [R] C := A@east;
}
)";

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    ThreadPool pool(jobs);
    constexpr std::size_t kN = 100;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " with jobs=" << jobs;
    }
  }
}

TEST(ThreadPool, JobsOneRunsInlineInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.run(10, [&](std::size_t i) { order.push_back(i); });  // no lock: inline
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, RejectsZeroJobs) { EXPECT_THROW(ThreadPool(0), Error); }

TEST(ThreadPool, RethrowsLowestIndexFailure) {
  ThreadPool pool(4);
  // Two failing tasks; the lowest submission index must win regardless of
  // completion order.
  try {
    pool.run(50, [&](std::size_t i) {
      if (i == 7 || i == 31) throw Error("task " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
}

TEST(ThreadPool, SurvivesFailuresAndRunsEverythingElse) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.run(64,
                        [&](std::size_t i) {
                          hits[i].fetch_add(1);
                          if (i % 9 == 0) throw Error("boom");
                        }),
               Error);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  // The pool stays usable after a failing epoch.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, ReusableAcrossEpochs) {
  ThreadPool pool(3);
  for (int epoch = 0; epoch < 20; ++epoch) {
    std::atomic<int> count{0};
    pool.run(17, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17);
  }
}

TEST(ThreadPool, CountersAccountForEveryTaskAndPublishToTheRegistry) {
  metrics::Registry reg;
  const metrics::ScopedRegistry scoped(reg);
  for (const int jobs : {1, 3}) {
    ThreadPool pool(jobs);
    pool.run(40, [](std::size_t) {});
    pool.run(40, [](std::size_t) {});
    const PoolCounters c = pool.counters();
    if (jobs == 1) {
      // The inline serial path has no scheduler, hence no scheduler counters.
      EXPECT_EQ(c.own_pops + c.steals, 0);
    } else {
      // own vs. stolen is scheduling-dependent; the sum is not.
      EXPECT_EQ(c.own_pops + c.steals, 2 * 40) << "jobs=" << jobs;
    }
  }
  EXPECT_EQ(reg.counter("exec.pool.own_pops") + reg.counter("exec.pool.steals"),
            2 * 40);
}

TEST(ThreadPool, ContextIdsCoverTheTasksDuringARun) {
  ThreadPool pool(2);
  std::atomic<int> on_context{0};
  std::atomic<int> off_pool{0};
  pool.run(64, [&](std::size_t) {
    const int ctx = ThreadPool::current_context();
    if (ctx >= 0 && ctx < 2) on_context.fetch_add(1);
  });
  EXPECT_EQ(on_context.load(), 64);
  // Off the pool (and on the jobs==1 inline path) there is no context.
  EXPECT_EQ(ThreadPool::current_context(), -1);
  ThreadPool inline_pool(1);
  inline_pool.run(4, [&](std::size_t) {
    if (ThreadPool::current_context() == -1) off_pool.fetch_add(1);
  });
  EXPECT_EQ(off_pool.load(), 4);
}

TEST(PlanCache, MissThenHit) {
  const zir::Program program = parser::parse_program(kProgram);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kPL);

  PlanCache cache;
  const auto p1 = cache.get_or_plan(program, opts);
  const auto p2 = cache.get_or_plan(program, opts);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1.get(), p2.get());  // the same shared immutable plan
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.lookups(), 2);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(PlanCache, KeyIgnoresSourceOffsetsAndWhitespace) {
  const zir::Program a = parser::parse_program(kProgram);
  const zir::Program b = parser::parse_program(kProgramReformatted);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kCC);
  EXPECT_EQ(plan_key(a, opts, "t3d"), plan_key(b, opts, "t3d"));

  PlanCache cache;
  const auto pa = cache.get_or_plan(a, opts, "t3d");
  const auto pb = cache.get_or_plan(b, opts, "t3d");
  EXPECT_EQ(pa.get(), pb.get());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(PlanCache, KeySeparatesOptionsAndMachine) {
  const zir::Program program = parser::parse_program(kProgram);
  const comm::OptOptions pl = comm::OptOptions::for_level(comm::OptLevel::kPL);
  comm::OptOptions maxlat = pl;
  maxlat.heuristic = comm::CombineHeuristic::kMaxLatency;

  EXPECT_NE(plan_key(program, pl, ""), plan_key(program, maxlat, ""));
  EXPECT_NE(plan_key(program, pl, "t3d"), plan_key(program, pl, "paragon"));

  // pass_log is NOT part of the key: attaching provenance never forks plans.
  comm::OptOptions logged = pl;
  report::PassLog log;
  logged.pass_log = &log;
  EXPECT_EQ(plan_key(program, pl, ""), plan_key(program, logged, ""));
}

TEST(PlanCache, HashCollisionsResolveByFullKeyCompare) {
  const zir::Program a = parser::parse_program(kProgram);
  const zir::Program b = parser::parse_program(kOtherProgram);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kRR);

  // Degenerate hash: every key lands in one bucket, so distinct programs
  // collide and only the full-key compare keeps them apart.
  PlanCache::Options copts;
  copts.hash = [](std::string_view) { return std::uint64_t{42}; };
  PlanCache cache(copts);

  const auto pa = cache.get_or_plan(a, opts);
  const auto pb = cache.get_or_plan(b, opts);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_NE(pa->static_count(), pb->static_count());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);

  // And both entries stay retrievable through the shared bucket.
  EXPECT_EQ(cache.get_or_plan(a, opts).get(), pa.get());
  EXPECT_EQ(cache.get_or_plan(b, opts).get(), pb.get());
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(PlanCache, PublishesHitMissCountersToCurrentRegistry) {
  const zir::Program program = parser::parse_program(kProgram);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kRR);

  metrics::Registry local;
  const metrics::ScopedRegistry scoped(local);
  PlanCache cache;
  cache.get_or_plan(program, opts);
  cache.get_or_plan(program, opts);
  cache.get_or_plan(program, opts);
  EXPECT_EQ(local.counter("exec.plan_cache.misses"), 1);
  EXPECT_EQ(local.counter("exec.plan_cache.hits"), 2);
}

TEST(PlanCache, ConcurrentRequestsPlanEachKeyOnce) {
  const zir::Program a = parser::parse_program(kProgram);
  const zir::Program b = parser::parse_program(kOtherProgram);
  const std::vector<comm::OptOptions> opts = {
      comm::OptOptions::for_level(comm::OptLevel::kBaseline),
      comm::OptOptions::for_level(comm::OptLevel::kRR),
      comm::OptOptions::for_level(comm::OptLevel::kCC),
      comm::OptOptions::for_level(comm::OptLevel::kPL),
  };
  PlanCache cache;
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  std::vector<std::shared_ptr<const comm::CommPlan>> got(kTasks);
  pool.run(kTasks, [&](std::size_t i) {
    got[i] = cache.get_or_plan(i % 2 == 0 ? a : b, opts[(i / 2) % opts.size()]);
  });
  for (const auto& p : got) EXPECT_NE(p, nullptr);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 8);  // 2 programs x 4 option sets, each planned once
  EXPECT_EQ(s.hits, static_cast<long long>(kTasks) - 8);
  // Identical keys resolved to the identical shared plan object.
  std::set<const comm::CommPlan*> distinct;
  for (const auto& p : got) distinct.insert(p.get());
  EXPECT_EQ(distinct.size(), 8u);
}

TEST(Registry, MergeFromAddsCountersAndTakesGauges) {
  metrics::Registry a;
  metrics::Registry b;
  a.count("x", 2);
  a.gauge("g", 1.0);
  b.count("x", 3);
  b.count("y", 7);
  b.gauge("g", 9.0);
  a.merge_from(b);
  EXPECT_EQ(a.counter("x"), 5);
  EXPECT_EQ(a.counter("y"), 7);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 9.0);
  // Self-merge is a no-op, not a doubling.
  a.merge_from(a);
  EXPECT_EQ(a.counter("x"), 5);
}

TEST(Registry, MergeFromAddsHistogramsBucketwise) {
  metrics::Registry a;
  metrics::Registry b;
  a.observe("h", 1.0, {2.0, 4.0});
  b.observe("h", 3.0, {2.0, 4.0});
  b.observe("h", 100.0, {2.0, 4.0});
  a.merge_from(b);
  const metrics::Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_DOUBLE_EQ(h->sum, 104.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 100.0);
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[0], 1);  // 1.0 <= 2
  EXPECT_EQ(h->buckets[1], 1);  // 3.0 <= 4
  EXPECT_EQ(h->buckets[2], 1);  // 100.0 overflow
}

TEST(Registry, ScopedRegistryRedirectsAndRestores) {
  metrics::Registry outer;
  metrics::Registry inner;
  const metrics::ScopedRegistry attach_outer(outer);
  metrics::Registry::current().count("k");
  {
    const metrics::ScopedRegistry attach_inner(inner);
    metrics::Registry::current().count("k");
    metrics::Registry::current().count("k");
  }
  metrics::Registry::current().count("k");
  EXPECT_EQ(outer.counter("k"), 2);
  EXPECT_EQ(inner.counter("k"), 2);
}

TEST(Registry, CurrentIsPerThread) {
  metrics::Registry mine;
  const metrics::ScopedRegistry scoped(mine);
  ThreadPool pool(4);
  // Worker threads have no redirect: their current() is global(), not ours.
  std::atomic<int> redirected{0};
  pool.run(16, [&](std::size_t) {
    if (&metrics::Registry::current() == &mine) redirected.fetch_add(1);
  });
  // Task 0 may run on the caller (which IS redirected); workers never are.
  EXPECT_LE(redirected.load(), 16);
  EXPECT_EQ(&metrics::Registry::current(), &mine);
}

}  // namespace
}  // namespace zc::exec
