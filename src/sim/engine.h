// The SPMD execution engine: runs a compiled (program + comm plan) on a
// simulated multicomputer, producing real numerical results, virtual
// execution time, and the paper's static/dynamic communication counts.
//
// Mini-ZPL has no processor-divergent control flow (loop bounds and branch
// conditions are replicated scalars), so the engine holds P processor
// states and executes every statement / IRONMAN call for the processors it
// concerns before moving on. This is exact for this language class,
// single-threaded, and deterministic — the substitution for the paper's
// 64-node T3D runs.
//
// Two cores share this contract (RunConfig::engine selects one):
//
//   kEvent (default)  compiles the program + plan to flat bytecode
//                     (src/sim/bytecode.h) and drives per-processor virtual
//                     clocks through a deferred-bump log, so statements that
//                     advance every clock uniformly cost O(1) and idle
//                     processors cost nothing until observed. This is what
//                     makes 4096+ simulated processors practical.
//   kLockstep         the original tree-walking interpreter: every
//                     statement executes for every processor in turn. Kept
//                     as the executable specification the event core is
//                     golden-tested against (tests/engine_event_test.cpp);
//                     prefer kEvent everywhere else.
//
// Both cores produce bit-identical results: RunResult scalars/checksums,
// communication counts, trace::Stats, and windowed timelines all match
// exactly. DESIGN.md §13 explains why.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/plan.h"
#include "src/ironman/ironman.h"
#include "src/machine/model.h"
#include "src/runtime/darray.h"
#include "src/runtime/eval.h"
#include "src/runtime/layout.h"
#include "src/sim/transport.h"
#include "src/zir/program.h"

namespace zc::sim {

struct CompiledAssign;
struct CompiledReduce;
struct CompiledGroup;
struct CommGeometry;
struct EventState;

/// Which execution core runs the program (see the header comment).
enum class EngineKind {
  kEvent,     ///< compiled bytecode + event-driven virtual clocks (default)
  kLockstep,  ///< tree-walking reference interpreter
};

struct RunConfig {
  machine::MachineModel machine = machine::t3d_model();
  ironman::CommLibrary library = ironman::CommLibrary::kPVM;
  int procs = 64;
  /// Execution core. Both produce bit-identical results; kEvent is the
  /// fast one, kLockstep the reference it is golden-tested against.
  EngineKind engine = EngineKind::kEvent;
  /// Override config constants by name (e.g. problem size / iterations).
  std::map<std::string, long long> config_overrides;
  /// Optional observers, carried by the engine as one sim::Observers
  /// (src/sim/observers.h): nullptr — the default — costs one pointer test
  /// per hook, and neither changes timing or numerics (golden-checked).
  /// The trace recorder (src/trace) must cover at least `procs` processors.
  trace::Recorder* recorder = nullptr;
  /// The windowed time series (src/tseries) must cover at least `procs`
  /// rows; its memory is O(procs x windows) however many events the run
  /// produces, and its sums reconcile with trace::Stats / RunResult exactly.
  tseries::SimSeries* timeline = nullptr;
};

/// Per-processor communication counters.
struct CommCounters {
  /// Communications (group executions) in which this processor actually
  /// sent or received data (a subset of the SPMD-wide dynamic count).
  long long communications = 0;
  long long messages_sent = 0;
  long long messages_received = 0;
  long long bytes_sent = 0;
  long long bytes_received = 0;
};

struct RunResult {
  double elapsed_seconds = 0.0;  ///< max processor clock at completion

  /// The paper's dynamic count: communications (IRONMAN call sets) executed
  /// by the SPMD program — identical on every processor, as in the paper's
  /// "number of communications performed ... on a single processor".
  long long dynamic_count = 0;
  int center_proc = 0;

  long long total_messages = 0;
  long long total_bytes = 0;
  long long reduction_count = 0;  ///< reductions executed (reported separately)

  rt::Mesh mesh;
  std::vector<CommCounters> per_proc;

  /// Final scalar values and per-array checksums (sum over the declared
  /// region), for verifying optimized runs against the reference.
  std::map<std::string, double> scalars;
  std::map<std::string, double> checksums;
};

class Engine {
 public:
  Engine(const zir::Program& program, const comm::CommPlan& plan, RunConfig config);
  ~Engine();  // out of line: GroupExec / EventState are incomplete here
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the program's entry procedure once. Single-use.
  RunResult run();

 private:
  struct GroupExec;  // one in-progress execution of a CommGroup

  /// Shared result assembly + metrics publication (both cores).
  RunResult finish();

  // --- lockstep core (engine.cpp) ----------------------------------------
  void run_lockstep();
  void exec_body(const std::vector<zir::StmtId>& body);
  void exec_block(const comm::BlockPlan& block);
  void exec_comm_position(const comm::BlockPlan& block, int pos);
  void exec_stmt(zir::StmtId sid);
  void exec_array_assign(const zir::Stmt& stmt);
  void exec_scalar_assign(const zir::Stmt& stmt);

  /// Fills `exec` (a pooled object — retained capacity, `live` reset by the
  /// caller via acquire_exec) with the group's messages under the current
  /// loop bindings.
  void build_group_exec(const comm::BlockPlan& block, const comm::CommGroup& group,
                        GroupExec& exec);
  [[nodiscard]] std::unique_ptr<GroupExec> acquire_exec();
  void recycle_exec(std::unique_ptr<GroupExec> exec);
  void comm_dr(const comm::CommGroup& group, GroupExec& exec);
  void comm_sr(const comm::CommGroup& group, GroupExec& exec);
  void comm_dn(const comm::CommGroup& group, GroupExec& exec);
  void comm_sv(const comm::CommGroup& group, GroupExec& exec);

  [[nodiscard]] rt::EvalContext context_for(int proc) const;
  [[nodiscard]] double stmt_cost(const zir::Stmt& stmt, long long elems) const;
  void allreduce_clocks(double extra_per_stage);

  // --- event-driven core (engine_event.cpp) ------------------------------
  void run_event();
  void ev_exec_assign(CompiledAssign& ca);
  void ev_exec_reduce(CompiledReduce& cr);
  void ev_comm_dr(CompiledGroup& cg);
  void ev_comm_sr(CompiledGroup& cg);
  void ev_comm_dn(CompiledGroup& cg);
  void ev_comm_sv(CompiledGroup& cg);
  /// Resolves (building / caching) the group's message geometry for the
  /// current loop bindings and marks it outstanding.
  CommGeometry& ev_resolve_geometry(CompiledGroup& cg);
  void ev_build_geometry(const CompiledGroup& cg, const std::vector<rt::Box>& member_boxes,
                         CommGeometry& geom);
  /// Appends a uniform all-processor clock bump to the deferred log.
  void ev_bump(double amount);
  /// Replays a processor's pending deferred bumps so clock_[proc] is current.
  void ev_touch(int proc);
  void ev_materialize_all();
  void ev_compact_bumps();
  void ev_advance_pristine();
  /// Resets the bump log after a barrier left every clock equal to `t`.
  void ev_barrier_reset(double t);

  const zir::Program& p_;
  const comm::CommPlan& plan_;
  RunConfig cfg_;

  rt::Mesh mesh_;
  zir::IntEnv env_;
  rt::BlockDist dist_;
  Transport transport_;
  rt::Evaluator evaluator_;
  /// cfg_.recorder / cfg_.timeline, resolved once; every hook goes through it.
  const Observers obs_;

  std::vector<double> clock_;                        // per proc
  std::vector<std::vector<rt::LocalArray>> arrays_;  // [proc][array]
  std::vector<rt::Box> declared_;                    // per array
  std::vector<double> scalars_;                      // replicated
  std::vector<CommCounters> counters_;               // per proc
  long long reduction_count_ = 0;
  long long dynamic_comm_count_ = 0;  // communications executed (SPMD-wide)

  std::map<int, std::unique_ptr<GroupExec>> outstanding_;  // by group id

  // Hot-path allocation recycling (bit-identity preserving: every buffer is
  // fully rewritten before use). GroupExec objects — message records with
  // their parts/payload vectors — cycle through a free list so steady-state
  // communication executes with no per-event allocation once capacities
  // have grown to the program's working set (timed by e2ebench's sim rows).
  std::vector<std::unique_ptr<GroupExec>> exec_pool_;
  std::vector<char> participated_;        // scratch: per-proc flags
  std::vector<double> eval_buf_;          // scratch: exec_array_assign RHS
  std::vector<double> reduce_global_;     // scratch: exec_scalar_assign
  std::vector<double> reduce_partials_;   // scratch: exec_scalar_assign

  // Per-statement cost metadata cache.
  struct StmtCost {
    int flops = 0;
    int arrays_touched = 0;
  };
  mutable std::map<int32_t, StmtCost> stmt_cost_cache_;

  /// Event-core state (compiled program + clock bump log); null until
  /// run_event compiles, and in lockstep runs.
  std::unique_ptr<EventState> ev_;

  bool ran_ = false;
};

/// Convenience: plan with `options`, then run. The standard entry point for
/// benches / examples; see also src/driver for the experiment-level API.
RunResult run_program(const zir::Program& program, const comm::CommPlan& plan, RunConfig config);

}  // namespace zc::sim
