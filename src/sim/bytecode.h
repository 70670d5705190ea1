// Compiled ZIR: the lowering pass that flattens a (program, comm plan) pair
// into a direct-threaded bytecode, plus the compiled-expression programs the
// event-driven engine core executes (see src/sim/engine_event.cpp).
//
// The lockstep interpreter walks the statement tree per executed statement:
// map lookups to find the block plan, recursive expression evaluation with a
// heap-allocated Value per node, and O(procs) geometry scans per
// communication. Lowering hoists all of that to compile time:
//
//   * control flow (loops, branches, calls, comm insertion points) becomes
//     a flat instruction array with jump targets — calls are inlined
//     (validation guarantees no recursion), block plans are pre-resolved;
//   * expressions become postfix stack programs evaluated row by row —
//     array operands are read in place from storage, temporaries are one
//     row buffer per stack depth, and the operator switch runs once per
//     row, not once per element;
//   * statement cost metadata (flops, arrays touched) and loop-invariant
//     ("static") region boxes are evaluated once;
//   * communication geometry — the point-to-point messages a CommGroup
//     decomposes into — is cached per evaluated member-region key, with
//     transport channels pre-resolved per message.
//
// Everything here preserves the lockstep engine's observable behaviour
// bit-for-bit: the same arithmetic in the same order per element, the same
// transport/recorder/timeline call sequence, the same error messages.
// DESIGN.md §13 states the argument; tests/engine_event_test.cpp pins it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/comm/plan.h"
#include "src/machine/model.h"
#include "src/runtime/darray.h"
#include "src/runtime/eval.h"
#include "src/runtime/layout.h"
#include "src/sim/transport.h"
#include "src/zir/program.h"

namespace zc::sim {

// ---------------------------------------------------------------------------
// Compiled expressions: postfix programs over a scalar stack and a vector
// stack, evaluated one contiguous last-dimension row at a time.

struct ExprStep {
  enum class Op : std::uint8_t {
    kConstS,     ///< push literal on the scalar stack
    kScalarS,    ///< push scalars[a]
    kLoopVarS,   ///< push loop value a (must be bound)
    kConfigS,    ///< push config value a
    kBinSS,      ///< scalar ⊗ scalar
    kUnS,        ///< scalar unary
    kLoadArray,  ///< push vector: array a over the box, read in place
    kLoadShift,  ///< push vector: array a over (box @ direction b), read in place
    kLoadIndex,  ///< push vector: global index in (1-based) dimension a
    kBinVV,      ///< vector ⊗ vector, into the left operand's depth
    kBinVS,      ///< vector ⊗ scalar
    kBinSV,      ///< scalar ⊗ vector
    kUnV,        ///< vector unary, in place
  };
  Op op = Op::kConstS;
  zir::BinOp bin_op = zir::BinOp::kAdd;
  zir::UnOp un_op = zir::UnOp::kNeg;
  std::int32_t a = 0;  ///< array / scalar / config / loop-var / dimension
  std::int32_t b = 0;  ///< direction index (kLoadShift)
  double value = 0.0;  ///< kConstS literal
};

struct ExprProg {
  std::vector<ExprStep> steps;
  bool is_vec = false;  ///< result kind; scalar results splat over the box
  int max_vdepth = 0;   ///< vector-stack high-water mark
};

/// A vector step of an ExprProg bound to one box: scalar operands already
/// popped, array operands located in storage, so the per-row loop does
/// nothing but arithmetic.
struct RowStep {
  ExprStep::Op op = ExprStep::Op::kLoadArray;
  zir::BinOp bin_op = zir::BinOp::kAdd;
  zir::UnOp un_op = zir::UnOp::kNeg;
  int dim = 0;                  ///< kLoadIndex: 0-based dimension
  double scalar = 0.0;          ///< kBinVS / kBinSV: the scalar operand
  const double* src = nullptr;  ///< kLoadArray / kLoadShift: first source element
  long long stride0 = 0;        ///< source step per row of the box's dim 0 ...
  long long stride1 = 0;        ///< ... and dim 1 (rank 3 only)
};

/// Reusable evaluation scratch shared by every ExprProg of a run.
struct ExprScratch {
  std::vector<double> result;            // the box-sized result
  std::vector<std::vector<double>> rows;  // one row buffer per vector-stack depth >= 1
  std::vector<const double*> vstack;     // per row: each depth's current operand
  std::vector<double> sstack;
  std::vector<RowStep> bound;
};

/// Compiles a reduction-free value expression. Throws on Reduce nodes (the
/// engine compiles reduce operands individually).
ExprProg compile_expr(const zir::Program& program, zir::ExprId id);

/// Evaluates `prog` over `box` for one processor's state. Returns the
/// row-major result (box.count() elements) as a reference into `scratch`,
/// valid until the next call. Bit-identical to Evaluator::eval_vector on
/// the source expression, including the out-of-bounds shift error: every
/// operand is bound (and every shift checked) in step order before any
/// arithmetic runs, and the arithmetic is side-effect free, so the first
/// failing shift throws just as it does in the tree walker.
const std::vector<double>& eval_expr_prog(const ExprProg& prog, const zir::Program& program,
                                          const std::vector<rt::LocalArray>& arrays,
                                          const std::vector<double>& scalars,
                                          const zir::IntEnv& env, const rt::Box& box,
                                          ExprScratch& scratch);

// ---------------------------------------------------------------------------
// Instruction stream.

struct Inst {
  enum class Op : std::uint8_t {
    kAssign,   ///< a = index into CompiledSim::assigns
    kScalar,   ///< a = index into CompiledSim::scalar_stmts
    kReduce,   ///< a = index into CompiledSim::reduces
    kCommDR,   ///< a = index into CompiledSim::groups (likewise below)
    kCommSR,
    kCommDN,
    kCommSV,
    kForInit,  ///< a = loop index; b = pc past the loop (empty ranges)
    kForNext,  ///< a = loop index; b = pc of the loop body
    kIf,       ///< a = if index; b = pc of the else branch
    kJump,     ///< b = target pc
    kHalt,
  };
  Op op = Op::kHalt;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

// ---------------------------------------------------------------------------
// Side tables. `stmt` pointers reference the program's arena (stable).
// Mutable fields are per-run execution caches (the engine is single-use).

struct CompiledAssign {
  const zir::Stmt* stmt = nullptr;
  std::int32_t lhs_array = 0;
  ExprProg rhs;
  /// flops·flop_time + arrays_touched·elem_mem_time, precomputed with the
  /// exact expression shape of Engine::stmt_cost.
  double per_elem_cost = 0.0;
  bool region_static = false;  ///< no loop variables in the region bounds
  rt::Box static_box;          ///< pre-evaluated when region_static

  /// Lazily-built active-processor cache for static regions: the processors
  /// whose owned block intersects the region, ascending, with local boxes
  /// and full statement cost precomputed.
  struct Active {
    int proc = 0;
    rt::Box local;
    double cost = 0.0;
  };
  bool actives_ready = false;
  std::vector<Active> actives;
};

struct CompiledScalarStmt {
  const zir::Stmt* stmt = nullptr;  ///< non-reduce scalar assignment
};

struct CompiledReduce {
  const zir::Stmt* stmt = nullptr;
  std::vector<zir::ReduceOp> ops;   ///< DFS order (collect_reduce_exprs)
  std::vector<ExprProg> operands;   ///< one per reduce node, same order
  double per_elem_cost = 0.0;
  bool region_static = false;
  rt::Box static_box;
};

struct CompiledLoop {
  const zir::Stmt* stmt = nullptr;  ///< kFor: bounds, step, loop var
};

struct CompiledIf {
  const zir::Stmt* stmt = nullptr;  ///< kIf: condition
};

/// The point-to-point messages one CommGroup execution decomposes into under
/// fixed member-region boxes, with transport channels pre-resolved. Cached:
/// identical member boxes imply identical geometry (the build depends only
/// on the boxes, the fixed distribution, and the fixed declared regions).
struct CommGeometry {
  struct Part {
    std::int32_t array = 0;
    rt::Box box;
  };
  struct Msg {
    int src = 0;
    int dst = 0;
    long long bytes = 0;
    std::vector<Part> parts;
    Transport::ChannelHandle channel;
    /// SR-captured payload, cleared at DN (retains capacity — the cached
    /// geometry doubles as the allocation pool the lockstep engine keeps
    /// per GroupExec).
    std::vector<double> payload;
  };
  std::vector<Msg> msgs;
  std::vector<int> participants;  ///< procs appearing as src or dst, ascending
};

struct CompiledGroup {
  const comm::CommGroup* group = nullptr;
  struct MemberSpec {
    std::int32_t array = 0;
    const zir::RegionSpec* region = nullptr;
    bool is_static = false;
    rt::Box static_box;  ///< pre-evaluated when is_static
  };
  std::vector<MemberSpec> members;
  bool all_static = true;

  // Geometry caches + the at-most-one outstanding execution (DR..SV).
  bool static_ready = false;
  CommGeometry static_geom;
  std::map<std::vector<long long>, CommGeometry> dynamic_geoms;
  CommGeometry* outstanding = nullptr;
};

/// The compiled form of (program, plan) for one run.
struct CompiledSim {
  std::vector<Inst> code;
  std::vector<CompiledAssign> assigns;
  std::vector<CompiledScalarStmt> scalar_stmts;
  std::vector<CompiledReduce> reduces;
  std::vector<CompiledLoop> loops;
  std::vector<CompiledIf> ifs;
  std::vector<CompiledGroup> groups;
};

// ---------------------------------------------------------------------------
// Event-core runtime state.

/// The event-driven engine core's mutable run state: the compiled program
/// plus the deferred clock-bump log that makes uniform all-processor clock
/// advances O(1).
///
/// Scalar statements, branch evaluations, and loop bookkeeping advance every
/// processor's clock by the same amount. The lockstep core pays O(procs) per
/// such statement; the event core appends the amount to `bump_log` and
/// replays a processor's pending entries only when that clock is next
/// observed (ev_touch). Replay is strictly sequential per processor — never
/// coalesced — because float addition is not associative: (c+a)+b generally
/// differs from c+(a+b) in the last bit, and the contract is bit-identity
/// with lockstep.
///
/// Pristine memoization: a processor untouched since the last barrier
/// (cursor 0, clock bit-equal to `pristine_base`) would replay exactly the
/// shared prefix every other pristine processor replays. `pristine_value`
/// caches that rolling sum (extended incrementally through `pristine_len`),
/// so materializing P idle processors at a barrier costs O(P + log entries)
/// instead of O(P · log entries).
struct EventState {
  CompiledSim sim;
  ExprScratch scratch;

  // Deferred uniform clock bumps.
  std::vector<double> bump_log;
  std::vector<std::size_t> bump_cursor;  ///< per proc: log entries replayed
  double pristine_base = 0.0;   ///< clock value of an untouched processor
  double pristine_value = 0.0;  ///< pristine_base + bump_log[0..pristine_len)
  std::size_t pristine_len = 0;

  /// Runtime frame of an active counted loop (kForInit..kForNext).
  struct ForFrame {
    std::int32_t loop = 0;  ///< index into CompiledSim::loops
    long long i = 0;
    long long hi = 0;
    long long step = 1;
    long long old_value = 0;  ///< saved binding of the loop variable
    bool was_bound = false;
  };
  std::vector<ForFrame> for_stack;

  // Reusable scratch (fully rewritten before each use).
  std::vector<double> reduce_global;
  std::vector<rt::Box> member_boxes;
  std::vector<long long> geom_key;
};

/// Lowers the entry procedure (calls inlined, block plans pre-resolved,
/// comm call slots expanded in DR/SR/DN/SV order at each insertion point).
/// `env` carries the run's config values, fixing every loop-invariant
/// region at compile time; `machine` prices the per-statement cost model.
CompiledSim compile_sim(const zir::Program& program, const comm::CommPlan& plan,
                        const zir::IntEnv& env, const machine::MachineModel& machine);

}  // namespace zc::sim
