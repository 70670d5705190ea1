#include "src/comm/optimizer.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/comm/interblock.h"
#include "src/prof/prof.h"
#include "src/support/check.h"

namespace zc::comm {

report::BlockRef block_provenance(const zir::Program& program, zir::ProcId proc,
                                  const std::vector<zir::StmtId>& stmts, int block_index) {
  report::BlockRef ref;
  ref.block = block_index;
  ref.proc = program.proc(proc).name;
  if (!stmts.empty()) ref.first_line = program.stmt(stmts.front()).loc.line;
  return ref;
}

std::string to_string(OptLevel level) {
  switch (level) {
    case OptLevel::kBaseline: return "baseline";
    case OptLevel::kRR: return "rr";
    case OptLevel::kCC: return "cc";
    case OptLevel::kPL: return "pl";
  }
  return "?";
}

std::string to_string(CombineHeuristic heuristic) {
  switch (heuristic) {
    case CombineHeuristic::kMaxCombining: return "max-combining";
    case CombineHeuristic::kMaxLatency: return "max-latency";
    case CombineHeuristic::kNested: return "nested";
    case CombineHeuristic::kHybrid: return "hybrid";
  }
  return "?";
}

bool needs_comm(const zir::DirectionDecl& direction) {
  const int distributed_dims = std::min(direction.rank(), 2);
  for (int k = 0; k < distributed_dims; ++k) {
    if (direction.offsets[k] != 0) return true;
  }
  return false;
}

bool CommGroup::has_member(zir::ArrayId array) const {
  for (const Member& m : members) {
    if (m.array == array) return true;
  }
  return false;
}

int BlockPlan::live_transfer_count() const {
  int n = 0;
  for (const Transfer& t : transfers) n += t.redundant ? 0 : 1;
  return n;
}

int CommPlan::static_count() const {
  int n = 0;
  for (const BlockPlan& b : blocks) n += static_cast<int>(b.groups.size());
  return n;
}

int CommPlan::total_transfer_count() const {
  int n = 0;
  for (const BlockPlan& b : blocks) n += static_cast<int>(b.transfers.size());
  return n;
}

void CommPlan::rebuild_index() {
  index_.clear();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!blocks[i].stmts.empty()) index_[blocks[i].stmts.front()] = i;
  }
}

const BlockPlan* CommPlan::find_block(zir::StmtId first_stmt) const {
  const auto it = index_.find(first_stmt);
  return it == index_.end() ? nullptr : &blocks[it->second];
}

namespace {

/// The arrays a block statement writes (at most one: its LHS array).
zir::ArrayId written_array(const zir::Program& p, zir::StmtId sid) {
  const zir::Stmt& s = p.stmt(sid);
  if (s.kind == zir::Stmt::Kind::kArrayAssign) return s.lhs_array;
  return zir::ArrayId{};
}

}  // namespace

std::vector<Transfer> generate_transfers(const zir::Program& program, const Block& block) {
  ZC_PROF_SPAN("opt/generate");
  std::vector<Transfer> transfers;
  std::map<zir::ArrayId, int> last_write;  // block-relative stmt index of last write

  for (int s = 0; s < static_cast<int>(block.stmts.size()); ++s) {
    const zir::Stmt& stmt = program.stmt(block.stmts[s]);
    ZC_ASSERT(stmt.kind == zir::Stmt::Kind::kArrayAssign ||
              stmt.kind == zir::Stmt::Kind::kScalarAssign);

    for (const zir::ShiftRef& ref : collect_shift_refs(program, stmt.rhs)) {
      if (!needs_comm(program.direction(ref.direction))) continue;
      Transfer t;
      t.array = ref.array;
      t.direction = ref.direction;
      t.use_stmt = s;
      const auto it = last_write.find(ref.array);
      // Whole-array semantics: the RHS is read before the LHS is written, so
      // a write at statement w allows a send at insertion point w+1.
      t.earliest_send = it == last_write.end() ? 0 : it->second + 1;
      transfers.push_back(t);
    }

    const zir::ArrayId w = written_array(program, block.stmts[s]);
    if (w.valid()) last_write[w] = s;
  }
  return transfers;
}

namespace {

/// Structural equality of region specs.
bool region_specs_equal(const zir::RegionSpec& a, const zir::RegionSpec& b) {
  if (a.rank() != b.rank()) return false;
  for (int d = 0; d < a.rank(); ++d) {
    if (!a.dims[d].lo.equals(b.dims[d].lo) || !a.dims[d].hi.equals(b.dims[d].hi)) return false;
  }
  return true;
}

/// True if a slice communicated for a use over `cached` is guaranteed to
/// cover a later use over `use`: structurally identical regions always
/// cover; otherwise both must be static and `cached` must contain `use`.
bool region_covers(const zir::Program& program, const zir::RegionSpec& cached,
                   const zir::RegionSpec& use) {
  if (region_specs_equal(cached, use)) return true;
  if (!cached.is_static() || !use.is_static()) return false;
  const zir::IntEnv env = program.default_env();
  long long lo_c = 0;
  long long hi_c = 0;
  long long lo_u = 0;
  long long hi_u = 0;
  if (cached.rank() != use.rank()) return false;
  for (int d = 0; d < cached.rank(); ++d) {
    lo_c = cached.dims[d].lo.eval(env);
    hi_c = cached.dims[d].hi.eval(env);
    lo_u = use.dims[d].lo.eval(env);
    hi_u = use.dims[d].hi.eval(env);
    if (lo_u < lo_c || hi_u > hi_c) return false;
  }
  return true;
}

const zir::RegionSpec& stmt_region(const zir::Program& program, const Block& block, int s) {
  const zir::Stmt& stmt = program.stmt(block.stmts[s]);
  ZC_ASSERT(stmt.region.has_value());
  return *stmt.region;
}

}  // namespace

void apply_redundant_removal(const zir::Program& program, const Block& block,
                             std::vector<Transfer>& transfers, report::PassLog* log,
                             int block_index) {
  ZC_PROF_SPAN("opt/rr");
  // Sweep the block: a transfer is redundant iff the same (array, direction)
  // slice was communicated earlier over a region covering this use, and the
  // array has not been written since (paper §2 / §3.1). Caching state resets
  // at block boundaries because the analysis is intra-block.
  struct CachedSlice {
    const zir::RegionSpec* spec;
    int transfer;  ///< index of the transfer that communicated the slice
  };
  std::map<std::pair<int32_t, int32_t>, std::vector<CachedSlice>> cached;
  std::size_t next = 0;
  for (int s = 0; s < static_cast<int>(block.stmts.size()); ++s) {
    for (; next < transfers.size() && transfers[next].use_stmt == s; ++next) {
      Transfer& t = transfers[next];
      const auto key = std::make_pair(t.array.value, t.direction.value);
      const zir::RegionSpec& use = stmt_region(program, block, s);
      const CachedSlice* coverer = nullptr;
      for (const CachedSlice& prior : cached[key]) {
        if (region_covers(program, *prior.spec, use)) {
          coverer = &prior;
          break;
        }
      }
      if (coverer != nullptr) {
        t.redundant = true;
        if (log != nullptr) {
          report::RRDecision d;
          d.where = block_provenance(program, block.proc, block.stmts, block_index);
          d.transfer = static_cast<int>(next);
          d.array = program.array(t.array).name;
          d.direction = program.direction(t.direction).name;
          d.use_stmt = s;
          d.use_line = program.stmt(block.stmts[s]).loc.line;
          d.covering_block = block_index;
          d.covering_transfer = coverer->transfer;
          log->rr.push_back(std::move(d));
        }
      } else {
        cached[key].push_back({&use, static_cast<int>(next)});
      }
    }
    const zir::ArrayId w = written_array(program, block.stmts[s]);
    if (w.valid()) {
      // Invalidate every cached slice of the written array.
      for (auto& [key, specs] : cached) {
        if (key.first == w.value) specs.clear();
      }
    }
  }
}

long long estimate_slice_elems(const zir::Program& program, const zir::RegionSpec& spec,
                               const zir::DirectionDecl& direction, int mesh_rows,
                               int mesh_cols) {
  const zir::IntEnv env = program.default_env();
  long long elems = 1;
  for (int k = 0; k < spec.rank(); ++k) {
    const int off = k < direction.rank() ? direction.offsets[k] : 0;
    if (off != 0) {
      elems *= std::abs(off);
      continue;
    }
    long long extent = 1;
    const zir::RangeSpec& r = spec.dims[k];
    if (r.lo.is_static() && r.hi.is_static()) {
      extent = std::max<long long>(0, r.hi.eval(env) - r.lo.eval(env) + 1);
    }
    // Dims 0 and 1 are distributed over the mesh; dim 2 is processor-local.
    if (k == 0) extent = (extent + mesh_rows - 1) / mesh_rows;
    if (k == 1) extent = (extent + mesh_cols - 1) / mesh_cols;
    elems *= std::max<long long>(1, extent);
  }
  return elems;
}

namespace {

/// Internal grouping state: a CommGroup plus the data needed for legality
/// and heuristic checks while merging.
struct OpenGroup {
  CommGroup group;
  long long est_elems = 0;     ///< per-processor element estimate (hybrid)
  int max_member_window = 0;   ///< largest single-member feasible window
};

/// Feasible window of a transfer, in statements.
int transfer_window(const Transfer& t) { return t.use_stmt - t.earliest_send; }

/// The use-site region of the statement a transfer first feeds.
const zir::RegionSpec& use_region(const zir::Program& p, const Block& block, const Transfer& t) {
  const zir::Stmt& s = p.stmt(block.stmts[t.use_stmt]);
  ZC_ASSERT(s.region.has_value());
  return *s.region;
}

}  // namespace

std::vector<CommGroup> form_groups(const zir::Program& program, const Block& block,
                                   const std::vector<Transfer>& transfers,
                                   const OptOptions& options, int block_index) {
  ZC_PROF_SPAN("opt/cc");
  std::vector<OpenGroup> open;

  for (const Transfer& t : transfers) {
    if (t.redundant) continue;

    const long long t_elems =
        estimate_slice_elems(program, use_region(program, block, t),
                             program.direction(t.direction), options.est_mesh_rows,
                             options.est_mesh_cols);

    OpenGroup* host = nullptr;
    if (options.combine) {
      for (OpenGroup& g : open) {
        if (g.group.direction != t.direction) continue;
        // Never merge two transfers of the same array: that is redundancy
        // removal's job, not combination's (and is illegal when the array
        // was written in between, which is the only way duplicates survive
        // the rr pass).
        if (g.group.has_member(t.array)) continue;
        const int new_lo = std::max(g.group.earliest_send, t.earliest_send);
        const int new_hi = std::min(g.group.first_use, t.use_stmt);
        // Legality (paper §3.1): a single send point must exist that is
        // after every member's last write and before every member's use.
        if (new_lo > new_hi) continue;

        if (options.heuristic == CombineHeuristic::kMaxLatency) {
          // Combine only when no member's latency-hiding window shrinks:
          // the feasible intervals must coincide exactly (see options.h for
          // why this is the reading that matches the paper's Figure 11).
          if (t.earliest_send != g.group.earliest_send || t.use_stmt != g.group.first_use) {
            continue;
          }
        } else if (options.heuristic == CombineHeuristic::kNested) {
          // Ablation variant: allow complete nesting — the set's minimum
          // window is preserved, but the outer member's window shrinks.
          const bool t_in_g =
              t.earliest_send >= g.group.earliest_send && t.use_stmt <= g.group.first_use;
          const bool g_in_t =
              g.group.earliest_send >= t.earliest_send && g.group.first_use <= t.use_stmt;
          if (!t_in_g && !g_in_t) continue;
        } else if (options.heuristic == CombineHeuristic::kHybrid) {
          // Extension: respect the measured 4 KB knee and keep a usable
          // latency-hiding window.
          if (g.est_elems + t_elems > options.hybrid_max_elems) continue;
          const int max_window = std::max(g.max_member_window, transfer_window(t));
          if (static_cast<double>(new_hi - new_lo) <
              options.hybrid_min_window_fraction * static_cast<double>(max_window)) {
            continue;
          }
        }

        host = &g;
        break;
      }
    }

    if (host != nullptr) {
      host->group.members.push_back({t.array, t.use_stmt, t.transfer_id});
      host->group.earliest_send = std::max(host->group.earliest_send, t.earliest_send);
      host->group.first_use = std::min(host->group.first_use, t.use_stmt);
      host->est_elems += t_elems;
      host->max_member_window = std::max(host->max_member_window, transfer_window(t));
      if (options.pass_log != nullptr) {
        report::CCMerge m;
        m.where = block_provenance(program, block.proc, block.stmts, block_index);
        m.group = static_cast<int>(host - open.data());
        m.heuristic = to_string(options.heuristic);
        m.array = program.array(t.array).name;
        m.use_stmt = t.use_stmt;
        m.use_line = program.stmt(block.stmts[t.use_stmt]).loc.line;
        m.est_elems = t_elems;
        m.group_est_elems = host->est_elems;
        m.members_after = static_cast<int>(host->group.members.size());
        options.pass_log->cc.push_back(std::move(m));
      }
    } else {
      OpenGroup g;
      g.group.transfer_id = t.transfer_id;
      g.group.direction = t.direction;
      g.group.members = {{t.array, t.use_stmt, t.transfer_id}};
      g.group.earliest_send = t.earliest_send;
      g.group.first_use = t.use_stmt;
      g.est_elems = t_elems;
      g.max_member_window = transfer_window(t);
      open.push_back(std::move(g));
    }
  }

  std::vector<CommGroup> groups;
  groups.reserve(open.size());
  for (OpenGroup& g : open) groups.push_back(std::move(g.group));
  return groups;
}

void place_groups(const zir::Program& program, const Block& block,
                  std::vector<CommGroup>& groups, bool pipeline, report::PassLog* log,
                  int block_index) {
  ZC_PROF_SPAN("opt/pl");
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    CommGroup& g = groups[gi];
    g.sr_pos = pipeline ? g.earliest_send : g.first_use;
    g.dn_pos = g.first_use;
    g.dr_pos = g.sr_pos;

    // SV: the transmission must be complete before any member array is
    // overwritten. Find the first write to a member at or after the send.
    int sv = g.dn_pos;
    bool found = false;
    for (int s = g.sr_pos; s < static_cast<int>(block.stmts.size()) && !found; ++s) {
      const zir::ArrayId w = written_array(program, block.stmts[s]);
      if (!w.valid()) continue;
      if (g.has_member(w)) {
        sv = std::max(g.dn_pos, s);
        found = true;
      }
    }
    g.sv_pos = sv;

    if (log != nullptr) {
      report::PLPlacement p;
      p.where = block_provenance(program, block.proc, block.stmts, block_index);
      p.group = static_cast<int>(gi);
      p.direction = program.direction(g.direction).name;
      p.earliest_send = g.earliest_send;
      p.first_use = g.first_use;
      p.sr_pos = g.sr_pos;
      p.dn_pos = g.dn_pos;
      p.sv_pos = g.sv_pos;
      p.sr_hoist = g.first_use - g.sr_pos;
      p.pipelined = pipeline;
      log->pl.push_back(std::move(p));
    }
  }
}

CommPlan plan_communication(const zir::Program& program, const OptOptions& options) {
  ZC_PROF_SPAN("plan_communication");
  report::PassLog* log = options.pass_log;
  if (log != nullptr) log->clear();

  CommPlan plan;
  std::vector<Block> blocks = find_blocks(program);
  int next_transfer_id = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Block& block = blocks[i];
    BlockPlan bp;
    bp.proc = block.proc;
    bp.stmts = block.stmts;
    bp.transfers = generate_transfers(program, block);
    // Identity is assigned before any optimization touches the transfers:
    // generation is option-independent, so ids line up across OptLevels.
    for (Transfer& t : bp.transfers) t.transfer_id = next_transfer_id++;
    if (log != nullptr) {
      report::GenRecord g;
      g.where = block_provenance(program, block.proc, block.stmts, static_cast<int>(i));
      g.stmts = static_cast<int>(block.stmts.size());
      g.transfers = static_cast<int>(bp.transfers.size());
      log->generated.push_back(std::move(g));
    }
    if (options.remove_redundant) {
      apply_redundant_removal(program, block, bp.transfers, log, static_cast<int>(i));
    }
    plan.blocks.push_back(std::move(bp));
  }
  plan.rebuild_index();

  if (options.remove_redundant && options.inter_block) {
    apply_inter_block_removal(program, plan, log);
  }

  int next_id = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    BlockPlan& bp = plan.blocks[i];
    bp.groups = form_groups(program, blocks[i], bp.transfers, options, static_cast<int>(i));
    place_groups(program, blocks[i], bp.groups, options.pipeline, log, static_cast<int>(i));
    for (CommGroup& g : bp.groups) g.id = next_id++;
  }

  // An inter-block kill may have removed a transfer an intra-block decision
  // named as its coverer; re-point every decision at the live chain root.
  if (log != nullptr) log->resolve_rr_coverers();
  return plan;
}

}  // namespace zc::comm
