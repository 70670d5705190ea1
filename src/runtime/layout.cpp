#include "src/runtime/layout.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::rt {

Box Box::make(int rank, std::array<long long, kMaxRank> lo, std::array<long long, kMaxRank> hi) {
  ZC_ASSERT(rank >= 1 && rank <= kMaxRank);
  Box b;
  b.rank = rank;
  b.lo = lo;
  b.hi = hi;
  return b;
}

long long Box::extent(int dim) const {
  ZC_ASSERT(dim >= 0 && dim < rank);
  return std::max<long long>(0, hi[dim] - lo[dim] + 1);
}

Box Box::shifted(const std::vector<int>& offsets) const {
  Box b = *this;
  for (int d = 0; d < rank && d < static_cast<int>(offsets.size()); ++d) {
    b.lo[d] += offsets[d];
    b.hi[d] += offsets[d];
  }
  return b;
}

std::vector<Box> Box::subtract(const Box& other) const {
  std::vector<Box> pieces;
  if (empty()) return pieces;
  const Box overlap = intersect(other);
  if (overlap.empty()) {
    pieces.push_back(*this);
    return pieces;
  }
  // Peel slabs off dimension by dimension; the remainder shrinks to the
  // overlap. Deterministic: low slab then high slab, dim 0 outward.
  Box rest = *this;
  for (int d = 0; d < rank; ++d) {
    if (rest.lo[d] < overlap.lo[d]) {
      Box slab = rest;
      slab.hi[d] = overlap.lo[d] - 1;
      pieces.push_back(slab);
      rest.lo[d] = overlap.lo[d];
    }
    if (rest.hi[d] > overlap.hi[d]) {
      Box slab = rest;
      slab.lo[d] = overlap.hi[d] + 1;
      pieces.push_back(slab);
      rest.hi[d] = overlap.hi[d];
    }
  }
  return pieces;
}

std::string Box::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int d = 0; d < rank; ++d) {
    if (d > 0) os << ", ";
    os << lo[d] << ".." << hi[d];
  }
  os << "]";
  return os.str();
}

Box eval_region(const zir::RegionSpec& spec, const zir::IntEnv& env) {
  Box b;
  b.rank = spec.rank();
  ZC_ASSERT(b.rank >= 1 && b.rank <= kMaxRank);
  for (int d = 0; d < b.rank; ++d) {
    b.lo[d] = spec.dims[d].lo.eval(env);
    b.hi[d] = spec.dims[d].hi.eval(env);
  }
  return b;
}

Mesh Mesh::near_square(int procs) {
  ZC_ASSERT(procs >= 1);
  int rows = static_cast<int>(std::sqrt(static_cast<double>(procs)));
  while (rows > 1 && procs % rows != 0) --rows;
  return Mesh{rows, procs / rows};
}

BlockDist::BlockDist(const zir::Program& program, const zir::IntEnv& env, Mesh mesh)
    : mesh_(mesh) {
  if (program.region_count() == 0) throw Error("program declares no regions");
  // Distribution space: bounding box over all declared regions (dims 0, 1;
  // plus dim 2 extent for rank-3 programs).
  bool first = true;
  for (std::size_t i = 0; i < program.region_count(); ++i) {
    const Box b =
        eval_region(program.region(zir::RegionId(static_cast<int32_t>(i))).spec, env);
    if (b.empty()) continue;
    if (first) {
      space_ = b;
      first = false;
      continue;
    }
    // Promote rank if a higher-rank region appears.
    if (b.rank > space_.rank) {
      for (int d = space_.rank; d < b.rank; ++d) {
        space_.lo[d] = b.lo[d];
        space_.hi[d] = b.hi[d];
      }
      space_.rank = b.rank;
    }
    for (int d = 0; d < b.rank; ++d) {
      space_.lo[d] = std::min(space_.lo[d], b.lo[d]);
      space_.hi[d] = std::max(space_.hi[d], b.hi[d]);
    }
  }
  if (first) throw Error("all declared regions are empty");

  const int mesh_dims[2] = {mesh_.rows, mesh_.cols};
  for (int d = 0; d < 2; ++d) {
    const long long extent = d < space_.rank ? space_.extent(d) : 1;
    const int parts = d < space_.rank ? mesh_dims[d] : 1;
    cuts_[d].resize(parts + 1);
    for (int k = 0; k <= parts; ++k) {
      cuts_[d][k] = (d < space_.rank ? space_.lo[d] : 0) + extent * k / parts;
    }
  }
}

long long BlockDist::cut(int dim, int k) const {
  ZC_ASSERT(dim >= 0 && dim < 2);
  ZC_ASSERT(k >= 0 && k < static_cast<int>(cuts_[dim].size()));
  return cuts_[dim][k];
}

Box BlockDist::owned(int proc) const {
  const int r = mesh_.row_of(proc);
  const int c = mesh_.col_of(proc);
  Box b = space_;
  b.lo[0] = cuts_[0][r];
  b.hi[0] = cuts_[0][r + 1] - 1;
  if (space_.rank >= 2) {
    b.lo[1] = cuts_[1][c];
    b.hi[1] = cuts_[1][c + 1] - 1;
  }
  return b;
}

std::vector<int> BlockDist::owners(const Box& b) const {
  std::vector<int> result;
  if (b.empty()) return result;
  // Binary search over the monotonic cut array (replacing the former linear
  // scan, which dominated geometry building at 4096 processors). The window
  // may include empty blocks on over-decomposed meshes; the per-processor
  // intersection test below filters those exactly as the scan did.
  auto part_range = [&](int dim, int parts, long long lo, long long hi, int& first, int& last) {
    const std::vector<long long>& cuts = cuts_[dim];
    // first: the least k with cuts[k+1] - 1 >= lo, i.e. cuts[k+1] > lo.
    first = static_cast<int>(
        std::upper_bound(cuts.begin() + 1, cuts.end(), lo) - (cuts.begin() + 1));
    // last: the greatest k with cuts[k] <= hi.
    last = static_cast<int>(std::upper_bound(cuts.begin(), cuts.end() - 1, hi) -
                            cuts.begin()) -
           1;
    if (first >= parts || last < 0) {
      first = parts;
      last = -1;
    }
  };
  int r0 = 0;
  int r1 = 0;
  int c0 = 0;
  int c1 = 0;
  part_range(0, mesh_.rows, b.lo[0], b.hi[0], r0, r1);
  if (space_.rank >= 2 && b.rank >= 2) {
    part_range(1, mesh_.cols, b.lo[1], b.hi[1], c0, c1);
  } else {
    c1 = mesh_.cols - 1;
  }
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const int proc = mesh_.rank_of(r, c);
      Box cropped = owned(proc);
      cropped.rank = b.rank;
      if (!cropped.intersect(b).empty()) result.push_back(proc);
    }
  }
  return result;
}

}  // namespace zc::rt
