// Index-space geometry: boxes (rectangular index sets), the 2-D block
// distribution over a virtual processor mesh, and per-processor ownership.
//
// Per the paper (§3.1): all arrays are trivially aligned — element (i,j) of
// every array lives on the same processor — and block distributed across a
// two-dimensional virtual processor mesh. Rank-3 arrays distribute their
// first two dimensions; the third is processor-local.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/support/check.h"
#include "src/zir/program.h"

namespace zc::rt {

inline constexpr int kMaxRank = 3;

/// A rectangular box of global indices, `rank` dims of inclusive [lo, hi].
/// Any lo > hi means the box is empty.
struct Box {
  int rank = 0;
  std::array<long long, kMaxRank> lo{};
  std::array<long long, kMaxRank> hi{};

  [[nodiscard]] static Box make(int rank, std::array<long long, kMaxRank> lo,
                                std::array<long long, kMaxRank> hi);

  [[nodiscard]] bool empty() const {
    for (int d = 0; d < rank; ++d) {
      if (lo[d] > hi[d]) return true;
    }
    return rank == 0;
  }
  [[nodiscard]] long long extent(int dim) const;
  [[nodiscard]] long long count() const {
    if (empty()) return 0;
    long long n = 1;
    for (int d = 0; d < rank; ++d) n *= hi[d] - lo[d] + 1;
    return n;
  }
  [[nodiscard]] bool contains(const Box& inner) const {
    if (inner.empty()) return true;
    if (empty() || inner.rank != rank) return false;
    for (int d = 0; d < rank; ++d) {
      if (inner.lo[d] < lo[d] || inner.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// Shifts the whole box by the direction's offsets (dims beyond the
  /// direction's rank are unshifted).
  [[nodiscard]] Box shifted(const std::vector<int>& offsets) const;

  [[nodiscard]] Box intersect(const Box& other) const {
    ZC_ASSERT(rank == other.rank);
    Box b;
    b.rank = rank;
    for (int d = 0; d < rank; ++d) {
      b.lo[d] = std::max(lo[d], other.lo[d]);
      b.hi[d] = std::min(hi[d], other.hi[d]);
    }
    return b;
  }

  /// `*this` minus `other` as a list of disjoint boxes (≤ 2·rank pieces),
  /// in a deterministic dim-major order.
  [[nodiscard]] std::vector<Box> subtract(const Box& other) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Box&, const Box&) = default;
};

/// Evaluates a RegionSpec to a Box under `env` (loop variables bound as in
/// the current execution context). Empty ranges yield an empty box.
Box eval_region(const zir::RegionSpec& spec, const zir::IntEnv& env);

/// The processor mesh: `rows x cols` processors, row-major ranks.
struct Mesh {
  int rows = 1;
  int cols = 1;

  [[nodiscard]] int procs() const { return rows * cols; }
  [[nodiscard]] int rank_of(int r, int c) const { return r * cols + c; }
  [[nodiscard]] int row_of(int rank) const { return rank / cols; }
  [[nodiscard]] int col_of(int rank) const { return rank % cols; }

  /// The most interior processor — the one the paper's per-processor dynamic
  /// counts are measured on (it has neighbors on all sides when possible).
  [[nodiscard]] int center_rank() const { return rank_of(rows / 2, cols / 2); }

  /// A near-square factorization of `procs` (rows <= cols).
  [[nodiscard]] static Mesh near_square(int procs);
};

/// Block distribution of the program's global index space over a mesh.
/// The distribution space is the bounding box of all declared regions
/// (so border rows/columns belong to edge processors), dims 0 and 1 only.
class BlockDist {
 public:
  BlockDist(const zir::Program& program, const zir::IntEnv& env, Mesh mesh);

  [[nodiscard]] const Mesh& mesh() const { return mesh_; }
  [[nodiscard]] const Box& space() const { return space_; }
  [[nodiscard]] int program_rank() const { return space_.rank; }

  /// The sub-box of the distribution space owned by `proc` (dim 2, if any,
  /// is whole). May be empty on over-decomposed meshes.
  [[nodiscard]] Box owned(int proc) const;

  /// All processors whose owned box intersects `b` (small: scans the
  /// bounding proc-coordinate window of `b`).
  [[nodiscard]] std::vector<int> owners(const Box& b) const;

  /// Block boundaries in `dim` (0 or 1): processor index `k` owns
  /// [cut(dim,k), cut(dim,k+1) - 1].
  [[nodiscard]] long long cut(int dim, int k) const;

 private:
  Mesh mesh_;
  Box space_;
  std::array<std::vector<long long>, 2> cuts_;
};

}  // namespace zc::rt
