// Per-processor storage for one distributed array: the owned block plus a
// fluff (ghost) margin wide enough for every direction the program declares.
// Fluff cells hold cached copies of neighbor-owned elements and are filled
// only by communication — so a miscompiled communication plan produces wrong
// numbers, which the golden tests catch.
#pragma once

#include <vector>

#include "src/runtime/layout.h"
#include "src/zir/program.h"

namespace zc::rt {

class LocalArray {
 public:
  /// `owned`: this processor's part of the array's declared region (may be
  /// empty). `declared`: the full declared region. `fluff`: margin width per
  /// dimension. Storage covers owned expanded by fluff, clamped to declared
  /// (fluff never extends past the declared region: those cells cannot be
  /// read by a valid program).
  LocalArray(Box owned, const Box& declared, const std::array<long long, kMaxRank>& fluff);

  LocalArray() = default;

  [[nodiscard]] const Box& owned() const { return owned_; }
  [[nodiscard]] const Box& storage_box() const { return storage_; }

  [[nodiscard]] bool covers(const Box& b) const { return storage_.contains(b); }

  /// Element accessors by global index (must lie within the storage box).
  [[nodiscard]] double at(long long i, long long j = 0, long long k = 0) const;
  double& at(long long i, long long j = 0, long long k = 0);

  /// Pointer to the element at a global index (within the storage box).
  /// The last dimension is contiguous from there; `stride(d)` is the step
  /// between neighbours in dimension d.
  [[nodiscard]] const double* data_at(long long i, long long j = 0, long long k = 0) const {
    return data_.data() + offset(i, j, k);
  }
  [[nodiscard]] long long stride(int dim) const { return stride_[dim]; }

  /// Bulk copy of `b` (within the storage box) into `out`, row-major
  /// (dim 0 outer, last dim contiguous). `out` must hold b.count() doubles.
  void read_box(const Box& b, double* out) const;

  /// Bulk write of `b` from `in`, same layout.
  void write_box(const Box& b, const double* in);

  /// Fills the whole allocation with `value` (tests / init).
  void fill(double value);

  [[nodiscard]] std::size_t allocation_size() const { return data_.size(); }

 private:
  [[nodiscard]] std::size_t offset(long long i, long long j, long long k) const;

  Box owned_;
  Box storage_;
  std::array<long long, kMaxRank> stride_{};
  std::vector<double> data_;
};

/// Computes the fluff width needed per dimension: the max |offset| over all
/// declared directions (at least 0). Distributed and local dims both get
/// margins — rank-3 dim-2 shifts read within the declared region, which the
/// storage clamp already covers.
std::array<long long, kMaxRank> fluff_widths(const zir::Program& program);

}  // namespace zc::rt
