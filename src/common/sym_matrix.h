// Symmetric dense matrix with zero diagonal, used for pairwise RTTs.
//
// Only the strict upper triangle is stored (n*(n-1)/2 doubles), halving
// memory for the 226x226 (and larger) latency matrices the simulator carries.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/ensure.h"

namespace geored {

class SymMatrix {
 public:
  SymMatrix() = default;

  /// n x n symmetric matrix, all entries (and the diagonal) zero.
  explicit SymMatrix(std::size_t n) : n_(n), data_(triangle_size(n), 0.0) {}

  /// n x n matrix adopting `upper`, the strict upper triangle in raw()
  /// order (row-major, n*(n-1)/2 entries).
  SymMatrix(std::size_t n, std::vector<double> upper) : n_(n), data_(std::move(upper)) {
    GEORED_ENSURE(data_.size() == triangle_size(n),
                  "SymMatrix triangle must hold n*(n-1)/2 entries");
  }

  std::size_t size() const { return n_; }

  /// Reads entry (i, j). The diagonal is always zero.
  double at(std::size_t i, std::size_t j) const {
    GEORED_ENSURE(i < n_ && j < n_, "SymMatrix index out of range");
    if (i == j) return 0.0;
    return data_[index(i, j)];
  }

  /// Sets entry (i, j) == (j, i). Requires i != j.
  void set(std::size_t i, std::size_t j, double value) {
    GEORED_ENSURE(i < n_ && j < n_, "SymMatrix index out of range");
    GEORED_ENSURE(i != j, "SymMatrix diagonal is fixed at zero");
    data_[index(i, j)] = value;
  }

  /// Raw triangular storage (row-major upper triangle), for serialization.
  const std::vector<double>& raw() const { return data_; }
  std::vector<double>& raw() { return data_; }

 private:
  static std::size_t triangle_size(std::size_t n) { return n * (n - (n > 0 ? 1 : 0)) / 2; }

  std::size_t index(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    // Offset of row i's strict upper triangle, then column displacement.
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

  std::size_t n_ = 0;
  std::vector<double> data_;
};

}  // namespace geored
