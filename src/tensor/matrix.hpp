// Row-major dense matrix of doubles: the storage type for synaptic weight
// blocks W^(l) (rows = receiving neurons j of layer l, columns = sending
// neurons i of layer l-1, matching the paper's w^(l)_{ji} index order).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/contract.hpp"

namespace wnf {

/// Dense row-major matrix. Value-semantic; copies are deep.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construction from nested initialiser lists (tests / small fixtures).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    WNF_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    WNF_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row `r`.
  std::span<double> row(std::size_t r) {
    WNF_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    WNF_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Whole-buffer views (row-major).
  std::span<double> flat() { return {data_.data(), data_.size()}; }
  std::span<const double> flat() const { return {data_.data(), data_.size()}; }

  /// Largest |entry|; 0 for an empty matrix. This is the paper's w^(l)_m.
  double max_abs() const;

  /// Element-wise comparison within `tol`.
  bool approx_equal(const Matrix& other, double tol) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace wnf
