#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace wnf {

// gemv and gemv_csr work on blocks of four rows. Each row keeps its own
// accumulator, so a block only interleaves four independent add chains (the
// single chain of a one-row loop is latency-bound); it never changes the
// order in which any one row is summed.

namespace {

// sum + w[c] * x[c] over the CSR edges [from, to), left to right.
double csr_row_sum(double sum, const double* w, const std::size_t* cols,
                   const double* x, std::size_t from, std::size_t to) {
  for (std::size_t e = from; e < to; ++e) {
    const std::size_t c = cols[e];
    const double term = w[c] * x[c];
    sum += term;
  }
  return sum;
}

}  // namespace

void gemv(const Matrix& a, std::span<const double> x, std::span<double> y) {
  WNF_EXPECTS(x.size() == a.cols());
  WNF_EXPECTS(y.size() == a.rows());
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  const double* w = a.flat().data();
  const double* xs = x.data();
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* w0 = w + r * cols;
    const double* w1 = w0 + cols;
    const double* w2 = w1 + cols;
    const double* w3 = w2 + cols;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double xc = xs[c];
      const double t0 = w0[c] * xc;
      const double t1 = w1[c] * xc;
      const double t2 = w2[c] * xc;
      const double t3 = w3[c] * xc;
      s0 += t0;
      s1 += t1;
      s2 += t2;
      s3 += t3;
    }
    y[r] = s0;
    y[r + 1] = s1;
    y[r + 2] = s2;
    y[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const double* wr = w + r * cols;
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double term = wr[c] * xs[c];
      sum += term;
    }
    y[r] = sum;
  }
}

void gemv_csr(const Matrix& a, std::span<const std::size_t> row_ptr,
              std::span<const std::size_t> cols, std::span<const double> x,
              std::span<double> y) {
  WNF_EXPECTS(x.size() == a.cols());
  WNF_EXPECTS(y.size() == a.rows());
  WNF_EXPECTS(row_ptr.size() == a.rows() + 1);
  WNF_EXPECTS(row_ptr.empty() || row_ptr[a.rows()] == cols.size());
  const std::size_t rows = a.rows();
  const std::size_t stride = a.cols();
  const double* w = a.flat().data();
  const std::size_t* cs = cols.data();
  const double* xs = x.data();
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* w0 = w + r * stride;
    const double* w1 = w0 + stride;
    const double* w2 = w1 + stride;
    const double* w3 = w2 + stride;
    const std::size_t b0 = row_ptr[r];
    const std::size_t b1 = row_ptr[r + 1];
    const std::size_t b2 = row_ptr[r + 2];
    const std::size_t b3 = row_ptr[r + 3];
    const std::size_t b4 = row_ptr[r + 4];
    // Interleave the four rows over their common prefix, then finish each
    // row's own tail; every row still sums its edges in CSR order.
    const std::size_t common =
        std::min({b1 - b0, b2 - b1, b3 - b2, b4 - b3});
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::size_t k = 0; k < common; ++k) {
      const std::size_t c0 = cs[b0 + k];
      const std::size_t c1 = cs[b1 + k];
      const std::size_t c2 = cs[b2 + k];
      const std::size_t c3 = cs[b3 + k];
      const double t0 = w0[c0] * xs[c0];
      const double t1 = w1[c1] * xs[c1];
      const double t2 = w2[c2] * xs[c2];
      const double t3 = w3[c3] * xs[c3];
      s0 += t0;
      s1 += t1;
      s2 += t2;
      s3 += t3;
    }
    y[r] = csr_row_sum(s0, w0, cs, xs, b0 + common, b1);
    y[r + 1] = csr_row_sum(s1, w1, cs, xs, b1 + common, b2);
    y[r + 2] = csr_row_sum(s2, w2, cs, xs, b2 + common, b3);
    y[r + 3] = csr_row_sum(s3, w3, cs, xs, b3 + common, b4);
  }
  for (; r < rows; ++r) {
    y[r] = csr_row_sum(0.0, w + r * stride, cs, xs, row_ptr[r],
                       row_ptr[r + 1]);
  }
}

void gemv_transposed(const Matrix& a, std::span<const double> x,
                     std::span<double> y) {
  WNF_EXPECTS(x.size() == a.rows());
  WNF_EXPECTS(y.size() == a.cols());
  std::fill(y.begin(), y.end(), 0.0);
  // Row-major friendly order: stream each row of A once.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < row.size(); ++c) y[c] += row[c] * xr;
  }
}

void rank1_update(Matrix& a, double alpha, std::span<const double> x,
                  std::span<const double> y) {
  WNF_EXPECTS(x.size() == a.rows());
  WNF_EXPECTS(y.size() == a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double ax = alpha * x[r];
    if (ax == 0.0) continue;
    const auto row = a.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += ax * y[c];
  }
}

double dot(std::span<const double> x, std::span<const double> y) {
  WNF_EXPECTS(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double max_abs(std::span<const double> x) {
  double best = 0.0;
  for (double value : x) best = std::max(best, std::fabs(value));
  return best;
}

}  // namespace wnf
