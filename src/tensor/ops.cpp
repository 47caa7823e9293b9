#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

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

// The block kernels' tiles. A Lanes value holds one row's sums for two
// probes; the `double` instantiations of the same tiles finish an odd
// probe. Accumulators are named locals, so they stay in registers (a stack
// array of them left to the vectorizer ran 2.6-3.7x slower than gemv).
using Lanes = double __attribute__((vector_size(16)));

template <typename V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

template <typename V>
V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);  // unaligned
  return v;
}

template <typename V>
void store(double* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// `w` in every lane.
template <typename V>
V splat(double w) {
  if constexpr (std::is_same_v<V, double>) {
    return w;
  } else {
    return V{w, w};
  }
}

// The column of a row's k-th term: a dense row reads every column in
// order; a CSR row reads its edges (a `const std::size_t*` indexes alike).
struct EveryColumn {
  std::size_t operator[](std::size_t k) const { return k; }
};

// One row's sums over its `n` terms for probes [0, 4 * kWidth<V>) of the
// block at x and y (probe stride `probes`): four vectors of lanes, each
// term's weight broadcast across them.
template <typename V, typename Cols>
void row_x4(const double* w, Cols cols, std::size_t n, const double* x,
            std::size_t probes, double* y) {
  constexpr std::size_t k = kWidth<V>;
  V s0{};
  V s1{};
  V s2{};
  V s3{};
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t c = cols[e];
    const V wc = splat<V>(w[c]);
    const double* xc = x + c * probes;
    const V t0 = wc * load<V>(xc);
    const V t1 = wc * load<V>(xc + k);
    const V t2 = wc * load<V>(xc + 2 * k);
    const V t3 = wc * load<V>(xc + 3 * k);
    s0 += t0;
    s1 += t1;
    s2 += t2;
    s3 += t3;
  }
  store(y, s0);
  store(y + k, s1);
  store(y + 2 * k, s2);
  store(y + 3 * k, s3);
}

// row_x4 for probes [0, kWidth<V>): one vector of lanes.
template <typename V, typename Cols>
void row_x1(const double* w, Cols cols, std::size_t n, const double* x,
            std::size_t probes, double* y) {
  V s{};
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t c = cols[e];
    const V t = splat<V>(w[c]) * load<V>(x + c * probes);
    s += t;
  }
  store(y, s);
}

// Every probe of one row: eight at a time, then pairs, then an odd one.
template <typename Cols>
void row_block(const double* w, Cols cols, std::size_t n, const double* x,
               std::size_t probes, double* y) {
  constexpr std::size_t k = kWidth<Lanes>;
  std::size_t p = 0;
  for (; p + 4 * k <= probes; p += 4 * k) {
    row_x4<Lanes>(w, cols, n, x + p, probes, y + p);
  }
  for (; p + k <= probes; p += k) {
    row_x1<Lanes>(w, cols, n, x + p, probes, y + p);
  }
  if (p < probes) row_x1<double>(w, cols, n, x + p, probes, y + p);
}

// Three dense rows (row stride `cols`) for probes [0, 4 * kWidth<V>):
// twelve sums, four vectors per row, sharing each column's four x loads.
template <typename V>
void rows3_x4(const double* w, std::size_t cols, const double* x,
              std::size_t probes, double* y) {
  constexpr std::size_t k = kWidth<V>;
  const double* w0 = w;
  const double* w1 = w0 + cols;
  const double* w2 = w1 + cols;
  V s00{};
  V s01{};
  V s02{};
  V s03{};
  V s10{};
  V s11{};
  V s12{};
  V s13{};
  V s20{};
  V s21{};
  V s22{};
  V s23{};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* xc = x + c * probes;
    const V x0 = load<V>(xc);
    const V x1 = load<V>(xc + k);
    const V x2 = load<V>(xc + 2 * k);
    const V x3 = load<V>(xc + 3 * k);
    const V a0 = splat<V>(w0[c]);
    const V t00 = a0 * x0;
    const V t01 = a0 * x1;
    const V t02 = a0 * x2;
    const V t03 = a0 * x3;
    s00 += t00;
    s01 += t01;
    s02 += t02;
    s03 += t03;
    const V a1 = splat<V>(w1[c]);
    const V t10 = a1 * x0;
    const V t11 = a1 * x1;
    const V t12 = a1 * x2;
    const V t13 = a1 * x3;
    s10 += t10;
    s11 += t11;
    s12 += t12;
    s13 += t13;
    const V a2 = splat<V>(w2[c]);
    const V t20 = a2 * x0;
    const V t21 = a2 * x1;
    const V t22 = a2 * x2;
    const V t23 = a2 * x3;
    s20 += t20;
    s21 += t21;
    s22 += t22;
    s23 += t23;
  }
  double* y0 = y;
  double* y1 = y0 + probes;
  double* y2 = y1 + probes;
  store(y0, s00);
  store(y0 + k, s01);
  store(y0 + 2 * k, s02);
  store(y0 + 3 * k, s03);
  store(y1, s10);
  store(y1 + k, s11);
  store(y1 + 2 * k, s12);
  store(y1 + 3 * k, s13);
  store(y2, s20);
  store(y2 + k, s21);
  store(y2 + 2 * k, s22);
  store(y2 + 3 * k, s23);
}

// rows3_x4 for probes [0, kWidth<V>): one vector per row.
template <typename V>
void rows3_x1(const double* w, std::size_t cols, const double* x,
              std::size_t probes, double* y) {
  const double* w0 = w;
  const double* w1 = w0 + cols;
  const double* w2 = w1 + cols;
  V s0{};
  V s1{};
  V s2{};
  for (std::size_t c = 0; c < cols; ++c) {
    const V xc = load<V>(x + c * probes);
    const V t0 = splat<V>(w0[c]) * xc;
    const V t1 = splat<V>(w1[c]) * xc;
    const V t2 = splat<V>(w2[c]) * xc;
    s0 += t0;
    s1 += t1;
    s2 += t2;
  }
  store(y, s0);
  store(y + probes, s1);
  store(y + 2 * probes, s2);
}

// Every probe of three dense rows: eight at a time, then pairs, then an
// odd one.
void rows3_block(const double* w, std::size_t cols, const double* x,
                 std::size_t probes, double* y) {
  constexpr std::size_t k = kWidth<Lanes>;
  std::size_t p = 0;
  for (; p + 4 * k <= probes; p += 4 * k) {
    rows3_x4<Lanes>(w, cols, x + p, probes, y + p);
  }
  for (; p + k <= probes; p += k) {
    rows3_x1<Lanes>(w, cols, x + p, probes, y + p);
  }
  if (p < probes) rows3_x1<double>(w, cols, x + p, probes, y + p);
}

// The dense block product of a row-major rows x cols block `w`.
void dense_block(const double* w, std::size_t rows, std::size_t cols,
                 const double* x, std::size_t probes, double* y) {
  std::size_t r = 0;
  for (; r + 3 <= rows; r += 3) {
    rows3_block(w + r * cols, cols, x, probes, y + r * probes);
  }
  for (; r < rows; ++r) {
    row_block(w + r * cols, EveryColumn{}, cols, x, probes, y + r * probes);
  }
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

void gemv_block(const Matrix& a, std::span<const double> x,
                std::size_t probes, std::span<double> y) {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == a.cols() * probes);
  WNF_EXPECTS(y.size() == a.rows() * probes);
  dense_block(a.flat().data(), a.rows(), a.cols(), x.data(), probes,
              y.data());
}

void gemv_csr_block(const Matrix& a, std::span<const std::size_t> row_ptr,
                    std::span<const std::size_t> cols,
                    std::span<const double> x, std::size_t probes,
                    std::span<double> y) {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == a.cols() * probes);
  WNF_EXPECTS(y.size() == a.rows() * probes);
  WNF_EXPECTS(row_ptr.size() == a.rows() + 1);
  WNF_EXPECTS(row_ptr.empty() || row_ptr[a.rows()] == cols.size());
  const std::size_t stride = a.cols();
  const double* w = a.flat().data();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    row_block(w + r * stride, cols.data() + row_ptr[r],
              row_ptr[r + 1] - row_ptr[r], x.data(), probes,
              y.data() + r * probes);
  }
}

void dot_block(std::span<const double> w, std::span<const double> x,
               std::size_t probes, std::span<double> y) {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == w.size() * probes);
  WNF_EXPECTS(y.size() == probes);
  row_block(w.data(), EveryColumn{}, w.size(), x.data(), probes, y.data());
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
