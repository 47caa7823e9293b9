#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

// The 4- and 8-lane block paths need GCC/Clang target attributes and
// __builtin_cpu_supports; elsewhere the two-lane path is the only one.
#if defined(__x86_64__) && defined(__GNUC__)
#define WNF_LANE_DISPATCH 1
#else
#define WNF_LANE_DISPATCH 0
#endif

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

// The block kernels' tiles. A lane vector V holds one row's sums for
// kWidth<V> probes (V = double finishes an odd probe): two-wide on every
// target (lanes2), 4- and 8-wide under AVX2 and AVX-512F (lanes4, lanes8).
template <typename V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

// The column of a row's k-th term: a dense row reads every column in
// order; a CSR row reads its edges (a `const std::size_t*` indexes alike).
struct EveryColumn {
  std::size_t operator[](std::size_t k) const { return k; }
};

// One tile: the sums of R rows (weights at row stride `stride`) over their
// `n` terms, for probes [0, Q * kWidth<V>) of the block at x and y (probe
// stride `probes`). Each term loads its column's Q vectors once and
// multiplies each row's weight into them; the scalar-vector product copies
// the weight into every lane (never an add: 0.0 + -0.0 is +0.0).
//
// The R * Q accumulators are an array indexed only by the packs, so after
// SRA they are registers (an array left to the vectorizer's loops ran
// 2.6-3.7x slower than gemv). Tiles are always inlined, so each compiles
// with its caller's target, and no vector crosses a call: a 32- or 64-byte
// vector passed to a function without AVX would change the ABI.
template <typename V, std::size_t R, std::size_t Q, typename Cols,
          std::size_t... I, std::size_t... J>
[[gnu::always_inline]] inline void tile(const double* w, std::size_t stride,
                                        Cols cols, std::size_t n,
                                        const double* x, std::size_t probes,
                                        double* y, std::index_sequence<I...>,
                                        std::index_sequence<J...>) {
  constexpr std::size_t k = kWidth<V>;
  V s[R * Q] = {};
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t c = cols[e];
    V xc[Q];
    (std::memcpy(&xc[J], x + c * probes + J * k, sizeof(V)), ...);
    ((s[I] += w[I / Q * stride + c] * xc[I % Q]), ...);
  }
  (std::memcpy(y + I / Q * probes + I % Q * k, &s[I], sizeof(V)), ...);
}

template <typename V, std::size_t R, std::size_t Q, typename Cols>
[[gnu::always_inline]] inline void tile(const double* w, std::size_t stride,
                                        Cols cols, std::size_t n,
                                        const double* x, std::size_t probes,
                                        double* y) {
  tile<V, R, Q>(w, stride, cols, n, x, probes, y,
                std::make_index_sequence<R * Q>{},
                std::make_index_sequence<Q>{});
}

// The last `left` rows (fewer than 2H) of a dense block for probes
// [0, Q * kWidth<V>): tiles of H, H/2, ..., 1 rows as the bits of `left`
// say, so a 64-row layer ends on a four-row tile, not on one-chain rows.
template <typename V, std::size_t H, std::size_t Q>
[[gnu::always_inline]] inline void dense_tail(const double* w,
                                              std::size_t left,
                                              std::size_t cols,
                                              const double* x,
                                              std::size_t probes, double* y) {
  if (left >= H) {
    tile<V, H, Q>(w, cols, EveryColumn{}, cols, x, probes, y);
    w += H * cols;
    y += H * probes;
    left -= H;
  }
  if constexpr (H > 1) dense_tail<V, H / 2, Q>(w, left, cols, x, probes, y);
}

// Every row of a row-major rows x cols block `w` for probes
// [0, Q * kWidth<V>): R x Q tiles, then the remaining rows.
template <typename V, std::size_t R, std::size_t Q>
[[gnu::always_inline]] inline void dense_rows(const double* w,
                                              std::size_t rows,
                                              std::size_t cols,
                                              const double* x,
                                              std::size_t probes, double* y) {
  std::size_t r = 0;
  for (; r + R <= rows; r += R) {
    tile<V, R, Q>(w + r * cols, cols, EveryColumn{}, cols, x, probes,
                  y + r * probes);
  }
  dense_tail<V, std::bit_floor(R - 1), Q>(w + r * cols, rows - r, cols, x,
                                          probes, y + r * probes);
}

// Probes [0, count) of a dense block in kWidth<V>-lane tiles of twelve sums:
// 3 x 4 per 4k probes, then 6 x 2 for 2k and 12 x 1 for k. Returns the
// probes covered, count rounded down to a multiple of k; the caller hands
// the rest to a narrower path.
template <typename V>
[[gnu::always_inline]] inline std::size_t dense_lanes(
    const double* w, std::size_t rows, std::size_t cols, const double* x,
    std::size_t probes, std::size_t count, double* y) {
  constexpr std::size_t k = kWidth<V>;
  std::size_t p = 0;
  for (; p + 4 * k <= count; p += 4 * k) {
    dense_rows<V, 3, 4>(w, rows, cols, x + p, probes, y + p);
  }
  if (p + 2 * k <= count) {
    dense_rows<V, 6, 2>(w, rows, cols, x + p, probes, y + p);
    p += 2 * k;
  }
  if (p + k <= count) {
    dense_rows<V, 12, 1>(w, rows, cols, x + p, probes, y + p);
    p += k;
  }
  return p;
}

// Each path computes probes [0, count) of a block whose probe stride is
// `probes`, in its own lanes as far as they fill, and hands the rest to the
// next narrower path.
namespace lanes2 {

using V = double __attribute__((vector_size(16)));

void dense(const double* w, std::size_t rows, std::size_t cols,
           const double* x, std::size_t probes, std::size_t count,
           double* y) {
  const std::size_t p = dense_lanes<V>(w, rows, cols, x, probes, count, y);
  if (p < count) {
    dense_rows<double, 12, 1>(w, rows, cols, x + p, probes, y + p);
  }
}

}  // namespace lanes2

#if WNF_LANE_DISPATCH
namespace lanes4 {

using V = double __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void dense(const double* w, std::size_t rows,
                                           std::size_t cols, const double* x,
                                           std::size_t probes,
                                           std::size_t count, double* y) {
  const std::size_t p = dense_lanes<V>(w, rows, cols, x, probes, count, y);
  if (p < count) lanes2::dense(w, rows, cols, x + p, probes, count - p, y + p);
}

}  // namespace lanes4

namespace lanes8 {

using V = double __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) void dense(const double* w,
                                              std::size_t rows,
                                              std::size_t cols,
                                              const double* x,
                                              std::size_t probes,
                                              std::size_t count, double* y) {
  const std::size_t p = dense_lanes<V>(w, rows, cols, x, probes, count, y);
  if (p < count) lanes4::dense(w, rows, cols, x + p, probes, count - p, y + p);
}

}  // namespace lanes8
#endif

// The dense block product of a row-major rows x cols block `w` on the
// `lanes`-wide path.
void dense_block(std::size_t lanes, const double* w, std::size_t rows,
                 std::size_t cols, const double* x, std::size_t probes,
                 double* y) {
  const auto widths = detail::block_lane_widths();
  WNF_EXPECTS(std::find(widths.begin(), widths.end(), lanes) != widths.end());
#if WNF_LANE_DISPATCH
  if (lanes == 8) return lanes8::dense(w, rows, cols, x, probes, probes, y);
  if (lanes == 4) return lanes4::dense(w, rows, cols, x, probes, probes, y);
#endif
  lanes2::dense(w, rows, cols, x, probes, probes, y);
}

// Every probe of one CSR row, two lanes wide: 1 x 4 tiles per eight probes,
// then pairs, then an odd one. CSR rows share no columns, so a row is the
// tile.
void csr_row_block(const double* w, const std::size_t* cols, std::size_t n,
                   const double* x, std::size_t probes, double* y) {
  using V = lanes2::V;
  constexpr std::size_t k = kWidth<V>;
  std::size_t p = 0;
  for (; p + 4 * k <= probes; p += 4 * k) {
    tile<V, 1, 4>(w, 0, cols, n, x + p, probes, y + p);
  }
  for (; p + k <= probes; p += k) {
    tile<V, 1, 1>(w, 0, cols, n, x + p, probes, y + p);
  }
  if (p < probes) tile<double, 1, 1>(w, 0, cols, n, x + p, probes, y + p);
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

namespace detail {

std::span<const std::size_t> block_lane_widths() {
  static constexpr std::size_t kWidths[] = {2, 4, 8};
#if WNF_LANE_DISPATCH
  // Found on first use: a function-local static, not a global constructor,
  // so __builtin_cpu_supports never runs before the CPU model is set up.
  static const std::size_t supported = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) return std::size_t{1};
    return std::size_t{__builtin_cpu_supports("avx512f") ? 3u : 2u};
  }();
#else
  constexpr std::size_t supported = 1;
#endif
  return {kWidths, supported};
}

void gemv_block(std::size_t lanes, const Matrix& a, std::span<const double> x,
                std::size_t probes, std::span<double> y) {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == a.cols() * probes);
  WNF_EXPECTS(y.size() == a.rows() * probes);
  dense_block(lanes, a.flat().data(), a.rows(), a.cols(), x.data(), probes,
              y.data());
}

void dot_block(std::size_t lanes, std::span<const double> w,
               std::span<const double> x, std::size_t probes,
               std::span<double> y) {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == w.size() * probes);
  WNF_EXPECTS(y.size() == probes);
  dense_block(lanes, w.data(), 1, w.size(), x.data(), probes, y.data());
}

}  // namespace detail

void gemv_block(const Matrix& a, std::span<const double> x,
                std::size_t probes, std::span<double> y) {
  detail::gemv_block(detail::block_lane_widths().back(), a, x, probes, y);
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
    csr_row_block(w + r * stride, cols.data() + row_ptr[r],
                  row_ptr[r + 1] - row_ptr[r], x.data(), probes,
                  y.data() + r * probes);
  }
}

void dot_block(std::span<const double> w, std::span<const double> x,
               std::size_t probes, std::span<double> y) {
  detail::dot_block(detail::block_lane_widths().back(), w, x, probes, y);
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
