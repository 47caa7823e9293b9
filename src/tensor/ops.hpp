// Dense kernels used by the forward/backward passes. gemv is the hot path
// (one per layer per input).
//
// Kernel invariant: gemv and gemv_csr compute each output row as one sum
// that starts at 0.0 and adds w * x over the row's columns (or CSR edges)
// left to right, one rounded multiply and one rounded add per term. No
// fused multiply-add: the `wnf` target compiles with -ffp-contract=off
// (PUBLIC, so every consumer inherits it), because GCC otherwise contracts
// `s += w * x` into an FMA on any -march that has one. Rows are computed
// four at a time with independent accumulators for speed, which never
// changes any row's summation order, so outputs are bit-identical to the
// one-row-at-a-time loop and CSR stays bit-identical to dense.
//
// The block kernels (gemv_block, gemv_csr_block, dot_block) keep the same
// invariant across a block of P probes stored probe-minor: x[c * P + p] is
// coordinate c of probe p, y[r * P + p] is row r of probe p. Each SIMD lane
// holds one (row, probe) sum, started at 0.0 and added left to right with a
// separate multiply and add; no operation mixes lanes. So probe p of a
// block is bit-identical to gemv (or gemv_csr, or dot) over probe p alone,
// for any P >= 1 and any lane width. Loads are unaligned, since an odd P
// leaves rows off vector boundaries.
//
// Lane widths: gemv_block and dot_block run 8 doubles per vector on a CPU
// with AVX-512F, 4 with AVX2 and FMA, and otherwise 2; gemv_csr_block
// always runs 2. The width is the widest the CPU reports
// (__builtin_cpu_supports) on first use, x86-64 GCC/Clang only; no option,
// environment variable or build flag selects it. A path fills what its
// lanes can and hands the remaining probes to the next narrower one, down
// to one scalar probe. Because a lane's arithmetic is the same on every
// path, and -ffp-contract=off forbids FMA on all of them, outputs and
// checksums do not depend on the CPU.
//
// The sigmoid, y = 1 / (1 + exp(a x)), runs on the same dispatch: 8
// elements per vector under AVX-512F, 4 under AVX2 and FMA, then the scalar
// std::exp loop for what does not fill a vector and on every other CPU or
// libm. Its bits do not change, because each lane computes exp(a x) by the
// same IEEE operations, FMAs included, that glibc's exp runs on a CPU with
// AVX2 and FMA (its __exp_fma variant), and a lane outside that algorithm's
// main range (|a x| < 2^-54 or >= 512, inf, NaN) calls std::exp. The lanes
// exist only on x86-64 GCC/Clang with glibc. glibc chooses its exp by its
// own view of the CPU, which GLIBC_TUNABLES can change (hwcaps=-AVX2,-FMA
// selects a non-FMA exp), so a guard found on first use with the width
// compares the lanes with std::exp on a fixed list of arguments, some of
// which glibc's FMA and non-FMA exp round differently; on any difference
// the scalar loop is the only path. The lanes thus equal this process's
// std::exp; sigmoid bits follow glibc's exp, which may differ between
// hosts.
#pragma once

#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace wnf {

/// y = A * x. Requires x.size() == A.cols() and y.size() == A.rows().
void gemv(const Matrix& a, std::span<const double> x, std::span<double> y);

/// CSR-masked y = A * x: row j accumulates only A(j, cols[e]) * x[cols[e]]
/// for e in [row_ptr[j], row_ptr[j+1]), left to right. Because `gemv` also
/// accumulates left to right, this is bit-identical to the dense product
/// whenever every skipped A(j, i) is exactly 0.0 (the `nn::LayerTopology`
/// invariant). row_ptr must have y.size()+1 monotone entries; cols must be
/// sorted per row and index into x.
void gemv_csr(const Matrix& a, std::span<const std::size_t> row_ptr,
              std::span<const std::size_t> cols, std::span<const double> x,
              std::span<double> y);

/// Block gemv: y = A * x for `probes` probes stored probe-minor (see the
/// header comment). Requires probes >= 1, x.size() == A.cols() * probes
/// and y.size() == A.rows() * probes; `y` may not alias `x`.
void gemv_block(const Matrix& a, std::span<const double> x,
                std::size_t probes, std::span<double> y);

/// Block gemv_csr: each row accumulates its CSR edges left to right, with
/// the edge's weight broadcast across the probes (so no lane is masked).
/// Same sizes as gemv_block, same CSR requirements as gemv_csr.
void gemv_csr_block(const Matrix& a, std::span<const std::size_t> row_ptr,
                    std::span<const std::size_t> cols,
                    std::span<const double> x, std::size_t probes,
                    std::span<double> y);

/// Block dot: y[p] = dot(w, probe p of x), summed as `dot` sums. Requires
/// x.size() == w.size() * probes and y.size() == probes.
void dot_block(std::span<const double> w, std::span<const double> x,
               std::size_t probes, std::span<double> y);

/// y[i] = 1.0 / (1.0 + std::exp(a * x[i])) for every i, bit for bit (see
/// the header comment). Sizes must match; `y` may be `x` itself.
void sigmoid(double a, std::span<const double> x, std::span<double> y);

namespace detail {

/// The block lane widths this CPU runs, narrowest first: {2}, {2, 4} or
/// {2, 4, 8}. gemv_block and dot_block use the last. For tests and
/// bench_to_json.
std::span<const std::size_t> block_lane_widths();

/// The sigmoid widths this host runs, narrowest first: {1} (the scalar
/// std::exp loop), {1, 4} or {1, 4, 8}, the block widths above 2 unless the
/// guard found std::exp unlike the lanes. sigmoid uses the last. For tests.
std::span<const std::size_t> sigmoid_lane_widths();

/// sigmoid on the `lanes`-wide path, which must be one of
/// sigmoid_lane_widths(). For tests.
void sigmoid(std::size_t lanes, double a, std::span<const double> x,
             std::span<double> y);

/// The exp arguments on which the guard compares the sigmoid's lanes with
/// std::exp. For tests.
std::span<const double> exp_guard_inputs();

/// gemv_block and dot_block on the `lanes`-wide path, which must be one of
/// block_lane_widths(). For tests and bench_to_json.
void gemv_block(std::size_t lanes, const Matrix& a, std::span<const double> x,
                std::size_t probes, std::span<double> y);
void dot_block(std::size_t lanes, std::span<const double> w,
               std::span<const double> x, std::size_t probes,
               std::span<double> y);

}  // namespace detail

/// y = A^T * x (used by backprop without materialising the transpose).
/// Requires x.size() == A.rows() and y.size() == A.cols().
void gemv_transposed(const Matrix& a, std::span<const double> x,
                     std::span<double> y);

/// A += alpha * x * y^T (rank-1 update; the backprop weight-gradient step).
void rank1_update(Matrix& a, double alpha, std::span<const double> x,
                  std::span<const double> y);

/// dot(x, y); sizes must match.
double dot(std::span<const double> x, std::span<const double> y);

/// max_i |x_i| (0 for empty).
double max_abs(std::span<const double> x);

}  // namespace wnf
