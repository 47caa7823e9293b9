#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

// The 4- and 8-lane block paths need GCC/Clang target attributes and
// __builtin_cpu_supports; elsewhere the two-lane path is the only one.
#if defined(__x86_64__) && defined(__GNUC__)
#define WNF_LANE_DISPATCH 1
#else
#define WNF_LANE_DISPATCH 0
#endif

// The sigmoid's lane kernels compute exp by glibc's own arithmetic, so they
// exist only where std::exp is glibc's; elsewhere the scalar loop runs.
#if WNF_LANE_DISPATCH && defined(__GLIBC__)
#define WNF_EXP_LANES 1
#include <immintrin.h>
#else
#define WNF_EXP_LANES 0
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

// The scalar sigmoid loop: y[i] = 1 / (1 + e^(a x[i])) through std::exp,
// or e^(a x[i]) alone when kExpOnly. The guard checks the lanes' exp that
// way, since 1 + e can round away a difference in e.
template <bool kExpOnly>
void scalar_sigmoid(double a, const double* x, std::size_t n, double* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::exp(a * x[i]);
    y[i] = kExpOnly ? e : 1.0 / (1.0 + e);
  }
}

#if WNF_EXP_LANES
// The sigmoid's lanes compute e^x by the IEEE operations glibc's exp runs
// when the CPU has FMA and AVX2 (its __exp_fma variant, glibc >= 2.28; the
// algorithm is Arm's optimized-routines exp). With N = 128, x = k ln2/N + r:
//
//   z  = fma(x, N/ln2, Shift)   ki = bits(z)   kd = z - Shift
//   r  = fma(kd, -ln2hi/N, x)   r  = fma(kd, -ln2lo/N, r)
//   i  = 2 (ki mod N)   tail = T[i]   s = asdouble(T[i + 1] + (ki << 45))
//   r2 = r * r                  p  = fma(fma(r, C3, C2), r2, r + tail)
//   p  = fma(r2 * r2, fma(r, C5, C4), p)        e^x = fma(s, p, s)
//
// Each step rounds as glibc's does, so each lane returns std::exp's bits.
// That holds on glibc's main range, 2^-54 <= |x| < 512; a lane outside it
// takes std::exp.
constexpr double kInvLn2N = 0x1.71547652b82fep+7;
constexpr double kShift = 0x1.8p52;
constexpr double kNegLn2hiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2loN = -0x1.cf79abc9e3b3ap-47;
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;

// T: for k < N, with s_k = RN(2^(k/N)), T[2k] = bits(RN((2^(k/N) - s_k) /
// s_k)) and T[2k + 1] = bits(s_k) - (k << 45). These are glibc's words
// (__exp_data.tab), computed here from that definition.
alignas(64) constexpr std::uint64_t kExpTable[256] = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e,
    0x3feff63da9fb3335, 0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85, 0x3c8cd2523567f613,
    0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399,
    0x3fefbe3ecac6f383, 0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7, 0x3c3ebe3d702f9cd1,
    0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55,
    0x3fef8abdc06c31cc, 0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51, 0xbc801b15eaa59348,
    0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26,
    0x3fef5be084045cd4, 0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d, 0x3c8a6f4144a6c38d,
    0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d,
    0x3fef31ce4fb2a63f, 0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381, 0x3c82f7e16d09ab31,
    0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f,
    0x3fef0cafa93e2f56, 0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831, 0x3c8fdd395dd3f84a,
    0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e,
    0x3feeecae6d05d866, 0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5, 0x3c859f48a72a4c6d,
    0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b,
    0x3feed1f5d950a897, 0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057, 0x3c6ecce1daa10379,
    0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077,
    0x3feebcb299fddd0d, 0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642, 0xbc78dec6bd0f385f,
    0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05,
    0x3feead12d497c7fd, 0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7, 0x3c9432e62b64c035,
    0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae,
    0x3feea34634ccc320, 0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973, 0xbc93b3efbf5e2228,
    0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851,
    0x3fee9f7df9519484, 0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174, 0xbc8619321e55e68a,
    0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b,
    0x3feea1ed0130c132, 0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12, 0xbc9369b6f13b3734,
    0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00,
    0x3feeaac7d98a6699, 0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c, 0x3c7bf68359f35f44,
    0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959,
    0x3feeba44cbc8520f, 0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba, 0x3c71affc2b91ce27,
    0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5,
    0x3feed09bec4a2d33, 0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358, 0x3c8469846e735ab3,
    0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa,
    0x3feeee07298db666, 0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a, 0xbc68d6f438ad9334,
    0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac,
    0x3fef12c25bd71e09, 0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a, 0x3c84e08fd10959ac,
    0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2,
    0x3fef3f0b555dc3fa, 0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2, 0x3c74a385a63d07a7,
    0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b,
    0x3fef7321f301b460, 0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129, 0x3c74b604603a88d3,
    0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d,
    0x3fefaf482d8e67f1, 0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97, 0x3c8a64a931d185ee,
    0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89,
    0x3feff3c22b8f71f1
};

// The lanes set in `outside` (bit j for lane j) get std::exp, one at a time.
template <typename V>
[[gnu::always_inline]] inline void exp_outside_main_range(unsigned outside,
                                                          const V& x, V& e) {
  for (std::size_t j = 0; j < kWidth<V>; ++j) {
    if (outside >> j & 1) e[j] = std::exp(x[j]);
  }
}
#endif

// Each path computes probes [0, count) of a block whose probe stride is
// `probes`, in its own lanes as far as they fill, and hands the rest to the
// next narrower path. The sigmoid's paths do the same with elements, down
// to the scalar loop.
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

__attribute__((target("avx2,fma"))) void dense(
    const double* w, std::size_t rows, std::size_t cols, const double* x,
    std::size_t probes, std::size_t count, double* y) {
  const std::size_t p = dense_lanes<V>(w, rows, cols, x, probes, count, y);
  if (p < count) lanes2::dense(w, rows, cols, x + p, probes, count - p, y + p);
}

#if WNF_EXP_LANES
using U = std::uint64_t __attribute__((vector_size(32)));

[[gnu::target("avx2,fma"), gnu::always_inline]] inline V fma(V a, V b, V c) {
  return _mm256_fmadd_pd(a, b, c);
}

// table[i] for each lane's i.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline U gather(
    const std::uint64_t* table, U i) {
  return (U)_mm256_i64gather_epi64(reinterpret_cast<const long long*>(table),
                                   (__m256i)i, 8);
}

// The lanes whose x lies outside glibc's main range (|x| < 2^-54, |x| >=
// 512, inf and NaN), where its exp takes other paths, as bits.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline unsigned outside(V x) {
  const U top = ((U)x >> 52) & 0x7ffUL;
  return _mm256_movemask_pd((__m256d)(top - 0x3c9UL >= 0x3fUL));
}

// The sigmoid (or, kExpOnly, e^(a x) alone) of x[0, n), by the arithmetic
// above. lanes8::sigmoid is the same text on 8 lanes: a template cannot
// carry the per-width target attribute its intrinsics need.
template <bool kExpOnly>
__attribute__((target("avx2,fma"))) void sigmoid(double a, const double* x,
                                                 std::size_t n, double* y) {
  std::size_t i = 0;
  for (; i + kWidth<V> <= n; i += kWidth<V>) {
    V t;
    std::memcpy(&t, x + i, sizeof t);
    t = a * t;
    const V z = fma(t, kInvLn2N + V{}, kShift + V{});
    const U ki = (U)z;
    const V kd = z - kShift;
    const V r = fma(kd, kNegLn2loN + V{}, fma(kd, kNegLn2hiN + V{}, t));
    const U slot = (ki & 127UL) * 2UL;
    const V tail = (V)gather(kExpTable, slot);
    const V s = (V)(gather(kExpTable + 1, slot) + (ki << 45));
    const V r2 = r * r;
    const V p = fma(fma(r, kC3 + V{}, kC2 + V{}), r2, r + tail);
    V e = fma(s, fma(r2 * r2, fma(r, kC5 + V{}, kC4 + V{}), p), s);
    if (const unsigned lanes = outside(t)) exp_outside_main_range(lanes, t, e);
    if constexpr (!kExpOnly) e = 1.0 / (1.0 + e);
    std::memcpy(y + i, &e, sizeof e);
  }
  scalar_sigmoid<kExpOnly>(a, x + i, n - i, y + i);
}
#endif

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

#if WNF_EXP_LANES
using U = std::uint64_t __attribute__((vector_size(64)));

[[gnu::target("avx512f"), gnu::always_inline]] inline V fma(V a, V b, V c) {
  return _mm512_fmadd_pd(a, b, c);
}

// The masked form, with every lane set and zeros as the pass-through: GCC
// 12's unmasked _mm512_i64gather_epi64 starts from an undefined vector and
// draws -Wmaybe-uninitialized.
[[gnu::target("avx512f"), gnu::always_inline]] inline U gather(
    const std::uint64_t* table, U i) {
  return (U)_mm512_mask_i64gather_epi64((__m512i)U{}, 0xff, (__m512i)i, table,
                                        8);
}

[[gnu::target("avx512f"), gnu::always_inline]] inline unsigned outside(V x) {
  const U top = ((U)x >> 52) & 0x7ffUL;
  const auto lanes = (__m512i)(top - 0x3c9UL >= 0x3fUL);
  return _mm512_test_epi64_mask(lanes, lanes);
}

template <bool kExpOnly>
__attribute__((target("avx512f"))) void sigmoid(double a, const double* x,
                                                std::size_t n, double* y) {
  std::size_t i = 0;
  for (; i + kWidth<V> <= n; i += kWidth<V>) {
    V t;
    std::memcpy(&t, x + i, sizeof t);
    t = a * t;
    const V z = fma(t, kInvLn2N + V{}, kShift + V{});
    const U ki = (U)z;
    const V kd = z - kShift;
    const V r = fma(kd, kNegLn2loN + V{}, fma(kd, kNegLn2hiN + V{}, t));
    const U slot = (ki & 127UL) * 2UL;
    const V tail = (V)gather(kExpTable, slot);
    const V s = (V)(gather(kExpTable + 1, slot) + (ki << 45));
    const V r2 = r * r;
    const V p = fma(fma(r, kC3 + V{}, kC2 + V{}), r2, r + tail);
    V e = fma(s, fma(r2 * r2, fma(r, kC5 + V{}, kC4 + V{}), p), s);
    if (const unsigned lanes = outside(t)) exp_outside_main_range(lanes, t, e);
    if constexpr (!kExpOnly) e = 1.0 / (1.0 + e);
    std::memcpy(y + i, &e, sizeof e);
  }
  lanes4::sigmoid<kExpOnly>(a, x + i, n - i, y + i);
}
#endif

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
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return std::size_t{1};
    }
    return std::size_t{__builtin_cpu_supports("avx512f") ? 3u : 2u};
  }();
#else
  constexpr std::size_t supported = 1;
#endif
  return {kWidths, supported};
}

std::span<const double> exp_guard_inputs() {
  // Arguments on which glibc's FMA exp and the exp it runs under
  // GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA round differently, drawn
  // from -700..-100, -100..-30, -30..-4, -4..-0.5, -0.5..0.5, 0.5..4,
  // 4..30, 30..100 and 100..500.
  static constexpr double kSplits[] = {
      -0x1.217780d1e9608p+7, -0x1.d8bef402299d3p+8, -0x1.3527a26351eb1p+5,
      -0x1.0b4f21a3d37acp+6, -0x1.ac530fc2a5f12p+4, -0x1.6d9138dd12caep+3,
      -0x1.1c31bfe0699fp+4,  -0x1.610c648a33a44p+0, -0x1.d55eafd68da3p+1,
      0x1.2e8792b9eb7cp-7,   -0x1.1b681cfd303d8p-3, 0x1.df6d7feb7b40cp-3,
      0x1.ad5ebd9ce80f6p+1,  0x1.20f81afba0c51p+0,  0x1.74de1a1ce268ep-1,
      0x1.f279fd5285bcdp+3,  0x1.3a8ebf859ffafp+4,  0x1.56b218c057318p+4,
      0x1.3ba20e8bc469ep+6,  0x1.9879e4899622ep+5,  0x1.5dc91ab1addfp+5,
      0x1.4a5606e83c9bap+8,  0x1.66899e306b96bp+8,  0x1.6be0bb66a52a5p+8};
  // Then one argument per table slot k: (j + 1/4) ln2/128 with j = k + 128m
  // and m from -5 to 5, so e^x runs from 2^-5 to 2^6. 24 + 128 arguments
  // fill whole vectors at 4 and 8 lanes.
  static const auto inputs = [] {
    std::array<double, std::size(kSplits) + 128> xs{};
    std::copy(std::begin(kSplits), std::end(kSplits), xs.begin());
    for (int k = 0; k < 128; ++k) {
      const int j = k + 128 * (k % 11 - 5);
      xs[std::size(kSplits) + k] = (j + 0.25) * 0x1.62e42fefa39efp-8;
    }
    return xs;
  }();
  return inputs;
}

std::span<const std::size_t> sigmoid_lane_widths() {
  static constexpr std::size_t kWidths[] = {1, 4, 8};
#if WNF_EXP_LANES
  // The block widths above 2 (AVX2 and FMA, then AVX-512F), found on first
  // use. glibc picks its exp by its own view of the CPU, which
  // GLIBC_TUNABLES can change, so the lanes run only if they agree with
  // std::exp on the guard's inputs, bit for bit, at every width.
  static const std::size_t supported = [] {
    const std::size_t widths = block_lane_widths().size();
    const auto xs = exp_guard_inputs();
    std::vector<double> want(xs.size());
    std::vector<double> got(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Read as volatile: a compiler may fold std::exp of a constant into
      // the correctly rounded value, which is not always glibc's.
      const volatile double x = xs[i];
      want[i] = std::exp(x);
    }
    for (std::size_t w = 1; w < widths; ++w) {
      (kWidths[w] == 8 ? lanes8::sigmoid<true> : lanes4::sigmoid<true>)(
          1.0, xs.data(), xs.size(), got.data());
      if (std::memcmp(want.data(), got.data(), want.size() * sizeof(double))) {
        return std::size_t{1};
      }
    }
    return widths;
  }();
#else
  constexpr std::size_t supported = 1;
#endif
  return {kWidths, supported};
}

void sigmoid(std::size_t lanes, double a, std::span<const double> x,
             std::span<double> y) {
  WNF_EXPECTS(x.size() == y.size());
  const auto widths = sigmoid_lane_widths();
  WNF_EXPECTS(std::find(widths.begin(), widths.end(), lanes) != widths.end());
#if WNF_EXP_LANES
  const std::size_t n = x.size();
  if (lanes == 8) return lanes8::sigmoid<false>(a, x.data(), n, y.data());
  if (lanes == 4) return lanes4::sigmoid<false>(a, x.data(), n, y.data());
#endif
  scalar_sigmoid<false>(a, x.data(), x.size(), y.data());
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

void sigmoid(double a, std::span<const double> x, std::span<double> y) {
  detail::sigmoid(detail::sigmoid_lane_widths().back(), a, x, y);
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
