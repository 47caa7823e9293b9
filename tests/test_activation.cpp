// Activation tests: the Figure-2 property — the K-tuned functions are
// bounded in [0,1], strictly increasing (smooth kinds), and *exactly*
// K-Lipschitz with the maximum slope at 0.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/lipschitz.hpp"
#include "nn/activation.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace wnf::nn {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// exp arguments at the edges of glibc's main range (|x| = 2^-54, 512, 1024),
// at its overflow (~709.78), subnormal (~-708.40) and underflow (~-745.13)
// points, each with its neighbours, plus signed zeros, subnormals,
// infinities and NaNs with payloads, quiet and signalling.
std::vector<double> exp_edge_arguments() {
  std::vector<double> xs;
  for (const double edge :
       {0x1p-54, 512.0, 1024.0, 0x1.62e42fefa39efp+9, -0x1.6232bdd7abcd2p+9,
        -0x1.74910d52d3052p+9}) {
    for (const double sign : {1.0, -1.0}) {
      double below = sign * edge;
      double above = below;
      xs.push_back(below);
      for (int step = 0; step < 3; ++step) {
        below = std::nextafter(below, -std::numeric_limits<double>::infinity());
        above = std::nextafter(above, std::numeric_limits<double>::infinity());
        xs.push_back(below);
        xs.push_back(above);
      }
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  for (const double x : {0.0, -0.0, kTiny, -kTiny, kMin / 7.0, -kMin / 7.0,
                         kMin - kTiny, -(kMin - kTiny), kMin, -kMin, kInf,
                         -kInf, std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max()}) {
    xs.push_back(x);
  }
  for (const std::uint64_t nan :
       {0x7ff8000000000000ull, 0x7ff800000000deadull, 0xfff8000000001234ull,
        0x7ff0000000000001ull, 0x7ff4000000000042ull, 0xfff00000000abcdeull}) {
    xs.push_back(std::bit_cast<double>(nan));
  }
  return xs;
}

using Param = std::tuple<ActivationKind, double>;

class ActivationLaw : public testing::TestWithParam<Param> {
 protected:
  Activation phi() const {
    return Activation(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

TEST_P(ActivationLaw, RangeIsUnitInterval) {
  const auto f = phi();
  for (double x = -50.0; x <= 50.0; x += 0.37) {
    const double y = f.value(x);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
  EXPECT_NEAR(f.value(-1e6), 0.0, 1e-9);
  EXPECT_NEAR(f.value(1e6), 1.0, 1e-9);
}

TEST_P(ActivationLaw, MonotoneNonDecreasing) {
  const auto f = phi();
  double prev = f.value(-20.0);
  for (double x = -20.0 + 0.05; x <= 20.0; x += 0.05) {
    const double y = f.value(x);
    EXPECT_GE(y, prev - 1e-15);
    prev = y;
  }
}

TEST_P(ActivationLaw, CenteredAtOneHalf) {
  EXPECT_NEAR(phi().value(0.0), 0.5, 1e-12);
}

TEST_P(ActivationLaw, DerivativeMatchesFiniteDifference) {
  const auto f = phi();
  const double h = 1e-6;
  const double k = f.lipschitz();
  for (double x = -3.0; x <= 3.0; x += 0.1) {
    if (f.kind() == ActivationKind::kHardSigmoid) {
      // Skip the two kink points x = +-1/(2K), where the derivative jumps
      // and no finite difference can match it.
      const double to_kink =
          std::min(std::fabs(x - 0.5 / k), std::fabs(x + 0.5 / k));
      if (to_kink < 1e-3) continue;
    }
    const double numeric = (f.value(x + h) - f.value(x - h)) / (2.0 * h);
    EXPECT_NEAR(f.derivative(x), numeric, 1e-4 * std::max(1.0, k));
  }
}

TEST_P(ActivationLaw, SlopeAtZeroEqualsK) {
  const auto f = phi();
  EXPECT_NEAR(f.derivative(0.0), f.lipschitz(), 1e-9);
}

TEST_P(ActivationLaw, NeverSteeperThanK) {
  const auto f = phi();
  const double k = f.lipschitz();
  for (double x = -10.0; x <= 10.0; x += 0.01) {
    EXPECT_LE(f.derivative(x), k + 1e-9);
  }
}

TEST_P(ActivationLaw, EmpiricalLipschitzMatchesK) {
  // The paper's Lipschitz claim, verified numerically: the sharpest secant
  // slope over a wide interval equals K (to sampling resolution).
  const auto f = phi();
  const double estimate =
      theory::empirical_activation_lipschitz(f, -10.0, 10.0, 20000);
  EXPECT_LE(estimate, f.lipschitz() + 1e-6);
  EXPECT_GE(estimate, f.lipschitz() * 0.98);
}

TEST_P(ActivationLaw, ApplyMatchesValueBitForBit) {
  // The per-layer path the forward passes use must equal the scalar one on
  // every input, in place and out of place, special values included.
  const auto f = phi();
  std::vector<double> in{0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double x = -50.0; x <= 50.0; x += 0.37) in.push_back(x);
  // Every K here is a power of two, so x / (-4K) is exact and the sigmoid's
  // exp sees each edge argument itself.
  for (const double x : exp_edge_arguments()) {
    in.push_back(x / (-4.0 * f.lipschitz()));
  }
  std::vector<double> out(in.size());
  f.apply(in, out);
  std::vector<double> in_place = in;
  f.apply(in_place, in_place);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto want = bits(f.value(in[i]));
    EXPECT_EQ(bits(out[i]), want) << in[i];
    EXPECT_EQ(bits(in_place[i]), want) << in[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndK, ActivationLaw,
    testing::Combine(testing::Values(ActivationKind::kSigmoid,
                                     ActivationKind::kTanh01,
                                     ActivationKind::kHardSigmoid),
                     testing::Values(0.25, 0.5, 1.0, 2.0, 4.0)));

// The sigmoid widths run below, printed once so that a log shows which
// paths this host exercised and which it skipped.
std::span<const std::size_t> sigmoid_widths() {
  static const auto widths = [] {
    const auto run = detail::sigmoid_lane_widths();
    std::string line = "[ lanes    ] sigmoid paths run:";
    for (const std::size_t lanes : run) line += " " + std::to_string(lanes);
    if (run.back() < 8) {
      line += "; skipped:";
      for (std::size_t lanes = run.back() == 1 ? 4 : 8; lanes <= 8;
           lanes *= 2) {
        line += " " + std::to_string(lanes);
      }
      line += " (this CPU or build lacks them, or std::exp is not glibc's";
      line += " FMA exp)";
    }
    std::printf("%s\n", line.c_str());
    return run;
  }();
  return widths;
}

// The scalar std::exp loop the sigmoid kernels must match.
std::vector<double> scalar_sigmoid(double a, std::span<const double> xs) {
  std::vector<double> y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    y[i] = 1.0 / (1.0 + std::exp(a * xs[i]));
  }
  return y;
}

// Where `got` first differs from `want` in any bit, or -1.
std::ptrdiff_t first_difference(std::span<const double> got,
                                std::span<const double> want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

// Every sigmoid width, and the dispatched entry point, against the scalar
// loop on `xs`, bit for bit, NaN payloads included.
void expect_every_width_matches(double a, std::span<const double> xs) {
  const auto want = scalar_sigmoid(a, xs);
  for (const std::size_t lanes : sigmoid_widths()) {
    std::vector<double> y(xs.size(), 42.0);
    detail::sigmoid(lanes, a, xs, y);
    const auto i = first_difference(y, want);
    EXPECT_EQ(i, -1) << lanes << " lanes, a = " << std::hexfloat << a
                     << ", x = " << xs[i] << ": " << y[i] << " vs "
                     << want[i];
  }
  std::vector<double> y(xs.size(), 42.0);
  sigmoid(a, xs, y);
  EXPECT_EQ(first_difference(y, want), -1) << "sigmoid, a = " << a;
}

TEST(SigmoidLanes, EveryWidthMatchesTheScalarLoopOnWorkingRangeDraws) {
  // 2^20 draws over the campaign nets' preactivation range, through the
  // plain sigmoid (a = -1, K = 1/4) and a K whose 4K is no power of two.
  Rng rng(25);
  std::vector<double> xs(std::size_t{1} << 20);
  for (double& x : xs) x = rng.uniform(-40.0, 40.0);
  for (const double a : {-1.0, -4.0 * 0.7}) expect_every_width_matches(a, xs);
}

TEST(SigmoidLanes, EveryWidthMatchesTheScalarLoopAtTableSlotsAndEdges) {
  // For each table slot k, arguments j ln2/128 (r near 0) and (j +- 1/2)
  // ln2/128 (r near +-ln2/256, where the slot flips) with their neighbours,
  // for j = k + 128m, |m| <= 735, across the main range |x| < 512; a = +-1
  // feeds each to exp as it is and negated.
  std::vector<double> xs;
  constexpr double kLn2N = 0x1.62e42fefa39efp-8;
  for (int m = -735; m <= 735; m += 35) {
    for (int k = 0; k < 128; ++k) {
      const double j = k + 128.0 * m;
      xs.push_back(j * kLn2N);
      for (const double half : {-0.5, 0.5}) {
        const double x = (j + half) * kLn2N;
        xs.push_back(x);
        xs.push_back(std::nextafter(x, 0.0));
        xs.push_back(std::nextafter(x, 2.0 * x));
      }
    }
  }
  const auto edges = exp_edge_arguments();
  xs.insert(xs.end(), edges.begin(), edges.end());
  for (const double a : {1.0, -1.0}) expect_every_width_matches(a, xs);
}

TEST(SigmoidLanes, EveryRunLengthInPlaceAndOutOfPlace) {
  // Lengths 1-17 at three offsets, so every width ends on every tail, with
  // edge arguments (std::exp lanes) among finite ones.
  Rng rng(26);
  const auto edges = exp_edge_arguments();
  std::vector<double> pool;
  for (std::size_t i = 0; i < 64; ++i) {
    pool.push_back(i % 3 == 0 ? edges[i * 7 % edges.size()]
                              : rng.uniform(-30.0, 30.0));
  }
  for (const std::size_t lanes : sigmoid_widths()) {
    for (std::size_t n = 1; n <= 17; ++n) {
      for (const std::size_t offset : {0, 1, 3}) {
        const std::span<const double> xs(pool.data() + offset * 5, n);
        const auto want = scalar_sigmoid(-1.0, xs);
        std::vector<double> out(n, 42.0);
        detail::sigmoid(lanes, -1.0, xs, out);
        EXPECT_EQ(first_difference(out, want), -1)
            << lanes << " lanes, n = " << n << ", offset " << offset;
        std::vector<double> buffer(pool.begin(), pool.end());
        const std::span<double> in_place(buffer.data() + offset * 5, n);
        detail::sigmoid(lanes, -1.0, in_place, in_place);
        EXPECT_EQ(first_difference(in_place, want), -1)
            << lanes << " lanes in place, n = " << n << ", offset " << offset;
      }
    }
  }
}

TEST(SigmoidLanes, ScalarLoopUnlessStdExpIsGlibcsFmaExp) {
  // glibc's FMA exp, whose arithmetic the lanes perform, rounds this
  // argument to kFmaExp; the exp glibc runs without FMA rounds it to the
  // next double. Read as volatile, so that no compiler folds the call.
  const volatile double split = 0x1.f279fd5285bcdp+3;
  constexpr std::uint64_t kFmaExp = 0x415636e4d88f4565;
  const bool fma_exp = bits(std::exp(split)) == kFmaExp;
  // The ctest entry test_activation_non_fma_exp runs this test under
  // GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA: glibc then runs a non-FMA
  // exp while the CPU still reports AVX2 and FMA, and the guard must keep
  // the scalar loop.
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables != nullptr &&
      std::string_view(tunables).find("hwcaps=-AVX2,-FMA") !=
          std::string_view::npos) {
    ASSERT_FALSE(fma_exp) << "GLIBC_TUNABLES left glibc's FMA exp in place";
  }
  std::vector<std::size_t> want{1};
#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__)
  if (fma_exp) {
    for (const std::size_t lanes : detail::block_lane_widths()) {
      if (lanes > 2) want.push_back(lanes);
    }
  }
#endif
  const auto widths = sigmoid_widths();
  EXPECT_EQ(std::vector<std::size_t>(widths.begin(), widths.end()), want);

  // apply equals the scalar loop on the guard's arguments, some of which the
  // two exps round differently: K = 1/4 hands -x to exp as x exactly.
  const Activation f;
  std::vector<double> in;
  for (const double x : detail::exp_guard_inputs()) in.push_back(-x);
  std::vector<double> out(in.size());
  f.apply(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(f.value(in[i]))) << std::hexfloat << in[i];
  }
}

TEST(Activation, DefaultIsPlainSigmoid) {
  // K = 1/4 tuned sigmoid is the plain logistic function.
  const Activation f;
  EXPECT_EQ(f.kind(), ActivationKind::kSigmoid);
  EXPECT_DOUBLE_EQ(f.lipschitz(), 0.25);
  EXPECT_NEAR(f.value(1.0), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
}

TEST(Activation, WithKPreservesKind) {
  const Activation f(ActivationKind::kTanh01, 1.0);
  const Activation g = f.with_k(3.0);
  EXPECT_EQ(g.kind(), ActivationKind::kTanh01);
  EXPECT_DOUBLE_EQ(g.lipschitz(), 3.0);
}

TEST(Activation, HardSigmoidIsExactlyLinearInBand) {
  const Activation f(ActivationKind::kHardSigmoid, 2.0);
  EXPECT_DOUBLE_EQ(f.value(0.1), 0.5 + 2.0 * 0.1);
  EXPECT_DOUBLE_EQ(f.value(-0.2), 0.5 - 2.0 * 0.2);
  EXPECT_DOUBLE_EQ(f.value(5.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(f.derivative(0.0), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(5.0), 0.0);
}

TEST(Activation, KindNameRoundTrip) {
  for (auto kind : {ActivationKind::kSigmoid, ActivationKind::kTanh01,
                    ActivationKind::kHardSigmoid}) {
    const Activation f(kind, 1.0);
    EXPECT_EQ(Activation::parse_kind(f.kind_name()), kind);
  }
}

TEST(Activation, SupValueIsOne) {
  EXPECT_DOUBLE_EQ(Activation(ActivationKind::kSigmoid, 2.0).sup_value(), 1.0);
}

}  // namespace
}  // namespace wnf::nn
