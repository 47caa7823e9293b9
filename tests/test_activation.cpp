// Activation tests: the Figure-2 property — the K-tuned functions are
// bounded in [0,1], strictly increasing (smooth kinds), and *exactly*
// K-Lipschitz with the maximum slope at 0.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/lipschitz.hpp"
#include "nn/activation.hpp"

namespace wnf::nn {
namespace {

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
  std::vector<double> out(in.size());
  f.apply(in, out);
  std::vector<double> in_place = in;
  f.apply(in_place, in_place);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto want = std::bit_cast<std::uint64_t>(f.value(in[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]), want) << in[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place[i]), want) << in[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndK, ActivationLaw,
    testing::Combine(testing::Values(ActivationKind::kSigmoid,
                                     ActivationKind::kTanh01,
                                     ActivationKind::kHardSigmoid),
                     testing::Values(0.25, 0.5, 1.0, 2.0, 4.0)));

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
