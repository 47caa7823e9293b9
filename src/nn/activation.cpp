#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::nn {
namespace {

// One definition per kind, shared by value() and apply() so the scalar and
// the per-layer paths cannot drift apart; apply()'s sigmoid is the tensor
// layer's `sigmoid`, which computes tuned_sigmoid's expression bit for bit.
// Each takes its kind's slope factor already multiplied by K, which apply()
// hoists out of the per-neuron loop; (-4.0 * k) * x is exactly how the
// expression -4.0 * k * x groups, so the hoist changes no bit.

// Tuned sigmoid: plain sigmoid has slope 1/4 at 0, so the 4K factor makes
// the tuned slope exactly K there (paper Fig. 2 derivation).
double tuned_sigmoid(double minus_4k, double x) {
  return 1.0 / (1.0 + std::exp(minus_4k * x));
}

// tanh(2Kx) has slope 2K at 0; halving rescales range to [0,1] and slope
// to K.
double tuned_tanh01(double two_k, double x) {
  return 0.5 * (1.0 + std::tanh(two_k * x));
}

double hard_sigmoid(double k, double x) {
  return std::clamp(0.5 + k * x, 0.0, 1.0);
}

}  // namespace

Activation::Activation(ActivationKind kind, double k) : kind_(kind), k_(k) {
  WNF_EXPECTS(k > 0.0);
}

double Activation::value(double x) const {
  switch (kind_) {
    case ActivationKind::kSigmoid: return tuned_sigmoid(-4.0 * k_, x);
    case ActivationKind::kTanh01: return tuned_tanh01(2.0 * k_, x);
    case ActivationKind::kHardSigmoid: return hard_sigmoid(k_, x);
  }
  WNF_ASSERT(false);
  return 0.0;
}

void Activation::apply(std::span<const double> in,
                       std::span<double> out) const {
  WNF_EXPECTS(in.size() == out.size());
  const std::size_t n = in.size();
  switch (kind_) {
    case ActivationKind::kSigmoid:
      sigmoid(-4.0 * k_, in, out);
      return;
    case ActivationKind::kTanh01: {
      const double two_k = 2.0 * k_;
      for (std::size_t i = 0; i < n; ++i) out[i] = tuned_tanh01(two_k, in[i]);
      return;
    }
    case ActivationKind::kHardSigmoid: {
      const double k = k_;
      for (std::size_t i = 0; i < n; ++i) out[i] = hard_sigmoid(k, in[i]);
      return;
    }
  }
  WNF_ASSERT(false);
}

double Activation::derivative(double x) const {
  switch (kind_) {
    case ActivationKind::kSigmoid: {
      const double y = value(x);
      return 4.0 * k_ * y * (1.0 - y);
    }
    case ActivationKind::kTanh01: {
      const double t = std::tanh(2.0 * k_ * x);
      return k_ * (1.0 - t * t);
    }
    case ActivationKind::kHardSigmoid: {
      const double pre = 0.5 + k_ * x;
      return (pre > 0.0 && pre < 1.0) ? k_ : 0.0;
    }
  }
  WNF_ASSERT(false);
  return 0.0;
}

std::string Activation::kind_name() const {
  switch (kind_) {
    case ActivationKind::kSigmoid: return "sigmoid";
    case ActivationKind::kTanh01: return "tanh01";
    case ActivationKind::kHardSigmoid: return "hard";
  }
  WNF_ASSERT(false);
  return "?";
}

std::optional<ActivationKind> Activation::try_parse_kind(
    const std::string& name) {
  if (name == "sigmoid") return ActivationKind::kSigmoid;
  if (name == "tanh01") return ActivationKind::kTanh01;
  if (name == "hard") return ActivationKind::kHardSigmoid;
  return std::nullopt;
}

ActivationKind Activation::parse_kind(const std::string& name) {
  const auto kind = try_parse_kind(name);
  WNF_EXPECTS(kind.has_value() && "unknown activation kind");
  return *kind;
}

}  // namespace wnf::nn
