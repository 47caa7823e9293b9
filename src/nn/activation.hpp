// K-tuned squashing functions (paper Section II-A, Figure 2).
//
// The universality theorem needs phi : R -> [0,1] strictly increasing with
// limits 0 and 1; the bounds additionally use that phi is K-Lipschitz. The
// paper tunes the plain sigmoid (which is 1/4-Lipschitz) to any K via
// x -> sigmoid(4 K x). We provide that tuned sigmoid, a [0,1]-rescaled tuned
// tanh, and a hard (piecewise-linear) sigmoid whose slope equals K exactly on
// an interval — the activation used by the tightness experiments, since it
// realises the Lipschitz bound with equality in its linear region.
#pragma once

#include <optional>
#include <span>
#include <string>

namespace wnf::nn {

enum class ActivationKind {
  kSigmoid,      ///< x -> 1 / (1 + exp(-4Kx)); smooth, strictly increasing
  kTanh01,       ///< x -> (1 + tanh(2Kx)) / 2; smooth, strictly increasing
  kHardSigmoid,  ///< x -> clamp(1/2 + Kx, 0, 1); slope exactly K on a band
};

/// A bounded squashing function with a tunable Lipschitz constant K.
///
/// Invariants: output in [0, 1]; `lipschitz()` is the exact (not just an
/// upper-bound) Lipschitz constant; derivative attains K at x = 0.
class Activation {
 public:
  /// `k` must be positive.
  Activation(ActivationKind kind, double k);

  /// Default: the paper's canonical choice, sigmoid tuned to K = 1/4 (the
  /// plain logistic function).
  Activation() : Activation(ActivationKind::kSigmoid, 0.25) {}

  double value(double x) const;

  /// out[i] = value(in[i]) for every i, bit for bit, with the kind switched
  /// on once per call instead of once per neuron (the forward passes apply
  /// it to a whole layer). Sizes must match; `out` may be `in` itself.
  ///
  /// The sigmoid runs on the tensor layer's `sigmoid` (tensor/ops.hpp): 8
  /// elements per vector under AVX-512F, 4 under AVX2 and FMA, the scalar
  /// std::exp loop elsewhere, with the width found on first use and no
  /// option selecting it. Its bits equal value()'s because each lane
  /// computes exp by the IEEE operations glibc's FMA exp performs, and a
  /// guard keeps the scalar loop if this process's std::exp is not that
  /// exp (GLIBC_TUNABLES can switch it).
  void apply(std::span<const double> in, std::span<double> out) const;

  /// d(value)/dx at `x`.
  double derivative(double x) const;

  /// The exact Lipschitz constant K.
  double lipschitz() const { return k_; }

  /// sup over x of value(x); 1 for every kind here. Used as the crash-case
  /// capacity (Section IV-B: replace C by the activation's maximum).
  double sup_value() const { return 1.0; }

  ActivationKind kind() const { return kind_; }

  /// Same kind, different K (used by the K-sweep experiments).
  Activation with_k(double k) const { return Activation(kind_, k); }

  /// Stable identifier for serialization ("sigmoid", "tanh01", "hard").
  std::string kind_name() const;

  /// Inverse of kind_name; nullopt on unknown names (for parsers fed
  /// wire/file input that must reject, not abort).
  static std::optional<ActivationKind> try_parse_kind(const std::string& name);

  /// Inverse of kind_name; aborts on unknown names.
  static ActivationKind parse_kind(const std::string& name);

 private:
  ActivationKind kind_;
  double k_;
};

}  // namespace wnf::nn
