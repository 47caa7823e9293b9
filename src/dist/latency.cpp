#include "dist/latency.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace wnf::dist {

namespace {

void validate(const LatencyModel& model) {
  WNF_EXPECTS(model.base >= 0.0);
  WNF_EXPECTS(model.spread >= 0.0);
  WNF_EXPECTS(model.straggler_fraction >= 0.0 &&
              model.straggler_fraction <= 1.0);
}

/// One draw from a validated model. Taken by value so that a caller's loop
/// keeps the parameters in registers.
double draw(const LatencyModel model, Rng& rng) {
  switch (model.kind) {
    case LatencyKind::kConstant:
      return model.base;
    case LatencyKind::kUniform:
      return model.base + rng.uniform() * model.spread;
    case LatencyKind::kHeavyTail: {
      // Fixed draw order (bernoulli, then uniform) so streams stay aligned
      // across kinds and fractions.
      const bool straggler = rng.bernoulli(model.straggler_fraction);
      const double u = rng.uniform();
      if (straggler) {
        // Top half of the range: a straggler is decisively slow.
        return model.base + model.spread * (0.5 + 0.5 * u);
      }
      // Fast path: within 2x of base, and strictly below the straggler
      // band even when base >= spread, so the tail stays separable.
      return model.base + std::min(model.base, 0.5 * model.spread) * u;
    }
  }
  WNF_ASSERT(false);
  return model.base;
}

}  // namespace

double LatencyModel::sample(Rng& rng) const {
  validate(*this);
  return draw(*this, rng);
}

std::vector<std::vector<double>> LatencyModel::sample_layers(
    const std::vector<std::size_t>& widths, Rng& rng) const {
  std::vector<std::vector<double>> latencies;
  sample_layers_into(widths, rng, latencies);
  return latencies;
}

void LatencyModel::sample_layers_into(const std::vector<std::size_t>& widths,
                                      Rng& rng,
                                      std::vector<std::vector<double>>& out)
    const {
  validate(*this);  // once per call, not per draw
  const LatencyModel model = *this;
  out.resize(widths.size());
  for (std::size_t l = 0; l < widths.size(); ++l) {
    out[l].resize(widths[l]);
    for (double& latency : out[l]) latency = draw(model, rng);
  }
}

}  // namespace wnf::dist
