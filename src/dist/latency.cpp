#include "dist/latency.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>

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

// The block draws' lanes: two-wide GCC/Clang vector types, as in
// tensor/ops.cpp, so they build from one source with no runtime dispatch.
using Words = std::uint64_t __attribute__((vector_size(16)));
using Values = double __attribute__((vector_size(16)));

Words rotl(Words x, int k) { return (x << k) | (x >> (64 - k)); }

/// Two xoshiro256** streams, one per lane: lane k steps exactly as
/// Rng::next_u64 steps its stream's words.
struct StreamPair {
  Words s0, s1, s2, s3;

  StreamPair(const Rng& a, const Rng& b) {
    const auto x = a.state();
    const auto y = b.state();
    s0 = Words{x[0], y[0]};
    s1 = Words{x[1], y[1]};
    s2 = Words{x[2], y[2]};
    s3 = Words{x[3], y[3]};
  }

  std::array<std::uint64_t, 4> lane(int k) const {
    return {s0[k], s1[k], s2[k], s3[k]};
  }

  Words next() {
    // x * 5 and x * 9 as shift-adds: SSE2 has no 64-bit lane multiply.
    const Words r = rotl((s1 << 2) + s1, 7);
    const Words result = (r << 3) + r;
    const Words t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
  }

  /// Rng::uniform per lane. Baseline x86-64 has no packed int64 -> double
  /// conversion, so the 53-bit value converts exactly as a 27-bit and a
  /// 26-bit half, each through the 2^52 magic constant.
  Values uniform() {
    const Words v = next() >> 11;
    const Words magic = std::bit_cast<Words>(Values{0x1.0p52, 0x1.0p52});
    const Values hi = std::bit_cast<Values>((v >> 26) | magic) - 0x1.0p52;
    const Values lo =
        std::bit_cast<Values>((v & Words{0x3ffffff, 0x3ffffff}) | magic) -
        0x1.0p52;
    return (hi * 0x1.0p26 + lo) * 0x1.0p-53;
  }
};

/// draw() for both lanes: each lane's value is draw()'s on its stream, bit
/// for bit. The heavy tail's straggler choice is a lane select, not a
/// branch.
Values draw_pair(const LatencyModel& model, StreamPair& streams) {
  if (model.kind == LatencyKind::kUniform) {
    return model.base + streams.uniform() * model.spread;
  }
  const Values coin = streams.uniform();  // bernoulli's, then the value's
  const Values u = streams.uniform();
  const Words straggler = std::bit_cast<Words>(coin < model.straggler_fraction);
  const Words slow = std::bit_cast<Words>(model.spread * (0.5 + 0.5 * u));
  const Words fast =
      std::bit_cast<Words>(std::min(model.base, 0.5 * model.spread) * u);
  return model.base +
         std::bit_cast<Values>((slow & straggler) | (fast & ~straggler));
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

void LatencyModel::sample_block_into(const std::vector<std::size_t>& widths,
                                     std::span<Rng> streams,
                                     std::span<double> out) const {
  validate(*this);
  const LatencyModel model = *this;
  const std::size_t n =
      std::accumulate(widths.begin(), widths.end(), std::size_t{0});
  WNF_EXPECTS(out.size() == streams.size() * n);
  if (model.kind == LatencyKind::kConstant) {  // no draw touches a stream
    std::fill(out.begin(), out.end(), model.base);
    return;
  }
  std::size_t p = 0;
  for (; p + 2 <= streams.size(); p += 2) {
    StreamPair pair(streams[p], streams[p + 1]);
    double* a = out.data() + p * n;
    double* b = a + n;
    for (std::size_t k = 0; k < n; ++k) {
      const Values v = draw_pair(model, pair);
      a[k] = v[0];
      b[k] = v[1];
    }
    streams[p].advance_to(pair.lane(0));
    streams[p + 1].advance_to(pair.lane(1));
  }
  if (p < streams.size()) {
    for (double& latency : out.subspan(p * n, n)) {
      latency = draw(model, streams[p]);
    }
  }
}

}  // namespace wnf::dist
