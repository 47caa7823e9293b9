// Unit tests for src/tensor: matrix storage and the gemv kernels,
// including bit-for-bit pins of the row-blocked gemv / gemv_csr against a
// one-row-at-a-time reference, of the probe-block kernels against gemv /
// gemv_csr / dot probe by probe (at every lane width this CPU runs), and of
// whole forward passes built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/builder.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace wnf {
namespace {

// The kernels' contract, written the plain way: each row summed from 0.0
// over its columns (or CSR edges) left to right.
void reference_gemv(const Matrix& a, std::span<const double> x,
                    std::span<double> y) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) sum += a(r, c) * x[c];
    y[r] = sum;
  }
}

void reference_gemv_csr(const Matrix& a, std::span<const std::size_t> row_ptr,
                        std::span<const std::size_t> cols,
                        std::span<const double> x, std::span<double> y) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      sum += a(r, cols[e]) * x[cols[e]];
    }
    y[r] = sum;
  }
}

// Bit equality, except that any NaN matches any NaN: IEEE 754 leaves the
// payload of a NaN produced from two NaN operands to the implementation,
// so NaN payloads are outside the kernels' bit-identity invariant. Signed
// zeros, infinities and subnormals must match exactly.
bool same_bits(double got, double want) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want);
  }
  return std::bit_cast<std::uint64_t>(got) ==
         std::bit_cast<std::uint64_t>(want);
}

// A value for the property tests: mostly normal draws, with signed zeros,
// subnormals, infinities and NaN mixed in when `specials` is set.
double draw_value(Rng& rng, bool specials) {
  if (specials && rng.bernoulli(0.15)) {
    constexpr double kSpecials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -3.0 * std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 7.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    return kSpecials[rng.uniform_index(std::size(kSpecials))];
  }
  return rng.normal();
}

std::string bits_hex(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return text;
}

TEST(Matrix, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (double v : m.flat()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 1.5);
  for (double v : m.flat()) EXPECT_EQ(v, 1.5);
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RowViewIsMutable) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_EQ(m(1, 2), 9.0);
}

TEST(Matrix, MaxAbs) {
  Matrix m{{1.0, -7.0}, {3.0, 4.0}};
  EXPECT_EQ(m.max_abs(), 7.0);
  EXPECT_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, ApproxEqual) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0 + 1e-9}};
  EXPECT_TRUE(a.approx_equal(b, 1e-8));
  EXPECT_FALSE(a.approx_equal(b, 1e-10));
  EXPECT_FALSE(a.approx_equal(Matrix(2, 1), 1.0));
}

TEST(Ops, GemvKnownValues) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> x{5.0, 6.0};
  std::vector<double> y(2);
  gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Ops, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a(7, 5);
  for (double& v : a.flat()) v = rng.normal();
  std::vector<double> x(7);
  for (double& v : x) v = rng.normal();
  Matrix transposed(5, 7);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 5; ++c) transposed(c, r) = a(r, c);
  }
  std::vector<double> expect(5);
  gemv(transposed, x, expect);
  std::vector<double> got(5);
  gemv_transposed(a, x, got);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(got[i], expect[i], 1e-12);
}

TEST(Ops, GemvBitIdenticalToRowAtATimeReference) {
  // Every shape from 1 to 13 rows (so every remainder of the 4-row block
  // occurs, alone and after full blocks) against 1 to 70 columns.
  Rng rng(21);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t rows = 1 + trial % 13;
    const std::size_t cols = 1 + rng.uniform_index(70);
    const bool specials = trial % 2 == 1;
    Matrix a(rows, cols);
    for (double& v : a.flat()) v = draw_value(rng, specials);
    std::vector<double> x(cols);
    for (double& v : x) v = draw_value(rng, specials);
    std::vector<double> want(rows);
    std::vector<double> got(rows, 42.0);
    reference_gemv(a, x, want);
    gemv(a, x, got);
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(same_bits(got[r], want[r]))
          << rows << "x" << cols << " row " << r << ": " << bits_hex(got[r])
          << " vs " << bits_hex(want[r]);
    }
  }
}

TEST(Ops, GemvCsrBitIdenticalToReferenceAndToDense) {
  // CSR masks with empty rows and rows of unequal length, so the 4-row
  // block's common prefix and each row's own tail are both exercised.
  Rng rng(22);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t rows = 1 + trial % 13;
    const std::size_t cols = 1 + rng.uniform_index(70);
    const bool specials = trial % 2 == 1;
    Matrix a(rows, cols);
    std::vector<std::size_t> row_ptr{0};
    std::vector<std::size_t> edges;
    for (std::size_t r = 0; r < rows; ++r) {
      constexpr double kDensities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
      const double density =
          kDensities[rng.uniform_index(std::size(kDensities))];
      for (std::size_t c = 0; c < cols; ++c) {
        if (rng.bernoulli(density)) {
          edges.push_back(c);
          a(r, c) = draw_value(rng, specials);
        }
      }
      row_ptr.push_back(edges.size());
    }
    std::vector<double> x(cols);
    for (double& v : x) v = draw_value(rng, specials);
    std::vector<double> want(rows);
    std::vector<double> got(rows, 42.0);
    reference_gemv_csr(a, row_ptr, edges, x, want);
    gemv_csr(a, row_ptr, edges, x, got);
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(same_bits(got[r], want[r]))
          << rows << "x" << cols << " row " << r << ": " << bits_hex(got[r])
          << " vs " << bits_hex(want[r]);
    }
    if (specials) continue;
    // With every non-edge weight exactly 0.0 and finite inputs, skipping
    // the non-edges changes no bit: CSR equals the dense product.
    std::vector<double> dense(rows);
    gemv(a, x, dense);
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                std::bit_cast<std::uint64_t>(dense[r]))
          << rows << "x" << cols << " row " << r;
    }
  }
}

// Output bits of a seeded 8->64->64->64 hard-sigmoid network on 8 seeded
// probes, and of its random-sparse twin (same weight stream, CSR layers).
// Hard sigmoid keeps libm out of the pin, so it holds for any toolchain
// that does not fuse multiply-adds (every x86-64 build without -march).
// The values were captured from the one-row-at-a-time kernels before the
// row-blocked ones replaced them.
nn::FeedForwardNetwork pinned_net(bool sparse) {
  Rng rng(2017);
  nn::NetworkBuilder builder(8);
  builder.activation(nn::ActivationKind::kHardSigmoid, 0.5)
      .hidden_layers({64, 64, 64})
      .init(nn::InitKind::kUniform, 0.3);
  if (sparse) builder.topology(nn::Topology::random_sparse(0.25));
  return builder.build(rng);
}

void expect_pinned_outputs(const nn::FeedForwardNetwork& net,
                           const std::uint64_t (&pinned)[8]) {
  Rng rng(14);
  nn::Workspace ws;
  for (std::size_t p = 0; p < std::size(pinned); ++p) {
    std::vector<double> x(8);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const double out = net.evaluate(x, ws);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out), pinned[p])
        << "probe " << p << " gave " << bits_hex(out);
  }
}

TEST(Ops, DenseForwardOutputBitsPinned) {
  constexpr std::uint64_t kPinned[8] = {
      0xbfe307a89d67a705, 0xbfe4177c1a4a7f1f, 0xbfe34119d218241f,
      0xbfe3e0b49d6d9548, 0xbfe379348ff0004a, 0xbfe754f6adf46be8,
      0xbfe2810f309de43e, 0xbfe5c004b3db9f30};
  expect_pinned_outputs(pinned_net(false), kPinned);
}

TEST(Ops, SparseForwardOutputBitsPinned) {
  const auto net = pinned_net(true);
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    ASSERT_TRUE(net.layer(l).is_sparse()) << "layer " << l;
  }
  constexpr std::uint64_t kPinned[8] = {
      0xbfe5764e40b55af2, 0xbfe59264c41dcba0, 0xbfe5b1aae14bc82d,
      0xbfe5ff60209cb440, 0xbfe5835666129c73, 0xbfe5736f56e1271e,
      0xbfe4f807e8ec6268, 0xbfe59406fb0a9753};
  expect_pinned_outputs(net, kPinned);
}

// Probe counts for the block kernels. A k-lane path runs 3 x 4 tiles per
// 4k probes, then one 6 x 2 and one 12 x 1 pass, and hands fewer than k
// probes to the next narrower path: these counts reach every tile of the
// 2-, 4- and 8-lane paths alone and after each other, with and without a
// tail (16 is a campaign trial, 8 a served run).
constexpr std::size_t kBlockProbeCounts[] = {1,  2,  3,  4,  5,  7,  8,  9, 12,
                                             15, 16, 17, 24, 31, 32, 33, 40};

// The lane widths run below, printed once so that a log shows which paths
// this CPU exercised and which it skipped.
std::span<const std::size_t> lane_widths() {
  static const auto widths = [] {
    const auto run = detail::block_lane_widths();
    std::string line = "[ lanes    ] block paths run:";
    for (const std::size_t lanes : run) line += " " + std::to_string(lanes);
    if (run.back() < 8) {
      line += "; skipped:";
      for (std::size_t lanes = run.back() * 2; lanes <= 8; lanes *= 2) {
        line += " " + std::to_string(lanes);
      }
      line += " (this CPU or build lacks them)";
    }
    std::printf("%s\n", line.c_str());
    return run;
  }();
  return widths;
}

// A block-kernel input: normal draws, with signed zeros, subnormals and
// infinities mixed in when `specials` is set, but no NaN input. Every NaN a
// kernel then makes (inf * 0, inf - inf) is the one default NaN, so whole
// outputs compare with memcmp.
double draw_block_value(Rng& rng, bool specials = true) {
  if (specials && rng.bernoulli(0.15)) {
    constexpr double kSpecials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -3.0 * std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 7.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    return kSpecials[rng.uniform_index(std::size(kSpecials))];
  }
  return rng.normal();
}

std::vector<std::vector<double>> draw_probes(std::size_t count,
                                             std::size_t dim, Rng& rng,
                                             bool specials = true) {
  std::vector<std::vector<double>> probes(count, std::vector<double>(dim));
  for (auto& probe : probes) {
    for (double& v : probe) v = draw_block_value(rng, specials);
  }
  return probes;
}

// Probe p's rows of a probe-minor block with `rows` rows.
std::vector<double> probe_of(const std::vector<double>& block,
                             std::size_t rows, std::size_t probes,
                             std::size_t p) {
  std::vector<double> column(rows);
  for (std::size_t r = 0; r < rows; ++r) column[r] = block[r * probes + p];
  return column;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Ops, BlockLanesAreTheWidestSupported) {
  std::size_t widest = 2;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    widest = __builtin_cpu_supports("avx512f") ? 8 : 4;
  }
#endif
  std::vector<std::size_t> want;
  for (std::size_t lanes = 2; lanes <= widest; lanes *= 2) {
    want.push_back(lanes);
  }
  const auto widths = lane_widths();
  EXPECT_EQ(std::vector<std::size_t>(widths.begin(), widths.end()), want);
}

TEST(Ops, GemvBlockBitIdenticalToGemvForEveryProbe) {
  // The campaign's square and input shapes, a one-row block, and row
  // counts that leave a remainder after the 3-, 6- and 12-row tiles.
  const std::pair<std::size_t, std::size_t> kShapes[] = {
      {64, 64}, {64, 8}, {1, 64}, {2, 5},  {7, 3},
      {13, 70}, {5, 1},  {11, 9}, {12, 4}, {25, 33}};
  Rng rng(23);
  // With specials nearly every 64-term sum is infinite or NaN in any order,
  // so each shape also runs on finite draws.
  for (const bool specials : {true, false}) {
    for (const auto& [rows, cols] : kShapes) {
      Matrix a(rows, cols);
      for (double& v : a.flat()) v = draw_block_value(rng, specials);
      for (const std::size_t probes : kBlockProbeCounts) {
        const auto xs = draw_probes(probes, cols, rng, specials);
        nn::Workspace ws;
        const auto block = ws.pack(xs);
        std::vector<std::vector<double>> want(probes,
                                              std::vector<double>(rows));
        for (std::size_t p = 0; p < probes; ++p) gemv(a, xs[p], want[p]);
        for (const std::size_t lanes : lane_widths()) {
          std::vector<double> y(rows * probes, 42.0);
          detail::gemv_block(lanes, a, block, probes, y);
          for (std::size_t p = 0; p < probes; ++p) {
            ASSERT_TRUE(same_bytes(probe_of(y, rows, probes, p), want[p]))
                << lanes << " lanes, " << rows << "x" << cols
                << ", P = " << probes << ", probe " << p;
          }
        }
        // The dispatched entry point is the widest path.
        std::vector<double> y(rows * probes, 42.0);
        gemv_block(a, block, probes, y);
        for (std::size_t p = 0; p < probes; ++p) {
          ASSERT_TRUE(same_bytes(probe_of(y, rows, probes, p), want[p]))
              << "gemv_block, " << rows << "x" << cols << ", P = " << probes
              << ", probe " << p;
        }
      }
    }
  }
}

TEST(Ops, GemvCsrBlockBitIdenticalToGemvCsrForEveryProbe) {
  struct Csr {
    Matrix a;
    std::vector<std::size_t> row_ptr;
    std::vector<std::size_t> cols;
  };
  std::vector<Csr> layers;
  // The builder's random-sparse (0.2) and small-world layers, 64 wide.
  for (const auto& topology : {nn::Topology::random_sparse(0.2),
                               nn::Topology::small_world(4, 0.3)}) {
    Rng build_rng(24);
    const auto net = nn::NetworkBuilder(8)
                         .topology(topology)
                         .hidden_layers({64, 64})
                         .build(build_rng);
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      const nn::LayerTopology* topo = net.layer(l).topology();
      ASSERT_NE(topo, nullptr);
      layers.push_back({net.layer(l).weights(),
                        {topo->row_ptr().begin(), topo->row_ptr().end()},
                        {topo->cols().begin(), topo->cols().end()}});
    }
  }
  // Rows of 0, 1 and 2 edges (a LayerTopology has no empty rows).
  layers.push_back({Matrix(5, 6), {0, 0, 1, 3, 3, 5}, {4, 0, 5, 1, 2}});
  Rng rng(25);
  for (Csr& layer : layers) {
    // Edge weights drawn like the inputs; every non-edge stays 0.0.
    for (std::size_t r = 0; r < layer.a.rows(); ++r) {
      for (std::size_t e = layer.row_ptr[r]; e < layer.row_ptr[r + 1]; ++e) {
        layer.a(r, layer.cols[e]) = draw_block_value(rng);
      }
    }
    const std::size_t rows = layer.a.rows();
    for (const std::size_t probes : kBlockProbeCounts) {
      const auto xs = draw_probes(probes, layer.a.cols(), rng);
      nn::Workspace ws;
      const auto block = ws.pack(xs);
      std::vector<double> y(rows * probes, 42.0);
      gemv_csr_block(layer.a, layer.row_ptr, layer.cols, block, probes, y);
      for (std::size_t p = 0; p < probes; ++p) {
        std::vector<double> want(rows);
        gemv_csr(layer.a, layer.row_ptr, layer.cols, xs[p], want);
        ASSERT_TRUE(same_bytes(probe_of(y, rows, probes, p), want))
            << rows << "x" << layer.a.cols() << " with " << layer.cols.size()
            << " edges, P = " << probes << ", probe " << p;
      }
    }
  }
}

TEST(Ops, DotBlockBitIdenticalToDotForEveryProbe) {
  Rng rng(26);
  for (const bool specials : {true, false}) {
    for (const std::size_t width : {64, 8, 1}) {
      std::vector<double> w(width);
      for (double& v : w) v = draw_block_value(rng, specials);
      for (const std::size_t probes : kBlockProbeCounts) {
        const auto xs = draw_probes(probes, width, rng, specials);
        nn::Workspace ws;
        const auto block = ws.pack(xs);
        std::vector<double> want(probes);
        for (std::size_t p = 0; p < probes; ++p) want[p] = dot(xs[p], w);
        for (const std::size_t lanes : lane_widths()) {
          std::vector<double> y(probes, 42.0);
          detail::dot_block(lanes, w, block, probes, y);
          for (std::size_t p = 0; p < probes; ++p) {
            ASSERT_TRUE(same_bytes({y[p]}, {want[p]}))
                << lanes << " lanes, width " << width << ", P = " << probes
                << ", probe " << p;
          }
        }
        std::vector<double> y(probes, 42.0);
        dot_block(w, block, probes, y);
        ASSERT_TRUE(same_bytes(y, want))
            << "dot_block, width " << width << ", P = " << probes;
      }
    }
  }
}

TEST(Ops, BlockForwardMatchesPerProbeForwardOnPinnedNets) {
  // The pinned nets' probes as one block: each output must carry the bits
  // of its one-probe pass, which the two pins above fix.
  for (const bool sparse : {false, true}) {
    const auto net = pinned_net(sparse);
    Rng rng(14);
    std::vector<std::vector<double>> xs(std::ranges::max(kBlockProbeCounts),
                                        std::vector<double>(8));
    for (auto& x : xs) {
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
    }
    nn::Workspace ws;
    for (const std::size_t probes : kBlockProbeCounts) {
      const std::span<const std::vector<double>> head(xs.data(), probes);
      std::vector<double> got(probes, 42.0);
      net.evaluate_hooked(ws.pack(head), {}, ws, got);
      std::vector<double> want(probes);
      for (std::size_t p = 0; p < probes; ++p) {
        want[p] = net.evaluate(xs[p], ws);
      }
      EXPECT_TRUE(same_bytes(got, want))
          << (sparse ? "sparse" : "dense") << ", P = " << probes;
    }
  }
}

TEST(Ops, Rank1Update) {
  Matrix a(2, 2, 1.0);
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y{3.0, 4.0};
  rank1_update(a, 0.5, x, y);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0 + 0.5 * 2.0 * 4.0);
}

TEST(Ops, DotAndMaxAbs) {
  std::vector<double> x{1.0, -2.0, 3.0};
  std::vector<double> y{4.0, 5.0, -6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 - 18.0);
  EXPECT_DOUBLE_EQ(max_abs(x), 3.0);
  EXPECT_DOUBLE_EQ(max_abs(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace wnf
