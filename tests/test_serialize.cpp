// nn::serialize property tests. The transport wire protocol ships whole
// networks through this format (transport::BindMsg), so its round-trip
// guarantee is now a load-bearing wall: every weight, bias, receptive
// field, and activation parameter must survive save -> load bit for bit,
// for any architecture, and malformed text must be rejected, not guessed
// at.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/builder.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/serialize.hpp"
#include "nn/topology.hpp"
#include "tests/text_mutation.hpp"
#include "util/rng.hpp"

namespace wnf::nn {
namespace {

/// The v1 text of SerializeV1.DenseGoldenTextIsByteIdentical's network.
const std::string kGoldenV1 =
    "wnf-network v1\n"
    "activation sigmoid 0.25\n"
    "input_dim 2\n"
    "layers 1\n"
    "layer 2 2 2\n"
    "0.5 -0.25\n"
    "1 0\n"
    "0.125 -1\n"
    "output 2\n"
    "2 -0.5\n"
    "output_bias 0.75\n"
    "end\n";

/// A random architecture: depth, widths, receptive fields, activation
/// kind and K, and every parameter drawn from `rng`.
FeedForwardNetwork random_network(Rng& rng) {
  const std::size_t input_dim = 1 + rng.uniform_index(5);
  const std::size_t depth = 1 + rng.uniform_index(4);
  const ActivationKind kind = static_cast<ActivationKind>(
      rng.uniform_index(3));  // kSigmoid, kTanh01, kHardSigmoid
  const double k = rng.uniform(0.1, 3.0);

  std::vector<DenseLayer> hidden;
  std::size_t prev = input_dim;
  for (std::size_t l = 0; l < depth; ++l) {
    const std::size_t width = 1 + rng.uniform_index(9);
    DenseLayer layer(width, prev);
    for (double& w : layer.weights().flat()) w = rng.uniform(-2.0, 2.0);
    for (double& b : layer.bias()) b = rng.uniform(-1.0, 1.0);
    layer.set_receptive_field(1 + rng.uniform_index(prev));
    hidden.push_back(std::move(layer));
    prev = width;
  }
  std::vector<double> output_weights(prev);
  for (double& w : output_weights) w = rng.uniform(-2.0, 2.0);
  return FeedForwardNetwork(input_dim, std::move(hidden),
                            std::move(output_weights),
                            rng.uniform(-1.0, 1.0), Activation(kind, k));
}

TEST(Serialize, RoundTripsRandomNetworksBitForBit) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 60; ++trial) {
    const auto net = random_network(rng);
    std::stringstream text;
    save_network(net, text);
    const auto loaded = load_network(text);
    ASSERT_TRUE(loaded.has_value()) << "trial " << trial;

    ASSERT_EQ(loaded->input_dim(), net.input_dim());
    ASSERT_EQ(loaded->layer_count(), net.layer_count());
    EXPECT_EQ(loaded->activation().kind(), net.activation().kind());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->activation().lipschitz()),
              std::bit_cast<std::uint64_t>(net.activation().lipschitz()));
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      const auto& a = net.layer(l);
      const auto& b = loaded->layer(l);
      ASSERT_EQ(b.out_size(), a.out_size());
      ASSERT_EQ(b.in_size(), a.in_size());
      EXPECT_EQ(b.receptive_field(), a.receptive_field());
      for (std::size_t j = 0; j < a.out_size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.bias()[j]),
                  std::bit_cast<std::uint64_t>(a.bias()[j]));
        for (std::size_t i = 0; i < a.in_size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(b.weights()(j, i)),
                    std::bit_cast<std::uint64_t>(a.weights()(j, i)))
              << "trial " << trial << " layer " << l;
        }
      }
    }
    ASSERT_EQ(loaded->output_weights().size(), net.output_weights().size());
    for (std::size_t i = 0; i < net.output_weights().size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->output_weights()[i]),
                std::bit_cast<std::uint64_t>(net.output_weights()[i]));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->output_bias()),
              std::bit_cast<std::uint64_t>(net.output_bias()));

    // The semantic consequence the transport relies on: the loaded network
    // is the same function, bit for bit.
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<double> x(net.input_dim());
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->evaluate(x)),
                std::bit_cast<std::uint64_t>(net.evaluate(x)));
    }
  }
}

TEST(Serialize, RejectsMalformedText) {
  Rng rng(99);
  const auto net = random_network(rng);
  std::stringstream text;
  save_network(net, text);
  const std::string good = text.str();

  // Whole-prefix truncations at every line boundary must all fail; the
  // only accepted text is the complete document.
  for (std::size_t at = good.find('\n'); at != std::string::npos;
       at = good.find('\n', at + 1)) {
    if (at + 1 == good.size()) continue;  // the full document
    std::istringstream in(good.substr(0, at + 1));
    EXPECT_FALSE(load_network(in).has_value())
        << "accepted a " << (at + 1) << "-byte prefix";
  }

  const auto rejects = [&](std::string broken) {
    std::istringstream in(broken);
    return !load_network(in).has_value();
  };
  EXPECT_TRUE(rejects("wnf-network v2\n"));           // truncated document
  EXPECT_TRUE(rejects("wnf-network v3\n"));           // unknown version
  EXPECT_TRUE(rejects("not-a-network v1\n"));         // wrong magic token
  std::string bad_kind = good;
  bad_kind.replace(bad_kind.find("activation "), 11, "activation bogus__");
  EXPECT_TRUE(rejects(bad_kind));
  std::string no_end = good;
  no_end.replace(no_end.rfind("end"), 3, "dne");      // corrupt terminator
  EXPECT_TRUE(rejects(no_end));
  std::string bad_number = good;
  bad_number.replace(bad_number.find("layers "), 8, "layers x");
  EXPECT_TRUE(rejects(bad_number));

  // Counts far beyond the text are refused, not allocated (the first two
  // threw std::bad_alloc); the last width's weight count overflows size_t.
  const auto lying = [&](const std::string& from, const std::string& to) {
    std::string doc = kGoldenV1;
    return rejects(doc.replace(doc.find(from), from.size(), to));
  };
  EXPECT_TRUE(lying("layers 1", "layers 100000000000"));
  EXPECT_TRUE(lying("layer 2 2 2", "layer 100000000000 2 2"));
  EXPECT_TRUE(lying("layer 2 2 2", "layer 9223372036854775808 2 2"));
}

/// random_network with a sparse topology (and sometimes per-edge channel
/// capacities) attached to a random subset of its layers.
FeedForwardNetwork random_sparse_network(Rng& rng, bool& any_sparse) {
  auto net = random_network(rng);
  any_sparse = false;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    auto& layer = net.layer(l);
    if (!rng.bernoulli(0.7)) continue;
    auto topo = LayerTopology::random_sparse(layer.out_size(),
                                             layer.in_size(), 0.5, rng);
    if (rng.bernoulli(0.5)) {
      std::vector<double> caps(topo.edge_count());
      for (double& cap : caps) cap = rng.uniform(0.5, 2.0);
      topo.set_edge_capacities(std::move(caps));
    }
    layer.set_topology(std::move(topo));
    if (layer.is_sparse()) any_sparse = true;
  }
  return net;
}

TEST(SerializeV2, RoundTripsSparseTopologiesBitForBit) {
  Rng rng(0x70F0);
  int sparse_docs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    bool any_sparse = false;
    const auto net = random_sparse_network(rng, any_sparse);
    std::stringstream text;
    save_network(net, text);
    // The v2 header appears exactly when some layer carries real structure;
    // dense-only nets keep emitting v1 (old readers stay compatible).
    EXPECT_EQ(text.str().rfind(any_sparse ? "wnf-network v2\n"
                                          : "wnf-network v1\n", 0), 0u);
    sparse_docs += any_sparse ? 1 : 0;
    const auto loaded = load_network(text);
    ASSERT_TRUE(loaded.has_value()) << "trial " << trial;
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      const auto& a = net.layer(l);
      const auto& b = loaded->layer(l);
      ASSERT_EQ(b.is_sparse(), a.is_sparse()) << "trial " << trial;
      if (a.is_sparse()) {
        EXPECT_EQ(*b.topology(), *a.topology());  // structure AND capacities
      }
      EXPECT_EQ(b.receptive_field(), a.receptive_field());
      for (std::size_t j = 0; j < a.out_size(); ++j) {
        for (std::size_t i = 0; i < a.in_size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(b.weights()(j, i)),
                    std::bit_cast<std::uint64_t>(a.weights()(j, i)));
        }
      }
    }
    for (int probe = 0; probe < 3; ++probe) {
      std::vector<double> x(net.input_dim());
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->evaluate(x)),
                std::bit_cast<std::uint64_t>(net.evaluate(x)));
    }
  }
  EXPECT_GT(sparse_docs, 10);  // the property test actually exercised v2
}

/// A minimal well-formed v2 document: one 2x2 layer with three edges.
const std::string kSparseV2 =
    "wnf-network v2\n"
    "activation sigmoid 1\n"
    "input_dim 2\n"
    "layers 1\n"
    "layer 2 2 2\n"
    "adjacency sparse 3\n"
    "rowptr 0 2 3\n"
    "cols 0 1 1\n"
    "edgecaps 0\n"
    "1 0.5\n"
    "0 0.25\n"
    "0.125 -1\n"
    "output 2\n"
    "2 -0.5\n"
    "output_bias 0.75\n"
    "end\n";

TEST(SerializeV2, RejectsMalformedAdjacency) {
  // The minimal v2 document, then one surgical corruption per case. The
  // loader must return nullopt — never abort on a contract.
  const std::string& good = kSparseV2;
  {
    std::istringstream in(good);
    const auto loaded = load_network(in);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->layer(1).is_sparse());
    EXPECT_EQ(loaded->layer(1).edge_count(), 3u);
    // set_topology re-masks on load: the non-edge weight (1, 0) is zeroed.
    EXPECT_EQ(loaded->layer(1).weights()(1, 0), 0.0);
  }
  const auto rejects = [&](const std::string& from, const std::string& to) {
    std::string broken = good;
    const auto at = broken.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    broken.replace(at, from.size(), to);
    std::istringstream in(broken);
    EXPECT_FALSE(load_network(in).has_value())
        << "accepted: " << from << " -> " << to;
  };
  rejects("adjacency sparse 3", "adjacency sparse 0");   // nnz = 0
  rejects("adjacency sparse 3", "adjacency sparse 5");   // nnz > out*in
  rejects("adjacency sparse", "adjacency banana");       // unknown shape
  rejects("rowptr 0 2 3", "rowptr 1 2 3");               // must start at 0
  rejects("rowptr 0 2 3", "rowptr 0 2 4");               // must end at nnz
  rejects("rowptr 0 2 3", "rowptr 0 3 3");               // empty row 1
  rejects("rowptr 0 2 3", "rowptr 0 0 3");               // empty row 0
  // Row 0 claims five edges of three, the first three valid: reading on
  // into `cols` was a heap overflow (caught under ASan).
  rejects("input_dim 2\nlayers 1\nlayer 2 2 2\nadjacency sparse 3\n"
          "rowptr 0 2 3\ncols 0 1 1\nedgecaps 0\n1 0.5\n0 0.25",
          "input_dim 4\nlayers 1\nlayer 2 4 4\nadjacency sparse 3\n"
          "rowptr 0 5 3\ncols 0 1 2\nedgecaps 0\n1 0.5 1 1\n0 0.25 1 1");
  rejects("cols 0 1 1", "cols 1 0 1");                   // unsorted row 0
  rejects("cols 0 1 1", "cols 0 0 1");                   // duplicate col
  rejects("cols 0 1 1", "cols 0 2 1");                   // col out of range
  rejects("edgecaps 0", "edgecaps 2");                   // count != nnz
  rejects("edgecaps 0", "edgecaps 3 1 -1 1");            // negative capacity
  rejects("edgecaps 0", "edgecaps 3 1 0 1");             // zero capacity
  rejects("edgecaps 0", "edgecaps 3 1 inf 1");           // non-finite capacity
  // A v1 header cannot carry an adjacency section: the weight parser sees
  // the token and fails.
  rejects("wnf-network v2", "wnf-network v1");
  // A width or nnz far beyond the text is refused, not allocated (the width
  // threw std::bad_alloc).
  rejects("layer 2 2 2", "layer 10000000000 2 2");
  rejects("adjacency sparse 3", "adjacency sparse 100000000000");
}

TEST(SerializeV1, DenseGoldenTextIsByteIdentical) {
  // Byte-for-byte pin of the v1 format on a hand-built network whose
  // parameters all print exactly. Any drift here breaks old readers and
  // the transport's Bind frames.
  std::vector<DenseLayer> hidden;
  DenseLayer layer(2, 2);
  layer.weights()(0, 0) = 0.5;
  layer.weights()(0, 1) = -0.25;
  layer.weights()(1, 0) = 1.0;
  layer.weights()(1, 1) = 0.0;
  layer.bias()[0] = 0.125;
  layer.bias()[1] = -1.0;
  hidden.push_back(std::move(layer));
  const FeedForwardNetwork net(2, std::move(hidden), {2.0, -0.5}, 0.75,
                               Activation(ActivationKind::kSigmoid, 0.25));
  std::stringstream text;
  save_network(net, text);
  EXPECT_EQ(text.str(), kGoldenV1);
}

TEST(Serialize, SeededMutationsNeverAbortAndReloadToAFixedPoint) {
  // Seeded mutants of the v1 golden text and of a v2 document with per-edge
  // capacities. Whatever the loader makes of one, it returns (no abort, no
  // exception, no out-of-bounds read under ASan), and whatever it accepts
  // saves to text that loads and saves to the same bytes.
  std::string capped = kSparseV2;
  capped.replace(capped.find("edgecaps 0"), 10, "edgecaps 3 0.5 1.25 2");
  const std::string seeds[2] = {kGoldenV1, capped};
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return load_network(in);
  };
  const auto save = [](const FeedForwardNetwork& net) {
    std::ostringstream out;
    save_network(net, out);
    return out.str();
  };
  ASSERT_TRUE(load(seeds[0]).has_value() && load(seeds[1]).has_value());
  Rng rng(0xF022);
  int accepted = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const std::size_t pick = rng.uniform_index(2);
    std::string doc = seeds[pick];
    for (std::size_t n = 1 + rng.uniform_index(3); n > 0; --n) {
      doc = mutate(doc, seeds[1 - pick], rng);
    }
    std::optional<FeedForwardNetwork> loaded;
    EXPECT_NO_THROW(loaded = load(doc)) << doc;
    if (!loaded) continue;
    ++accepted;
    const std::string first = save(*loaded);
    const auto reloaded = load(first);
    ASSERT_TRUE(reloaded.has_value()) << doc;
    EXPECT_EQ(save(*reloaded), first) << doc;
  }
  // The mutants reach the accepting path, not only the rejecting one.
  EXPECT_GT(accepted, 200);
}

}  // namespace
}  // namespace wnf::nn
