// Sparse & small-world topology tests: generator invariants, the builder's
// Topology-spec API, CSR-vs-dense forward bit-identity, sparse-aware FEP and
// Lipschitz tightening, per-edge channel capacities in the simulator, the
// edge-aware synapse adversary, and the acceptance campaign — a small-world
// net bit-identical across all four EvalBackends, with worker SIGKILLs
// mid-campaign on the transport path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/fep.hpp"
#include "core/lipschitz.hpp"
#include "data/dataset.hpp"
#include "dist/sim.hpp"
#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/adversary.hpp"
#include "fault/campaign.hpp"
#include "nn/builder.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "transport/worker.hpp"

namespace wnf::nn {
namespace {

#define SKIP_WITHOUT_TRANSPORT()                                    \
  if (!transport::transport_available()) {                          \
    GTEST_SKIP() << "no POSIX fork/socketpair on this platform";    \
  }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Two sparse hidden layers (12x8 and 12x12) under one connectivity spec.
FeedForwardNetwork topo_net(const Topology& spec, std::uint64_t seed = 5) {
  Rng rng(seed);
  return NetworkBuilder(8)
      .activation(ActivationKind::kSigmoid, 1.0)
      .topology(spec)
      .hidden(12)
      .hidden(12)
      .init(InitKind::kUniform, 0.6)
      .build(rng);
}

std::vector<std::vector<double>> random_probes(std::size_t count,
                                               std::size_t dim, Rng& rng) {
  std::vector<std::vector<double>> probes(count);
  for (auto& p : probes) {
    for (std::size_t i = 0; i < dim; ++i) p.push_back(rng.uniform());
  }
  return probes;
}

// ------------------------------------------------------------------- specs

TEST(TopologySpec, FactoriesCarryTheirParameters) {
  EXPECT_TRUE(Topology::dense().is_dense());
  const Topology sparse = Topology::random_sparse(0.3);
  EXPECT_FALSE(sparse.is_dense());
  EXPECT_EQ(sparse.kind, Topology::Kind::kRandomSparse);
  EXPECT_DOUBLE_EQ(sparse.density, 0.3);
  const Topology sw = Topology::small_world(4, 0.2);
  EXPECT_EQ(sw.kind, Topology::Kind::kSmallWorld);
  EXPECT_EQ(sw.neighbors, 4u);
  EXPECT_DOUBLE_EQ(sw.beta, 0.2);
  EXPECT_EQ(sw, Topology::small_world(4, 0.2));
  EXPECT_NE(sw, Topology::small_world(5, 0.2));
}

// -------------------------------------------------------------- generators

TEST(LayerTopologyGenerators, DenseCoversEveryEdge) {
  const auto topo = LayerTopology::dense(4, 3);
  EXPECT_EQ(topo.out_size(), 4u);
  EXPECT_EQ(topo.in_size(), 3u);
  EXPECT_EQ(topo.edge_count(), 12u);
  EXPECT_TRUE(topo.is_full());
  EXPECT_EQ(topo.max_in_degree(), 3u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(topo.in_degree(j), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(topo.has_edge(j, i));
  }
}

TEST(LayerTopologyGenerators, RandomSparseIsDeterministicAndNeverIsolated) {
  Rng a(21);
  Rng b(21);
  Rng c(22);
  const auto first = LayerTopology::random_sparse(16, 16, 0.3, a);
  const auto second = LayerTopology::random_sparse(16, 16, 0.3, b);
  const auto other = LayerTopology::random_sparse(16, 16, 0.3, c);
  EXPECT_EQ(first, second);   // same seed, same adjacency
  EXPECT_NE(first, other);    // different seed, different adjacency
  EXPECT_LT(first.edge_count(), 16u * 16u);
  for (std::size_t j = 0; j < first.out_size(); ++j) {
    ASSERT_GE(first.in_degree(j), 1u);
    const auto row = first.row(j);
    for (std::size_t e = 1; e < row.size(); ++e) {
      EXPECT_LT(row[e - 1], row[e]);  // sorted, unique
    }
    EXPECT_LT(row.back(), first.in_size());
  }
}

TEST(LayerTopologyGenerators, SmallWorldKeepsLatticeDegree) {
  Rng rng(7);
  const auto lattice = LayerTopology::small_world(16, 16, 4, 0.0, rng);
  for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(lattice.in_degree(j), 4u);
  // beta = 0: receiver 0 anchors at sender 0 and keeps the 4 ring-nearest
  // senders {-2, -1, 0, 1} mod 16 = {14, 15, 0, 1}.
  const auto row0 = lattice.row(0);
  ASSERT_EQ(row0.size(), 4u);
  EXPECT_EQ(row0[0], 0u);
  EXPECT_EQ(row0[1], 1u);
  EXPECT_EQ(row0[2], 14u);
  EXPECT_EQ(row0[3], 15u);

  Rng a(9);
  Rng b(9);
  const auto rewired = LayerTopology::small_world(16, 16, 4, 0.4, a);
  EXPECT_EQ(rewired, LayerTopology::small_world(16, 16, 4, 0.4, b));
  for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(rewired.in_degree(j), 4u);
  EXPECT_NE(rewired, lattice);  // 64 edges at beta=0.4: some rewire

  // k >= in clamps to a fully connected block.
  Rng d(3);
  const auto full = LayerTopology::small_world(4, 3, 5, 0.5, d);
  EXPECT_TRUE(full.is_full());
}

TEST(LayerTopologyGenerators, FromSpecMatchesDirectGenerators) {
  Rng a(13);
  Rng b(13);
  EXPECT_EQ(LayerTopology::from_spec(Topology::random_sparse(0.4), 10, 8, a),
            LayerTopology::random_sparse(10, 8, 0.4, b));
  Rng c(13);
  Rng d(13);
  EXPECT_EQ(LayerTopology::from_spec(Topology::small_world(3, 0.25), 10, 8, c),
            LayerTopology::small_world(10, 8, 3, 0.25, d));
  // Dense specs consume no randomness: the stream continues identically.
  Rng e(13);
  Rng f(13);
  (void)LayerTopology::from_spec(Topology::dense(), 10, 8, e);
  EXPECT_EQ(bits(e.uniform()), bits(f.uniform()));
}

TEST(LayerTopology, EdgeOffsetAndRowLookupsRoundTrip) {
  Rng rng(31);
  const auto topo = LayerTopology::random_sparse(12, 10, 0.3, rng);
  ASSERT_FALSE(topo.is_full());
  const auto row_ptr = topo.row_ptr();
  const auto cols = topo.cols();
  for (std::size_t j = 0; j < topo.out_size(); ++j) {
    for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
      EXPECT_EQ(topo.edge_row(e), j);
      EXPECT_EQ(topo.edge_offset(j, cols[e]), e);
      EXPECT_TRUE(topo.has_edge(j, cols[e]));
    }
  }
  // Some absent pair must exist; its offset is npos.
  bool found_absent = false;
  for (std::size_t j = 0; j < topo.out_size() && !found_absent; ++j) {
    for (std::size_t i = 0; i < topo.in_size(); ++i) {
      if (!topo.has_edge(j, i)) {
        EXPECT_EQ(topo.edge_offset(j, i), LayerTopology::npos);
        found_absent = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_absent);
}

TEST(LayerTopology, EdgeCapacitiesInstallAndClear) {
  Rng rng(5);
  auto topo = LayerTopology::random_sparse(6, 6, 0.5, rng);
  EXPECT_FALSE(topo.has_edge_capacities());
  std::vector<double> caps(topo.edge_count());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    caps[e] = 0.5 + static_cast<double>(e);
  }
  topo.set_edge_capacities(caps);
  ASSERT_TRUE(topo.has_edge_capacities());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    EXPECT_DOUBLE_EQ(topo.edge_capacity(e), caps[e]);
  }
  topo.set_uniform_edge_capacity(2.0);
  for (std::size_t e = 0; e < topo.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(topo.edge_capacity(e), 2.0);
  }
  topo.clear_edge_capacities();
  EXPECT_FALSE(topo.has_edge_capacities());
}

TEST(LayerTopologyDeathTest, RejectsMalformedStructureAndCapacities) {
  // Unsorted columns within a row.
  EXPECT_DEATH(LayerTopology(3, {0, 2, 3, 4}, {2, 1, 0, 0}), "precondition");
  // Empty row (receiver 1 has no in-edges).
  EXPECT_DEATH(LayerTopology(3, {0, 1, 1, 2}, {0, 2}), "precondition");
  // Column out of range.
  EXPECT_DEATH(LayerTopology(3, {0, 1, 2, 3}, {0, 3, 1}), "precondition");
  Rng rng(2);
  auto topo = LayerTopology::random_sparse(4, 4, 0.5, rng);
  EXPECT_DEATH(topo.set_edge_capacities({1.0}), "precondition");
  EXPECT_DEATH(
      topo.set_edge_capacities(std::vector<double>(topo.edge_count(), -1.0)),
      "precondition");
}

// ------------------------------------------------------------ layer & net

TEST(SparseLayer, SetTopologyMasksWeightsAndDerivesReceptiveField) {
  Rng rng(17);
  auto net = topo_net(Topology::dense(), 17);
  auto& layer = net.layer(2);
  const Matrix before = layer.weights();
  const auto topo = LayerTopology::random_sparse(12, 12, 0.3, rng);
  layer.set_topology(topo);
  ASSERT_TRUE(layer.is_sparse());
  EXPECT_EQ(layer.receptive_field(), topo.max_in_degree());
  EXPECT_EQ(layer.edge_count(), topo.edge_count());
  for (std::size_t j = 0; j < 12; ++j) {
    EXPECT_EQ(layer.in_degree(j), topo.in_degree(j));
    for (std::size_t i = 0; i < 12; ++i) {
      if (topo.has_edge(j, i)) {
        EXPECT_EQ(bits(layer.weights()(j, i)), bits(before(j, i)));
      } else {
        EXPECT_EQ(bits(layer.weights()(j, i)), bits(0.0));
      }
    }
  }
  layer.clear_topology();
  EXPECT_FALSE(layer.is_sparse());
  EXPECT_EQ(layer.receptive_field(), layer.in_size());
}

TEST(SparseLayer, FullTopologyWithoutCapacitiesDecaysToDense) {
  auto net = topo_net(Topology::dense(), 23);
  auto& layer = net.layer(1);
  layer.set_topology(LayerTopology::dense(12, 8));
  EXPECT_FALSE(layer.is_sparse());  // nothing to represent: stays dense
  auto capped = LayerTopology::dense(12, 8);
  capped.set_uniform_edge_capacity(3.0);
  layer.set_topology(capped);
  EXPECT_TRUE(layer.is_sparse());  // capacities make the structure load-bearing
}

TEST(SparseNetwork, CsrForwardBitIdenticalToDenseKernelOnMaskedWeights) {
  // The core invariant of the whole subsystem: gemv accumulates left to
  // right, so skipping exact-zero (masked) terms changes nothing — the CSR
  // path and the dense kernel over the masked matrix agree bit for bit.
  const auto net = topo_net(Topology::small_world(5, 0.3), 29);
  ASSERT_TRUE(net.layer(1).is_sparse());
  ASSERT_TRUE(net.layer(2).is_sparse());
  auto dense_twin = net;
  for (std::size_t l = 1; l <= dense_twin.layer_count(); ++l) {
    dense_twin.layer(l).clear_topology();
  }
  EXPECT_LT(net.synapse_count(), dense_twin.synapse_count());
  Rng rng(31);
  for (const auto& x : random_probes(25, net.input_dim(), rng)) {
    EXPECT_EQ(bits(net.evaluate(x)), bits(dense_twin.evaluate(x)));
  }
}

TEST(SparseNetwork, SynapseCountCountsRealisedEdgesOnly) {
  const auto net = topo_net(Topology::small_world(5, 0.0), 3);
  // Small-world degree is exactly k when k < in: 12*5 + 12*5 edges, plus
  // 12 + 12 biases, plus 12 output synapses and the output bias.
  EXPECT_EQ(net.synapse_count(), 12u * 5 + 12u * 5 + 12u + 12u + 12u + 1u);
}

// ----------------------------------------------------------------- builder

TEST(TopologyBuilder, DenseDefaultIsBitIdenticalToLegacyConstruction) {
  Rng a(41);
  Rng b(41);
  const auto legacy = NetworkBuilder(4).hidden(6).hidden(5).build(a);
  const auto spelled = NetworkBuilder(4)
                           .topology(Topology::dense())
                           .hidden(6)
                           .hidden(5)
                           .build(b);
  for (std::size_t l = 1; l <= legacy.layer_count(); ++l) {
    const auto& lw = legacy.layer(l).weights();
    const auto& sw = spelled.layer(l).weights();
    for (std::size_t j = 0; j < lw.rows(); ++j) {
      for (std::size_t i = 0; i < lw.cols(); ++i) {
        EXPECT_EQ(bits(lw(j, i)), bits(sw(j, i)));
      }
    }
  }
  for (std::size_t i = 0; i < legacy.output_weights().size(); ++i) {
    EXPECT_EQ(bits(legacy.output_weights()[i]),
              bits(spelled.output_weights()[i]));
  }
}

TEST(TopologyBuilder, PerLayerOverrideComposesWithNetworkDefault) {
  Rng rng(47);
  const auto net = NetworkBuilder(8)
                       .topology(Topology::random_sparse(0.3))
                       .hidden(16)
                       .hidden(16, Topology::small_world(4, 0.2))
                       .hidden(16, Topology::dense())
                       .build(rng);
  ASSERT_TRUE(net.layer(1).is_sparse());
  ASSERT_TRUE(net.layer(2).is_sparse());
  EXPECT_FALSE(net.layer(3).is_sparse());
  // The small-world override shows its signature: every in-degree is k.
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(net.layer(2).in_degree(j), 4u);
  }
}

TEST(TopologyBuilder, WeightStreamInvariantAcrossSparseSpecs) {
  // Adjacency draws come from split children, so two different sparse specs
  // at the same seed share every weight draw — edges present in both carry
  // bit-identical weights, and biases/output weights match exactly.
  const auto a = topo_net(Topology::random_sparse(0.4), 53);
  const auto b = topo_net(Topology::small_world(4, 0.5), 53);
  for (std::size_t l = 1; l <= a.layer_count(); ++l) {
    const auto* ta = a.layer(l).topology();
    const auto* tb = b.layer(l).topology();
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    for (std::size_t j = 0; j < a.layer(l).out_size(); ++j) {
      EXPECT_EQ(bits(a.layer(l).bias()[j]), bits(b.layer(l).bias()[j]));
      for (std::size_t i = 0; i < a.layer(l).in_size(); ++i) {
        if (ta->has_edge(j, i) && tb->has_edge(j, i)) {
          EXPECT_EQ(bits(a.layer(l).weights()(j, i)),
                    bits(b.layer(l).weights()(j, i)));
        }
      }
    }
  }
  for (std::size_t i = 0; i < a.output_weights().size(); ++i) {
    EXPECT_EQ(bits(a.output_weights()[i]), bits(b.output_weights()[i]));
  }
}

// ------------------------------------------------------------------ bounds

TEST(SparseBounds, ProfileRecordsPerNeuronFanIn) {
  const auto net = topo_net(Topology::small_world(5, 0.3), 59);
  const auto p = theory::profile_of(net);
  ASSERT_EQ(p.fan_in.size(), 2u);
  for (std::size_t l = 1; l <= 2; ++l) {
    EXPECT_TRUE(p.layer_sparse(l));
    const auto* topo = net.layer(l).topology();
    ASSERT_NE(topo, nullptr);
    std::size_t max_deg = 0;
    for (std::size_t j = 0; j < net.layer_width(l); ++j) {
      EXPECT_EQ(p.fan_in_of(l, j), topo->in_degree(j));
      max_deg = std::max(max_deg, topo->in_degree(j));
    }
    EXPECT_EQ(p.receptive(l), max_deg);
  }
  const auto dense = topo_net(Topology::dense(), 59);
  const auto pd = theory::profile_of(dense);
  EXPECT_FALSE(pd.layer_sparse(1));
  EXPECT_FALSE(pd.layer_sparse(2));
  EXPECT_EQ(pd.receptive(1), 8u);
  EXPECT_EQ(pd.receptive(2), 12u);
}

TEST(SparseBounds, SparseAdjacencyTightensFepAndLipschitz) {
  const auto net = topo_net(Topology::small_world(4, 0.2), 61);
  const auto sparse = theory::profile_of(net);
  // The dense-assumption profile of the same architecture: identical widths
  // and weight maxima, but no sparse caps.
  auto dense_view = sparse;
  dense_view.sparse.assign(dense_view.depth, 0);
  dense_view.set_uniform_fan_in(1, 8);
  dense_view.set_uniform_fan_in(2, 12);

  theory::FepOptions options;
  options.mode = theory::FailureMode::kCrash;
  const std::vector<std::size_t> faults{8, 0};
  const double tight =
      theory::forward_error_propagation(sparse, faults, options);
  const double loose =
      theory::forward_error_propagation(dense_view, faults, options);
  EXPECT_GT(tight, 0.0);
  // 8 crashed senders, but every layer-2 neuron listens to at most 4 of
  // them: the error-carrier count halves.
  EXPECT_LT(tight, loose);
  EXPECT_NEAR(tight / loose, 0.5, 1e-12);

  EXPECT_LT(theory::network_lipschitz_bound(sparse),
            theory::network_lipschitz_bound(dense_view));
}

TEST(SparseBounds, CampaignObservationsRespectTightenedBound) {
  // Soundness end to end: the sparse-tightened Theorem 2/4 bounds still
  // dominate everything a Monte-Carlo campaign observes on a sparse net.
  const auto net = topo_net(Topology::small_world(5, 0.3), 67);
  for (const auto attack : {fault::AttackKind::kRandomCrash,
                            fault::AttackKind::kRandomSynapseByzantine}) {
    fault::CampaignConfig config;
    config.attack = attack;
    config.trials = 40;
    config.probes_per_trial = 8;
    config.seed = 71;
    std::vector<std::size_t> counts(net.layer_count(), 1);
    theory::FepOptions options;
    if (attack == fault::AttackKind::kRandomCrash) {
      options.mode = theory::FailureMode::kCrash;
    } else {
      counts.push_back(1);
      options.mode = theory::FailureMode::kByzantine;
    }
    const auto result = fault::run_campaign(net, counts, config, options);
    EXPECT_GT(result.fep_bound, 0.0);
    EXPECT_LE(result.observed_max, result.fep_bound);
  }
}

// --------------------------------------------------------------- adversary

TEST(SparseAdversary, SynapsePlansSampleOnlyRealisedEdges) {
  const auto net = topo_net(Topology::random_sparse(0.3), 73);
  const std::vector<std::size_t> counts{3, 3, 2};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(100 + seed);
    const auto plan =
        fault::random_synapse_byzantine_plan(net, counts, 1.0, rng);
    ASSERT_EQ(plan.synapses.size(), 8u);
    for (const auto& fault : plan.synapses) {
      if (fault.layer > net.layer_count()) continue;  // output synapse set
      const auto* topo = net.layer(fault.layer).topology();
      ASSERT_NE(topo, nullptr);
      EXPECT_TRUE(topo->has_edge(fault.to, fault.from));
    }
    fault::validate_plan(plan, net);  // aborts on an absent edge
  }
}

TEST(SparsePlanDeathTest, RejectsSynapseFaultOnAbsentEdge) {
  const auto net = topo_net(Topology::random_sparse(0.3), 79);
  const auto* topo = net.layer(2).topology();
  ASSERT_NE(topo, nullptr);
  ASSERT_FALSE(topo->is_full());
  std::size_t to = 0;
  std::size_t from = 0;
  bool found = false;
  for (std::size_t j = 0; j < 12 && !found; ++j) {
    for (std::size_t i = 0; i < 12; ++i) {
      if (!topo->has_edge(j, i)) {
        to = j;
        from = i;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  fault::FaultPlan plan;
  plan.synapses = {{2, to, from, fault::SynapseFaultKind::kCrash, 0.0}};
  EXPECT_DEATH(fault::validate_plan(plan, net), "absent edge");
}

// ---------------------------------------------------- per-edge capacities

TEST(EdgeCapacities, UniformNonBindingCapsAreABitIdenticalNoOp) {
  // With every per-edge capacity above anything transmitted, the explicit
  // clamping loop must accumulate term for term like gemv_csr — outputs are
  // bit-identical, faults included.
  const auto net = topo_net(Topology::small_world(5, 0.3), 83);
  auto capped = net;
  for (std::size_t l = 1; l <= capped.layer_count(); ++l) {
    ASSERT_TRUE(capped.layer(l).is_sparse());
    LayerTopology topo = *capped.layer(l).topology();
    topo.set_uniform_edge_capacity(4.0);  // sigmoid values never exceed 1
    capped.layer(l).set_topology(std::move(topo));
  }
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  const auto* topo = net.layer(2).topology();
  plan.synapses = {{2, topo->edge_row(0), topo->cols()[0],
                    fault::SynapseFaultKind::kCrash, 0.0}};

  dist::NetworkSimulator plain(net, dist::SimConfig{});
  dist::NetworkSimulator with_caps(capped, dist::SimConfig{});
  plain.apply_faults(plan);
  with_caps.apply_faults(plan);
  Rng rng(89);
  for (const auto& x : random_probes(10, net.input_dim(), rng)) {
    EXPECT_EQ(bits(plain.evaluate(x).output),
              bits(with_caps.evaluate(x).output));
  }
}

TEST(EdgeCapacities, BindingCapacityClampsExactlyThatEdge) {
  // 2-in/2-out single hidden layer with hand-picked weights; the capacity
  // on edge (0,0) clamps what input 0 delivers to neuron 0, nothing else.
  std::vector<DenseLayer> hidden;
  DenseLayer layer(2, 2);
  layer.weights()(0, 0) = 1.0;
  layer.weights()(0, 1) = 0.5;
  layer.weights()(1, 0) = -0.25;
  layer.weights()(1, 1) = 0.75;
  layer.bias()[0] = 0.1;
  layer.bias()[1] = -0.2;
  auto topo = LayerTopology::dense(2, 2);
  topo.set_edge_capacities({0.25, 8.0, 8.0, 8.0});
  layer.set_topology(std::move(topo));
  hidden.push_back(std::move(layer));
  const FeedForwardNetwork net(2, std::move(hidden), {1.0, -1.0}, 0.05,
                               Activation(ActivationKind::kSigmoid, 1.0));

  const std::vector<double> x{0.8, 0.5};
  const double pre0 = 1.0 * 0.25 + 0.5 * 0.5 + 0.1;  // 0.8 clamped to 0.25
  const double pre1 = -0.25 * 0.8 + 0.75 * 0.5 + -0.2;
  const auto& phi = net.activation();
  dist::NetworkSimulator sim(net, dist::SimConfig{});
  EXPECT_DOUBLE_EQ(sim.evaluate(x).output,
                   phi.value(pre0) - phi.value(pre1) + 0.05);

  // A crash of the capped synapse removes the *clamped* delivery.
  fault::FaultPlan plan;
  plan.synapses = {{1, 0, 0, fault::SynapseFaultKind::kCrash, 0.0}};
  sim.apply_faults(plan);
  EXPECT_DOUBLE_EQ(sim.evaluate(x).output,
                   phi.value(pre0 - 1.0 * 0.25) - phi.value(pre1) + 0.05);
}

// ------------------------------------------------------- training masking

TEST(SparseTraining, OptimizerStepsPreserveTheSparsityMask) {
  Rng rng(97);
  auto net = NetworkBuilder(2)
                 .topology(Topology::random_sparse(0.35))
                 .hidden(8)
                 .hidden(8)
                 .init(InitKind::kUniform, 0.6)
                 .build(rng);
  std::vector<LayerTopology> topologies;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    ASSERT_TRUE(net.layer(l).is_sparse());
    topologies.push_back(*net.layer(l).topology());
  }
  const Matrix before = net.layer(1).weights();

  data::Dataset dataset;
  dataset.dim = 2;
  for (int n = 0; n < 12; ++n) {
    dataset.inputs.push_back({rng.uniform(), rng.uniform()});
    dataset.labels.push_back(rng.uniform());
  }
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;
  config.weight_decay = 0.01;  // pushes non-edge weights off 0 if unmasked
  config.fep_lambda = 0.1;     // exercises the regulariser's re-mask too
  train(net, dataset, config, rng);

  bool some_edge_moved = false;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& topo = topologies[l - 1];
    ASSERT_NE(net.layer(l).topology(), nullptr);
    EXPECT_EQ(*net.layer(l).topology(), topo);
    for (std::size_t j = 0; j < net.layer(l).out_size(); ++j) {
      for (std::size_t i = 0; i < net.layer(l).in_size(); ++i) {
        if (!topo.has_edge(j, i)) {
          EXPECT_EQ(bits(net.layer(l).weights()(j, i)), bits(0.0));
        } else if (l == 1 &&
                   bits(net.layer(l).weights()(j, i)) != bits(before(j, i))) {
          some_edge_moved = true;
        }
      }
    }
  }
  EXPECT_TRUE(some_edge_moved);
}

// ------------------------------------------------- acceptance: campaigns

const std::vector<fault::AttackKind>& all_attacks() {
  static const std::vector<fault::AttackKind> attacks{
      fault::AttackKind::kRandomCrash,
      fault::AttackKind::kTopWeightCrash,
      fault::AttackKind::kGreedyCrash,
      fault::AttackKind::kRandomByzantine,
      fault::AttackKind::kGradientByzantine,
      fault::AttackKind::kRandomSynapseByzantine};
  return attacks;
}

std::vector<std::size_t> counts_for(const nn::FeedForwardNetwork& net,
                                    fault::AttackKind kind) {
  std::vector<std::size_t> counts(net.layer_count(), 1);
  if (kind == fault::AttackKind::kRandomSynapseByzantine) counts.push_back(1);
  return counts;
}

theory::FepOptions options_for(fault::AttackKind kind) {
  theory::FepOptions options;
  options.capacity = 1.0;
  const bool crash = kind == fault::AttackKind::kRandomCrash ||
                     kind == fault::AttackKind::kTopWeightCrash ||
                     kind == fault::AttackKind::kGreedyCrash;
  options.mode =
      crash ? theory::FailureMode::kCrash : theory::FailureMode::kByzantine;
  return options;
}

TEST(SparseCampaign, SmallWorldCrossChecksBitEqualOnAnalyticBackends) {
  // Every attack kind, injector vs simulator, on a small-world net: the
  // analytic path and the message path agree bit for bit along sparse
  // edges under the transmitted-value convention.
  const auto net = topo_net(Topology::small_world(5, 0.3), 101);
  for (const auto attack : all_attacks()) {
    fault::CampaignConfig config;
    config.attack = attack;
    config.trials = 10;
    config.probes_per_trial = 6;
    config.seed = 103;
    config.convention = theory::CapacityConvention::kTransmittedValueBound;
    const auto counts = counts_for(net, attack);
    exec::InjectorBackend injector(net);
    exec::SimulatorBackend simulator(net);
    const auto check = fault::cross_check_campaign(
        net, counts, config, options_for(attack), injector, simulator);
    EXPECT_EQ(check.max_divergence, 0.0)
        << "attack " << static_cast<int>(attack);
  }
}

TEST(SparseCampaign, ServeBackendBitIdenticalAcrossWorkerCounts) {
  // Small-world campaign on the threaded serving pool: 1, 2, and 8 workers
  // return bit-identical trial streams even under heavy-tail latencies and
  // a straggler cut (so scheduling genuinely varies between runs).
  const auto net = topo_net(Topology::small_world(5, 0.3), 107);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomSynapseByzantine;
  config.trials = 12;
  config.probes_per_trial = 5;
  config.seed = 109;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  const auto counts = counts_for(net, config.attack);
  const auto trials = fault::make_campaign_trials(net, counts, config);

  std::vector<std::vector<exec::TrialResult>> runs;
  for (const std::size_t replicas : {1u, 2u, 8u}) {
    exec::ServeBackendOptions options;
    options.replicas = replicas;
    options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
    options.straggler_cut = {6, 6};
    options.seed = 113;
    exec::ServeBackend backend(net, options);
    runs.push_back(backend.run_trials(trials));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t t = 0; t < runs[0].size(); ++t) {
      ASSERT_EQ(runs[r][t].probes.size(), runs[0][t].probes.size());
      for (std::size_t i = 0; i < runs[0][t].probes.size(); ++i) {
        EXPECT_EQ(bits(runs[r][t].probes[i].output),
                  bits(runs[0][t].probes[i].output));
        EXPECT_EQ(runs[r][t].probes[i].resets_sent,
                  runs[0][t].probes[i].resets_sent);
      }
    }
  }
}

TEST(SparseCampaign, TransportBackendSurvivesSigkillBitIdentically) {
  // The full acceptance bar: the same small-world trial stream on forked
  // worker processes at 1, 2, and 8 workers — each run losing workers to
  // scripted SIGKILLs mid-campaign — reproduces the simulator baseline bit
  // for bit.
  SKIP_WITHOUT_TRANSPORT();
  const auto net = topo_net(Topology::small_world(5, 0.3), 127);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomSynapseByzantine;
  config.trials = 20;
  config.probes_per_trial = 8;
  config.seed = 131;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  const auto counts = counts_for(net, config.attack);
  const auto trials = fault::make_campaign_trials(net, counts, config);

  exec::SimulatorBackend simulator(net);
  const auto baseline = simulator.run_trials(trials);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    exec::TransportBackendOptions options;
    options.workers = workers;
    // Kill worker 0 early and (when there is one) another worker later;
    // request ids run 0..159 (20 trials x 8 probes).
    options.crash_script = {{0, 20, 64},
                            {workers > 1 ? 1u : 0u, 90, 110}};
    exec::TransportBackend backend(net, options);
    const auto run = backend.run_trials(trials);
    ASSERT_EQ(run.size(), baseline.size()) << workers << " workers";
    for (std::size_t t = 0; t < baseline.size(); ++t) {
      ASSERT_EQ(run[t].probes.size(), baseline[t].probes.size());
      for (std::size_t i = 0; i < baseline[t].probes.size(); ++i) {
        EXPECT_EQ(bits(run[t].probes[i].output),
                  bits(baseline[t].probes[i].output))
            << workers << " workers, trial " << t << ", probe " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wnf::nn
