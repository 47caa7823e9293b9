#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace wnf::nn {

void save_network(const FeedForwardNetwork& net, std::ostream& os) {
  // Dense networks keep emitting the original v1 format byte for byte; the
  // v2 header (and its per-layer adjacency sections) appears only when some
  // layer carries a sparse topology, so old readers never see surprises on
  // files they could have produced.
  bool any_sparse = false;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    if (net.layer(l).is_sparse()) any_sparse = true;
  }
  os << std::setprecision(17);
  os << "wnf-network " << (any_sparse ? "v2" : "v1") << '\n';
  os << "activation " << net.activation().kind_name() << ' '
     << net.activation().lipschitz() << '\n';
  os << "input_dim " << net.input_dim() << '\n';
  os << "layers " << net.layer_count() << '\n';
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& layer = net.layer(l);
    os << "layer " << layer.out_size() << ' ' << layer.in_size() << ' '
       << layer.receptive_field() << '\n';
    if (any_sparse) {
      if (const LayerTopology* topo = layer.topology()) {
        os << "adjacency sparse " << topo->edge_count() << '\n';
        os << "rowptr";
        for (std::size_t p : topo->row_ptr()) os << ' ' << p;
        os << '\n';
        os << "cols";
        for (std::size_t c : topo->cols()) os << ' ' << c;
        os << '\n';
        os << "edgecaps " << topo->edge_capacities().size();
        for (double cap : topo->edge_capacities()) os << ' ' << cap;
        os << '\n';
      } else {
        os << "adjacency dense\n";
      }
    }
    for (std::size_t j = 0; j < layer.out_size(); ++j) {
      for (std::size_t i = 0; i < layer.in_size(); ++i) {
        os << layer.weights()(j, i) << (i + 1 < layer.in_size() ? ' ' : '\n');
      }
    }
    for (std::size_t j = 0; j < layer.out_size(); ++j) {
      os << layer.bias()[j] << (j + 1 < layer.out_size() ? ' ' : '\n');
    }
  }
  os << "output " << net.output_weights().size() << '\n';
  for (std::size_t i = 0; i < net.output_weights().size(); ++i) {
    os << net.output_weights()[i]
       << (i + 1 < net.output_weights().size() ? ' ' : '\n');
  }
  os << "output_bias " << net.output_bias() << '\n';
  os << "end\n";
}

namespace {

/// Appends `count` values parsed from `is` to `out`, growing it only as they
/// arrive, so a lying count fails at the end of the input instead of
/// allocating what it claims. False when fewer than `count` values parse.
template <typename T>
bool read_values(std::istream& is, std::size_t count, std::vector<T>& out) {
  for (std::size_t n = 0; n < count; ++n) {
    T value{};
    if (!(is >> value)) return false;
    out.push_back(value);
  }
  return true;
}

/// Parses one v2 `adjacency` section (the header token has already been
/// matched) and returns the layer's topology: nullopt on malformed input,
/// an empty optional-of-optional distinction is avoided by returning an
/// extra bool. A `dense` marker yields no topology.
bool load_adjacency(std::istream& is, std::size_t out_size,
                    std::size_t in_size,
                    std::optional<LayerTopology>& topology) {
  std::string token;
  std::string shape;
  if (!(is >> token >> shape) || token != "adjacency") return false;
  if (shape == "dense") {
    topology.reset();
    return true;
  }
  if (shape != "sparse") return false;
  std::size_t nnz = 0;
  if (!(is >> nnz) || nnz == 0) return false;
  // row_ptr holds out_size + 1 offsets: the leading 0, then one per row.
  std::vector<std::size_t> row_ptr;
  if (!(is >> token) || token != "rowptr" ||
      !read_values(is, 1, row_ptr) || row_ptr.front() != 0 ||
      !read_values(is, out_size, row_ptr) || row_ptr.back() != nnz) {
    return false;
  }
  std::vector<std::size_t> cols;
  if (!(is >> token) || token != "cols" || !read_values(is, nnz, cols)) {
    return false;
  }
  // Full structural validation before LayerTopology's aborting contracts
  // can see the data: monotone rows with in-degree >= 1 that stay inside
  // `cols`, sorted unique in-range columns.
  for (std::size_t j = 0; j < out_size; ++j) {
    if (row_ptr[j] >= row_ptr[j + 1] || row_ptr[j + 1] > nnz) return false;
    for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
      if (cols[e] >= in_size) return false;
      if (e > row_ptr[j] && cols[e - 1] >= cols[e]) return false;
    }
  }
  std::size_t cap_count = 0;
  std::vector<double> caps;
  if (!(is >> token >> cap_count) || token != "edgecaps" ||
      (cap_count != 0 && cap_count != nnz) ||
      !read_values(is, cap_count, caps)) {
    return false;
  }
  for (const double cap : caps) {
    if (!(cap > 0.0) || !std::isfinite(cap)) return false;
  }
  topology.emplace(in_size, std::move(row_ptr), std::move(cols));
  if (!caps.empty()) topology->set_edge_capacities(std::move(caps));
  return true;
}

}  // namespace

std::optional<FeedForwardNetwork> load_network(std::istream& is) {
  std::string token;
  std::string version;
  if (!(is >> token >> version) || token != "wnf-network" ||
      (version != "v1" && version != "v2")) {
    return std::nullopt;
  }
  const bool v2 = version == "v2";
  std::string kind_name;
  double k = 0.0;
  if (!(is >> token >> kind_name >> k) || token != "activation" || k <= 0.0) {
    return std::nullopt;
  }
  const auto kind = Activation::try_parse_kind(kind_name);
  if (!kind) return std::nullopt;
  std::size_t input_dim = 0;
  if (!(is >> token >> input_dim) || token != "input_dim" || input_dim == 0) {
    return std::nullopt;
  }
  std::size_t layer_count = 0;
  if (!(is >> token >> layer_count) || token != "layers" || layer_count == 0) {
    return std::nullopt;
  }
  std::vector<DenseLayer> hidden;  // `layers` is a claim, not a size
  std::size_t prev = input_dim;
  for (std::size_t l = 0; l < layer_count; ++l) {
    std::size_t out_size = 0;
    std::size_t in_size = 0;
    std::size_t rf = 0;
    if (!(is >> token >> out_size >> in_size >> rf) || token != "layer" ||
        out_size == 0 || in_size != prev || rf == 0 || rf > in_size ||
        out_size > std::numeric_limits<std::size_t>::max() / in_size) {
      return std::nullopt;
    }
    std::optional<LayerTopology> topology;
    if (v2 && !load_adjacency(is, out_size, in_size, topology)) {
      return std::nullopt;
    }
    std::vector<double> weights;
    std::vector<double> bias;
    if (!read_values(is, out_size * in_size, weights) ||
        !read_values(is, out_size, bias)) {
      return std::nullopt;
    }
    DenseLayer layer(out_size, in_size);
    std::copy(weights.begin(), weights.end(), layer.weights().flat().begin());
    std::copy(bias.begin(), bias.end(), layer.bias().begin());
    layer.set_receptive_field(rf);
    if (topology) {
      // set_topology re-masks and re-derives the receptive field, so a
      // tampered rf or stray non-edge weight cannot survive the load.
      layer.set_topology(std::move(*topology));
    }
    hidden.push_back(std::move(layer));
    prev = out_size;
  }
  std::size_t out_count = 0;
  if (!(is >> token >> out_count) || token != "output" || out_count != prev) {
    return std::nullopt;
  }
  std::vector<double> output_weights;
  if (!read_values(is, out_count, output_weights)) return std::nullopt;
  double output_bias = 0.0;
  if (!(is >> token >> output_bias) || token != "output_bias") {
    return std::nullopt;
  }
  if (!(is >> token) || token != "end") return std::nullopt;
  return FeedForwardNetwork(input_dim, std::move(hidden),
                            std::move(output_weights), output_bias,
                            Activation(*kind, k));
}

bool save_network_file(const FeedForwardNetwork& net,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_network(net, out);
  return static_cast<bool>(out);
}

std::optional<FeedForwardNetwork> load_network_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_network(in);
}

}  // namespace wnf::nn
