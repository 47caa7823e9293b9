#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace wnf {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_cached_normal_ = false;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xa0761d6478bd642fULL); }

double Rng::uniform(double lo, double hi) {
  WNF_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  WNF_EXPECTS(n > 0);
  // Rejection-free Lemire-style bounded draw would need 128-bit ops; modulo
  // bias at n << 2^64 is far below experimental noise here.
  return static_cast<std::size_t>(next_u64() % n);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sd) {
  WNF_EXPECTS(sd >= 0.0);
  return mean + sd * normal();
}

double Rng::sign() { return (next_u64() & 1ULL) ? 1.0 : -1.0; }

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  WNF_EXPECTS(k <= n);
  // Robert Floyd's sampling: each iteration adds exactly one new element.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = uniform_index(j + 1);
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[uniform_index(i)]);
  }
  return perm;
}

}  // namespace wnf
