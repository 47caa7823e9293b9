// Seeded mutation of text documents, shared by the decoder fuzz tests: each
// test mutates golden documents and checks that the decoder never aborts
// and that whatever it accepts reloads to a fixed point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace wnf {

/// One seeded mutation of `doc`: a byte flip, a truncation, digits added to
/// an integer token, a dropped or duplicated token, or a splice of `other`.
inline std::string mutate(std::string doc, const std::string& other,
                          Rng& rng) {
  if (doc.empty()) return other;
  const char* const space = " \t\n\v\f\r";
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // [begin, end)
  for (std::size_t at = doc.find_first_not_of(space); at != std::string::npos;
       at = doc.find_first_not_of(space, tokens.back().second)) {
    tokens.emplace_back(at, std::min(doc.find_first_of(space, at), doc.size()));
  }
  const auto [begin, end] = tokens.empty()
                                ? std::pair<std::size_t, std::size_t>{0, 0}
                                : tokens[rng.uniform_index(tokens.size())];
  const std::string token = doc.substr(begin, end - begin);
  const std::size_t at = rng.uniform_index(doc.size());
  switch (rng.uniform_index(6)) {
    case 0:  // byte flip: a format character or any byte at all
      doc[at] = rng.bernoulli(0.5) ? "0123456789.-+e \nx"[rng.uniform_index(17)]
                                   : static_cast<char>(rng.uniform_index(256));
      break;
    case 1:
      doc.resize(at);
      break;
    case 2:
      if (!token.empty() && token.find_first_not_of("0123456789") ==
                                std::string::npos) {
        doc.insert(end, std::to_string(rng.uniform_index(1000000000000)));
      }
      break;
    case 3:
      doc.erase(begin, end - begin);
      break;
    case 4:
      doc.insert(end, " " + token);
      break;
    default: {
      const std::size_t from = rng.uniform_index(other.size());
      doc.replace(at, rng.uniform_index(doc.size() - at + 1),
                  other.substr(from, rng.uniform_index(other.size() - from)));
    }
  }
  return doc;
}

}  // namespace wnf
