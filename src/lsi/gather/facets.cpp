#include "lsi/gather/facets.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "la/vector_ops.hpp"

namespace lsi::gather {

namespace {

bool facet_before(const Facet& a, const Facet& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.term < b.term;
}

}  // namespace

std::vector<Facet> shard_facets(const lsi::la::DenseMatrix& u,
                                const std::vector<double>& sigma,
                                const lsi::la::DenseMatrix& v,
                                const text::Vocabulary& vocabulary,
                                const std::vector<lsi::la::index_t>& doc_rows,
                                std::size_t top_terms) {
  if (doc_rows.empty() || top_terms == 0 || u.rows() == 0) return {};
  const std::size_t k = std::min<std::size_t>(u.cols(), sigma.size());

  lsi::la::Vector centroid(k, 0.0);
  for (lsi::la::index_t row : doc_rows) {
    const lsi::la::Vector coords = v.row(row);
    for (std::size_t f = 0; f < k; ++f) centroid[f] += coords[f] * sigma[f];
  }
  lsi::la::scale(centroid, 1.0 / static_cast<double>(doc_rows.size()));
  // The centroid's norm is loop-invariant, so la::cosine's formula is
  // evaluated below with it computed once.
  const double centroid_norm = lsi::la::norm2(centroid);
  if (centroid_norm == 0.0) return {};

  // Score into (weight, row) pairs and copy term strings only for the
  // entries that survive the cut.
  std::vector<std::pair<double, lsi::la::index_t>> scored;
  scored.reserve(u.rows());
  lsi::la::Vector term_coords(k, 0.0);
  for (lsi::la::index_t i = 0; i < u.rows(); ++i) {
    for (std::size_t f = 0; f < k; ++f) term_coords[f] = u(i, f) * sigma[f];
    const double term_norm = lsi::la::norm2(term_coords);
    if (term_norm == 0.0) continue;  // la::cosine's zero-vector convention
    const double w =
        lsi::la::dot(term_coords, centroid) / (term_norm * centroid_norm);
    if (w > 0.0) scored.emplace_back(w, i);
  }
  // facet_before's order on (weight, term); terms are unique, so the
  // partial sort keeps exactly the prefix a full sort would.
  const std::size_t keep = std::min(top_terms, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end(), [&](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return vocabulary.term(a.second) <
                             vocabulary.term(b.second);
                    });
  std::vector<Facet> out;
  out.reserve(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    out.push_back(Facet{vocabulary.term(scored[r].second), scored[r].first});
  }
  return out;
}

std::vector<Facet> merge_facets(const std::vector<std::vector<Facet>>& lists,
                                std::size_t top) {
  // std::map keys the merge by term string; with max-weight semantics the
  // result is independent of shard visit order.
  std::map<std::string, double> best;
  for (const std::vector<Facet>& list : lists) {
    for (const Facet& f : list) {
      auto [it, inserted] = best.emplace(f.term, f.weight);
      if (!inserted && f.weight > it->second) it->second = f.weight;
    }
  }
  std::vector<Facet> merged;
  merged.reserve(best.size());
  for (const auto& [term, weight] : best) merged.push_back(Facet{term, weight});
  std::sort(merged.begin(), merged.end(), facet_before);
  if (top > 0 && merged.size() > top) merged.resize(top);
  return merged;
}

}  // namespace lsi::gather
