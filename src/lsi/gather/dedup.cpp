#include "lsi/gather/dedup.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "obs/trace.hpp"

namespace lsi::gather {

SparseTermVector reconstruct_term_profile(const lsi::la::DenseMatrix& u,
                                          const std::vector<double>& sigma,
                                          const lsi::la::DenseMatrix& v,
                                          index_t doc_row,
                                          const text::Vocabulary& vocabulary,
                                          std::size_t top_terms) {
  // Row doc_row of A_k = U S V^T: U * (sigma .* v_row). The sigma scaling
  // matters — without it every factor contributes equally and the profile
  // stops resembling the document's actual term distribution.
  lsi::la::Vector coords = v.row(doc_row);
  for (std::size_t f = 0; f < coords.size() && f < sigma.size(); ++f) {
    coords[f] *= sigma[f];
  }
  const lsi::la::Vector profile = lsi::la::multiply(u, coords);

  std::vector<index_t> order;
  order.reserve(profile.size());
  for (index_t i = 0; i < profile.size(); ++i) {
    if (profile[i] != 0.0) order.push_back(i);
  }
  // Magnitude descending; ties alphabetically. Terms are unique within a
  // vocabulary, so this is a strict total order and selecting the top
  // entries keeps exactly the set a full sort would.
  if (top_terms > 0 && order.size() > top_terms) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(top_terms),
                     order.end(), [&](index_t a, index_t b) {
                       const double ma = std::fabs(profile[a]);
                       const double mb = std::fabs(profile[b]);
                       if (ma != mb) return ma > mb;
                       return vocabulary.term(a) < vocabulary.term(b);
                     });
    order.resize(top_terms);
  }
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return vocabulary.term(a) < vocabulary.term(b);
  });

  SparseTermVector out;
  out.reserve(order.size());
  for (index_t i : order) out.emplace_back(vocabulary.term(i), profile[i]);
  return out;
}

double sparse_cosine(const SparseTermVector& a, const SparseTermVector& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].first.compare(b[j].first);
    if (cmp < 0) {
      na += a[i].second * a[i].second;
      ++i;
    } else if (cmp > 0) {
      nb += b[j].second * b[j].second;
      ++j;
    } else {
      dot += a[i].second * b[j].second;
      na += a[i].second * a[i].second;
      nb += b[j].second * b[j].second;
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) na += a[i].second * a[i].second;
  for (; j < b.size(); ++j) nb += b[j].second * b[j].second;
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<CollapsedHit> collapse_near_duplicates(
    const std::vector<FusedHit>& fused,
    const std::vector<SparseTermVector>& profiles, double threshold) {
  std::vector<CollapsedHit> out;
  out.reserve(fused.size());
  const bool active = threshold > 0.0 && threshold <= 1.0;
  std::vector<std::size_t> rep_index;  // fused index of each representative
  std::size_t collapsed = 0;
  for (std::size_t h = 0; h < fused.size(); ++h) {
    bool joined = false;
    if (active) {
      for (std::size_t r = 0; r < rep_index.size(); ++r) {
        if (sparse_cosine(profiles[h], profiles[rep_index[r]]) >= threshold) {
          out[r].duplicates.push_back(fused[h].doc);
          joined = true;
          ++collapsed;
          break;
        }
      }
    }
    if (!joined) {
      rep_index.push_back(h);
      out.push_back(CollapsedHit{fused[h], {}});
    }
  }
  if (collapsed > 0) obs::count("gather.collapsed_hits", collapsed);
  return out;
}

}  // namespace lsi::gather
