// Unit tests for the gather subsystem's pure pieces (docs/GATHER.md):
// fusion policy math, near-duplicate collapse, facet extraction/merging, and
// the cross-shard term-statistics exchange. The end-to-end properties (the
// sharded read path, determinism across runs/replicas) live in
// gather_determinism_test.cpp; these pin the component contracts the gather
// composes — including the exchange-vs-monolithic weight agreement that the
// whole score-comparability story rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "la/vector_ops.hpp"
#include "lsi/gather/dedup.hpp"
#include "lsi/gather/facets.hpp"
#include "lsi/gather/fusion.hpp"
#include "lsi/gather/term_stats.hpp"
#include "lsi/ranking.hpp"
#include "text/parser.hpp"
#include "util/rng.hpp"
#include "weighting/weighting.hpp"

namespace {

using namespace lsi;
using namespace lsi::gather;

// ---------------------------------------------------------------------------
// Fusion policies
// ---------------------------------------------------------------------------

TEST(GatherFusion, ParsesEveryPolicyNameAndRejectsGarbage) {
  MergePolicy p;
  EXPECT_TRUE(parse_merge_policy("cosine", p));
  EXPECT_EQ(p, MergePolicy::kRawCosine);
  EXPECT_TRUE(parse_merge_policy("raw", p));
  EXPECT_EQ(p, MergePolicy::kRawCosine);
  EXPECT_TRUE(parse_merge_policy("zscore", p));
  EXPECT_EQ(p, MergePolicy::kZScore);
  EXPECT_TRUE(parse_merge_policy("znorm", p));
  EXPECT_EQ(p, MergePolicy::kZScore);
  EXPECT_TRUE(parse_merge_policy("rrf", p));
  EXPECT_EQ(p, MergePolicy::kRRF);
  EXPECT_FALSE(parse_merge_policy("borda", p));
  EXPECT_FALSE(parse_merge_policy("", p));

  EXPECT_EQ(merge_policy_name(MergePolicy::kRawCosine), "cosine");
  EXPECT_EQ(merge_policy_name(MergePolicy::kZScore), "zscore");
  EXPECT_EQ(merge_policy_name(MergePolicy::kRRF), "rrf");
}

TEST(GatherFusion, RawCosineMatchesMergeRankingsExactly) {
  // The default policy must order (and score) exactly like the pre-gather
  // lsi/ranking.hpp merge — the bit-parity contract every existing suite
  // leans on. Includes a cross-shard tie (docs 7 and 2 at 0.5).
  std::vector<ShardList> shards(2);
  shards[0].docs = {4, 7, 9};
  shards[0].cosines = {0.9, 0.5, 0.1};
  shards[1].docs = {2, 11};
  shards[1].cosines = {0.5, 0.3};

  struct Doc {
    la::index_t doc;
    double cosine;
  };
  std::vector<std::vector<Doc>> lists(2);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < shards[s].docs.size(); ++i) {
      lists[s].push_back({shards[s].docs[i], shards[s].cosines[i]});
    }
  }
  const auto want = core::merge_rankings(lists);

  const auto fused = fuse(shards, FusionOptions{});
  ASSERT_EQ(fused.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fused[i].doc, want[i].doc) << "rank " << i;
    EXPECT_EQ(fused[i].score, want[i].cosine) << "rank " << i;  // exact bits
    EXPECT_EQ(fused[i].cosine, want[i].cosine) << "rank " << i;
  }
  // The cross-shard tie resolves by global id: 2 before 7.
  EXPECT_EQ(fused[1].doc, 2u);
  EXPECT_EQ(fused[2].doc, 7u);
}

TEST(GatherFusion, ZScoreStandardizesEachShardIndependently) {
  std::vector<ShardList> shards(2);
  // Shard 0: cosines {0.8, 0.4} -> mean 0.6, population sigma 0.2 ->
  // z = {+1, -1}.
  shards[0].docs = {0, 1};
  shards[0].cosines = {0.8, 0.4};
  // Shard 1: cosines {0.3, 0.1, 0.2} -> mean 0.2, sigma sqrt(1/150).
  shards[1].docs = {2, 3, 4};
  shards[1].cosines = {0.3, 0.1, 0.2};

  FusionOptions opts;
  opts.policy = MergePolicy::kZScore;
  const auto fused = fuse(shards, opts);
  ASSERT_EQ(fused.size(), 5u);

  const double sigma1 = std::sqrt(((0.1 * 0.1) + (0.1 * 0.1)) / 3.0);
  // Doc 2 tops shard 1 with z = 0.1 / sigma1 ~= 1.2247 > 1, so despite its
  // raw cosine 0.3 being far below shard 0's 0.8 it now ranks FIRST — the
  // scale correction in action.
  EXPECT_EQ(fused[0].doc, 2u);
  EXPECT_NEAR(fused[0].score, 0.1 / sigma1, 1e-12);
  EXPECT_EQ(fused[0].cosine, 0.3);  // raw cosine preserved for display
  EXPECT_EQ(fused[1].doc, 0u);
  EXPECT_NEAR(fused[1].score, 1.0, 1e-12);
  // Middle element of shard 1 sits exactly at its mean.
  const auto it4 = std::find_if(fused.begin(), fused.end(),
                                [](const FusedHit& h) { return h.doc == 4; });
  ASSERT_NE(it4, fused.end());
  EXPECT_NEAR(it4->score, 0.0, 1e-12);
}

TEST(GatherFusion, ZScorePrefersTheFullSweepBackgroundMoments) {
  // When a ShardList carries the shard's full-sweep ScoreMoments
  // (bg_count > 0), kZScore standardizes against THOSE — the truncated
  // list's own moments (which would give z = {+1, -1} here) are only the
  // fallback for fixtures that never ran a sweep.
  std::vector<ShardList> shards(1);
  shards[0].docs = {0, 1};
  shards[0].cosines = {0.8, 0.4};
  shards[0].bg_count = 100;
  shards[0].bg_mean = 0.2;
  shards[0].bg_stdev = 0.1;

  FusionOptions opts;
  opts.policy = MergePolicy::kZScore;
  const auto fused = fuse(shards, opts);
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_NEAR(fused[0].score, (0.8 - 0.2) / 0.1, 1e-12);
  EXPECT_NEAR(fused[1].score, (0.4 - 0.2) / 0.1, 1e-12);

  // Zero-variance background degrades to the neutral score, never NaN.
  shards[0].bg_stdev = 0.0;
  const auto flat = fuse(shards, opts);
  EXPECT_EQ(flat[0].score, 0.0);
  EXPECT_EQ(flat[1].score, 0.0);
}

TEST(GatherFusion, ZScoreZeroVarianceShardIsNeutral) {
  // A shard whose list has zero variance (every cosine equal — the
  // degenerate all-tied case) must normalize to 0, not NaN/inf.
  std::vector<ShardList> shards(2);
  shards[0].docs = {0, 1};
  shards[0].cosines = {0.7, 0.7};
  shards[1].docs = {2};  // single element: sigma is 0 by construction
  shards[1].cosines = {0.9};

  FusionOptions opts;
  opts.policy = MergePolicy::kZScore;
  const auto fused = fuse(shards, opts);
  ASSERT_EQ(fused.size(), 3u);
  for (const auto& h : fused) {
    EXPECT_EQ(h.score, 0.0) << "doc " << h.doc;
  }
  // All scores tie at 0 -> global ids ascend.
  EXPECT_EQ(fused[0].doc, 0u);
  EXPECT_EQ(fused[1].doc, 1u);
  EXPECT_EQ(fused[2].doc, 2u);
}

TEST(GatherFusion, RRFScoresAreReciprocalRanks) {
  std::vector<ShardList> shards(2);
  shards[0].docs = {5, 3};
  shards[0].cosines = {0.9, 0.2};
  shards[1].docs = {8};
  shards[1].cosines = {0.1};

  FusionOptions opts;
  opts.policy = MergePolicy::kRRF;
  opts.rrf_k = 60.0;
  const auto fused = fuse(shards, opts);
  ASSERT_EQ(fused.size(), 3u);

  // Rank starts at 1 inside each shard: docs 5 and 8 are both rank 1 ->
  // identical scores 1/61, tie broken by global id (5 before 8).
  EXPECT_EQ(fused[0].doc, 5u);
  EXPECT_EQ(fused[0].score, 1.0 / 61.0);
  EXPECT_EQ(fused[1].doc, 8u);
  EXPECT_EQ(fused[1].score, 1.0 / 61.0);
  EXPECT_EQ(fused[2].doc, 3u);
  EXPECT_EQ(fused[2].score, 1.0 / 62.0);
  // RRF ignores cosines entirely: shard 1's 0.1 rank-1 beats shard 0's 0.2
  // rank-2 even though the raw score is lower.
  EXPECT_GT(fused[1].score, fused[2].score);
}

TEST(GatherFusion, TopZTruncatesAfterTheGlobalSort) {
  std::vector<ShardList> shards(2);
  shards[0].docs = {0, 1, 2};
  shards[0].cosines = {0.9, 0.8, 0.7};
  shards[1].docs = {3, 4, 5};
  shards[1].cosines = {0.85, 0.75, 0.65};

  const auto top2 = fuse(shards, FusionOptions{}, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].doc, 0u);
  EXPECT_EQ(top2[1].doc, 3u);

  const auto all = fuse(shards, FusionOptions{}, 0);
  EXPECT_EQ(all.size(), 6u);  // 0 = unlimited
}

TEST(GatherFusion, ShardFieldRecordsTheOriginShard) {
  std::vector<ShardList> shards(3);
  shards[0].docs = {0};
  shards[0].cosines = {0.1};
  shards[2].docs = {9};
  shards[2].cosines = {0.9};  // shard 1 left empty on purpose

  const auto fused = fuse(shards, FusionOptions{});
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_EQ(fused[0].doc, 9u);
  EXPECT_EQ(fused[0].shard, 2u);
  EXPECT_EQ(fused[1].doc, 0u);
  EXPECT_EQ(fused[1].shard, 0u);
}

// ---------------------------------------------------------------------------
// Near-duplicate collapse
// ---------------------------------------------------------------------------

TEST(GatherFusion, SparseCosineMergesByTermString) {
  const SparseTermVector a = {{"alpha", 1.0}, {"beta", 2.0}};
  const SparseTermVector b = {{"alpha", 1.0}, {"beta", 2.0}};
  EXPECT_NEAR(sparse_cosine(a, b), 1.0, 1e-12);

  const SparseTermVector c = {{"gamma", 3.0}};
  EXPECT_EQ(sparse_cosine(a, c), 0.0);  // disjoint vocabularies

  const SparseTermVector empty;
  EXPECT_EQ(sparse_cosine(a, empty), 0.0);
  EXPECT_EQ(sparse_cosine(empty, empty), 0.0);

  // Partial overlap: a . d = 1*1 + 2*(-2) = -3; |a| = sqrt(5), |d| = sqrt(5).
  const SparseTermVector d = {{"alpha", 1.0}, {"beta", -2.0}};
  EXPECT_NEAR(sparse_cosine(a, d), -3.0 / 5.0, 1e-12);
}

TEST(GatherFusion, ReconstructTermProfileIsUSigmaVRow) {
  // m = 3 terms, k = 2, n = 2 docs. Column-major DenseMatrix built row-wise.
  const auto u = la::DenseMatrix::from_rows({{1.0, 0.0},
                                             {0.0, 1.0},
                                             {1.0, 1.0}});
  const std::vector<double> sigma = {2.0, 3.0};
  const auto v = la::DenseMatrix::from_rows({{1.0, 0.0},
                                             {0.5, 0.5}});
  text::Vocabulary vocab({"apple", "pear", "quince"});

  // Doc 0: U * (sigma .* [1, 0]) = U * [2, 0] = [2, 0, 2]; the zero weight
  // for "pear" must be dropped from the sparse profile.
  const auto p0 = reconstruct_term_profile(u, sigma, v, 0, vocab);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0].first, "apple");  // sorted by term string
  EXPECT_NEAR(p0[0].second, 2.0, 1e-12);
  EXPECT_EQ(p0[1].first, "quince");
  EXPECT_NEAR(p0[1].second, 2.0, 1e-12);

  // Doc 1: U * [1.0, 1.5] = [1.0, 1.5, 2.5]; top_terms = 2 keeps the two of
  // largest magnitude (quince 2.5, pear 1.5), still emitted term-sorted.
  const auto p1 = reconstruct_term_profile(u, sigma, v, 1, vocab, 2);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(p1[0].first, "pear");
  EXPECT_NEAR(p1[0].second, 1.5, 1e-12);
  EXPECT_EQ(p1[1].first, "quince");
  EXPECT_NEAR(p1[1].second, 2.5, 1e-12);
}

std::vector<FusedHit> make_fused(std::size_t n) {
  std::vector<FusedHit> fused;
  for (std::size_t i = 0; i < n; ++i) {
    fused.push_back({/*doc=*/i, /*score=*/1.0 - 0.1 * static_cast<double>(i),
                     /*cosine=*/0.0, /*shard=*/0});
  }
  return fused;
}

TEST(GatherFusion, CollapseFoldsNearDuplicatesIntoBestRankedRep) {
  // Profiles: 0 and 2 identical, 1 orthogonal, 3 a near-copy of 0.
  const auto fused = make_fused(4);
  std::vector<SparseTermVector> profiles = {
      {{"a", 1.0}, {"b", 1.0}},
      {{"c", 1.0}},
      {{"a", 1.0}, {"b", 1.0}},
      {{"a", 1.0}, {"b", 0.9}},
  };
  const auto collapsed = collapse_near_duplicates(fused, profiles, 0.99);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].rep.doc, 0u);  // survivors keep fused order
  ASSERT_EQ(collapsed[0].duplicates.size(), 2u);
  EXPECT_EQ(collapsed[0].duplicates[0], 2u);  // duplicates in rank order
  EXPECT_EQ(collapsed[0].duplicates[1], 3u);
  EXPECT_EQ(collapsed[1].rep.doc, 1u);
  EXPECT_TRUE(collapsed[1].duplicates.empty());
}

TEST(GatherFusion, CollapseThresholdOutsideUnitIntervalIsDisabled) {
  const auto fused = make_fused(2);
  const std::vector<SparseTermVector> profiles = {
      {{"a", 1.0}},
      {{"a", 1.0}},  // identical: would collapse under any active threshold
  };
  for (double t : {-1.0, 0.0, 1.5}) {
    const auto collapsed = collapse_near_duplicates(fused, profiles, t);
    ASSERT_EQ(collapsed.size(), 2u) << "threshold " << t;
    EXPECT_TRUE(collapsed[0].duplicates.empty());
    EXPECT_TRUE(collapsed[1].duplicates.empty());
  }
  // threshold = 1.0 is the inclusive edge: exact duplicates still collapse.
  const auto edge = collapse_near_duplicates(fused, profiles, 1.0);
  ASSERT_EQ(edge.size(), 1u);
  ASSERT_EQ(edge[0].duplicates.size(), 1u);
  EXPECT_EQ(edge[0].duplicates[0], 1u);
}

TEST(GatherFusion, CollapseJoinsTheFirstMatchingRepresentative) {
  // Hit 2 matches BOTH reps (0 and 1) above threshold; greedy best-first
  // must fold it into the earlier (better-ranked) rep 0 deterministically.
  const auto fused = make_fused(3);
  // cos(0, 2) = cos(1, 2) = 1/sqrt(1.25) ~= 0.894 >= 0.85, but
  // cos(0, 1) = 0.75/1.25 = 0.6 < 0.85, so 0 and 1 stay distinct reps.
  const std::vector<SparseTermVector> profiles = {
      {{"a", 1.0}, {"b", 0.5}},
      {{"a", 1.0}, {"b", -0.5}},
      {{"a", 1.0}},
  };
  const auto collapsed = collapse_near_duplicates(fused, profiles, 0.85);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].rep.doc, 0u);
  ASSERT_EQ(collapsed[0].duplicates.size(), 1u);
  EXPECT_EQ(collapsed[0].duplicates[0], 2u);
  EXPECT_EQ(collapsed[1].rep.doc, 1u);
}

// ---------------------------------------------------------------------------
// Facets
// ---------------------------------------------------------------------------

TEST(GatherFusion, ShardFacetsScoreTermsAgainstTheHitCentroid) {
  // Terms "north"/"south" point along opposite axes; docs 0 and 1 both sit
  // on the +x axis, so the centroid is +x: "north" gets weight 1, "south"
  // scores negative and is dropped, "mixed" lands in between.
  const auto u = la::DenseMatrix::from_rows({{1.0, 0.0},
                                             {-1.0, 0.0},
                                             {1.0, 1.0}});
  const std::vector<double> sigma = {1.0, 1.0};
  const auto v = la::DenseMatrix::from_rows({{1.0, 0.0},
                                             {0.5, 0.0}});
  text::Vocabulary vocab({"north", "south", "mixed"});

  const auto facets =
      shard_facets(u, sigma, v, vocab, {la::index_t{0}, la::index_t{1}}, 8);
  ASSERT_EQ(facets.size(), 2u);
  EXPECT_EQ(facets[0].term, "north");
  EXPECT_NEAR(facets[0].weight, 1.0, 1e-12);
  EXPECT_EQ(facets[1].term, "mixed");
  EXPECT_NEAR(facets[1].weight, 1.0 / std::sqrt(2.0), 1e-12);

  // top_terms truncates after the weight-desc/term-asc sort.
  const auto top1 =
      shard_facets(u, sigma, v, vocab, {la::index_t{0}}, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].term, "north");

  // Degenerate inputs produce no facets rather than dividing by zero.
  EXPECT_TRUE(shard_facets(u, sigma, v, vocab, {}, 8).empty());
  EXPECT_TRUE(shard_facets(u, sigma, v, vocab, {la::index_t{0}}, 0).empty());
}

TEST(GatherFusion, MergeFacetsKeepsMaxWeightPerTermOrderIndependently) {
  const std::vector<Facet> a = {{"lsi", 0.9}, {"svd", 0.5}};
  const std::vector<Facet> b = {{"svd", 0.7}, {"rank", 0.6}};

  const auto ab = merge_facets({a, b}, 0);
  const auto ba = merge_facets({b, a}, 0);
  ASSERT_EQ(ab.size(), 3u);
  EXPECT_EQ(ab[0].term, "lsi");
  EXPECT_EQ(ab[1].term, "svd");
  EXPECT_EQ(ab[1].weight, 0.7);  // max across shards, not first-seen
  EXPECT_EQ(ab[2].term, "rank");
  ASSERT_EQ(ba.size(), ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    EXPECT_EQ(ab[i].term, ba[i].term) << i;
    EXPECT_EQ(ab[i].weight, ba[i].weight) << i;
  }

  const auto top2 = merge_facets({a, b}, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].term, "lsi");
  EXPECT_EQ(top2[1].term, "svd");
}

TEST(GatherFusion, MergeFacetsBreaksWeightTiesAlphabetically) {
  const std::vector<Facet> a = {{"zebra", 0.5}, {"aardvark", 0.5}};
  const auto merged = merge_facets({a}, 0);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].term, "aardvark");
  EXPECT_EQ(merged[1].term, "zebra");
}

// ---------------------------------------------------------------------------
// Top-term selection vs a full-sort oracle
// ---------------------------------------------------------------------------

// The full-sort formulations the selecting implementations replaced: sort
// every candidate, then cut. Kept here as the oracle the selections must
// reproduce bit for bit.
SparseTermVector full_sort_profile(const la::DenseMatrix& u,
                                   const std::vector<double>& sigma,
                                   const la::DenseMatrix& v, la::index_t row,
                                   const text::Vocabulary& vocab,
                                   std::size_t top_terms) {
  la::Vector coords = v.row(row);
  for (std::size_t f = 0; f < coords.size() && f < sigma.size(); ++f) {
    coords[f] *= sigma[f];
  }
  const la::Vector profile = la::multiply(u, coords);
  std::vector<la::index_t> order;
  for (la::index_t i = 0; i < profile.size(); ++i) {
    if (profile[i] != 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](la::index_t a, la::index_t b) {
    const double ma = std::fabs(profile[a]), mb = std::fabs(profile[b]);
    if (ma != mb) return ma > mb;
    return vocab.term(a) < vocab.term(b);
  });
  if (top_terms > 0 && order.size() > top_terms) order.resize(top_terms);
  SparseTermVector out;
  for (la::index_t i : order) out.emplace_back(vocab.term(i), profile[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<Facet> full_sort_facets(const la::DenseMatrix& u,
                                    const std::vector<double>& sigma,
                                    const la::DenseMatrix& v,
                                    const text::Vocabulary& vocab,
                                    const std::vector<la::index_t>& rows,
                                    std::size_t top_terms) {
  if (rows.empty() || top_terms == 0 || u.rows() == 0) return {};
  const std::size_t k = std::min<std::size_t>(u.cols(), sigma.size());
  la::Vector centroid(k, 0.0);
  for (la::index_t row : rows) {
    const la::Vector coords = v.row(row);
    for (std::size_t f = 0; f < k; ++f) centroid[f] += coords[f] * sigma[f];
  }
  la::scale(centroid, 1.0 / static_cast<double>(rows.size()));
  if (la::norm2(centroid) == 0.0) return {};
  std::vector<Facet> scored;
  la::Vector term_coords(k, 0.0);
  for (la::index_t i = 0; i < u.rows(); ++i) {
    for (std::size_t f = 0; f < k; ++f) term_coords[f] = u(i, f) * sigma[f];
    const double w = la::cosine(term_coords, centroid);
    if (w > 0.0) scored.push_back(Facet{vocab.term(i), w});
  }
  std::sort(scored.begin(), scored.end(), [](const Facet& a, const Facet& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.term < b.term;
  });
  if (scored.size() > top_terms) scored.resize(top_terms);
  return scored;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random factors whose term rows come in exact-tie groups: many U rows are
/// copies (equal profile entries, equal facet weights) or negated copies
/// (equal magnitudes) of earlier rows. Term strings are random, so the
/// alphabetical tie-break disagrees with row order. V's last row is zero.
struct TiedFactors {
  la::DenseMatrix u, v;
  std::vector<double> sigma;
  text::Vocabulary vocab;
};

TiedFactors tied_factors(std::uint64_t seed) {
  constexpr la::index_t m = 160, k = 6, n = 12;
  util::Rng rng(seed);
  TiedFactors f;
  f.u = la::DenseMatrix(m, k);
  for (la::index_t i = 0; i < m; ++i) {
    const double pick = rng.uniform();
    if (i >= 4 && pick < 0.5) {
      const la::index_t src = rng.uniform_index(i);
      const double sign = pick < 0.25 ? 1.0 : -1.0;
      for (la::index_t c = 0; c < k; ++c) f.u(i, c) = sign * f.u(src, c);
    } else {
      for (la::index_t c = 0; c < k; ++c) f.u(i, c) = rng.uniform(-1.0, 1.0);
    }
  }
  f.v = la::DenseMatrix(n, k);
  for (la::index_t j = 0; j + 1 < n; ++j) {
    for (la::index_t c = 0; c < k; ++c) f.v(j, c) = rng.uniform(-1.0, 1.0);
  }
  for (la::index_t c = 0; c < k; ++c) {
    f.sigma.push_back(static_cast<double>(k - c) + rng.uniform());
  }
  std::set<std::string> seen;
  std::vector<std::string> terms;
  while (terms.size() < m) {
    std::string t;
    for (int c = 0; c < 5; ++c) {
      t.push_back(static_cast<char>('a' + rng.uniform_index(26)));
    }
    if (seen.insert(t).second) terms.push_back(t);
  }
  f.vocab = text::Vocabulary(terms);
  return f;
}

TEST(GatherFusion, ProfileSelectionMatchesFullSortOracleBitForBit) {
  std::size_t ties_at_cut = 0;
  for (std::uint64_t seed : {7u, 1995u}) {
    const TiedFactors f = tied_factors(seed);
    const std::size_t m = f.u.rows();
    for (la::index_t row = 0; row < f.v.rows(); ++row) {
      // Magnitudes in cut order, to count cuts that split an exact tie.
      std::vector<double> mags;
      for (const auto& entry :
           full_sort_profile(f.u, f.sigma, f.v, row, f.vocab, 0)) {
        mags.push_back(std::fabs(entry.second));
      }
      std::sort(mags.begin(), mags.end(), std::greater<>());
      for (std::size_t top = 0; top <= m + 2; ++top) {
        const auto want = full_sort_profile(f.u, f.sigma, f.v, row, f.vocab,
                                            top);
        const auto got =
            reconstruct_term_profile(f.u, f.sigma, f.v, row, f.vocab, top);
        ASSERT_EQ(got.size(), want.size()) << "row " << row << " top " << top;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].first, want[i].first) << "row " << row;
          ASSERT_EQ(bits_of(got[i].second), bits_of(want[i].second));
        }
        if (top > 0 && top < mags.size() && mags[top - 1] == mags[top]) {
          ++ties_at_cut;
        }
      }
    }
    // The all-zero V row reconstructs to an empty profile at any cut.
    EXPECT_TRUE(reconstruct_term_profile(f.u, f.sigma, f.v, f.v.rows() - 1,
                                         f.vocab, 3)
                    .empty());
  }
  EXPECT_GT(ties_at_cut, 0u) << "the tie-break at the cut went untested";
}

TEST(GatherFusion, FacetSelectionMatchesFullSortOracleBitForBit) {
  std::size_t ties_at_cut = 0;
  for (std::uint64_t seed : {7u, 1995u}) {
    const TiedFactors f = tied_factors(seed);
    const std::size_t m = f.u.rows();
    const la::index_t zero_row = f.v.rows() - 1;
    std::vector<std::vector<la::index_t>> row_sets = {{zero_row}, {}};
    for (la::index_t r = 0; r < zero_row; ++r) row_sets.push_back({r});
    row_sets.push_back({0, 3, 5});
    row_sets.push_back({2, zero_row});
    std::vector<la::index_t> all_rows(f.v.rows());
    std::iota(all_rows.begin(), all_rows.end(), la::index_t{0});
    row_sets.push_back(all_rows);
    for (const auto& rows : row_sets) {
      const auto ranked = full_sort_facets(f.u, f.sigma, f.v, f.vocab, rows,
                                           m + 1);
      for (std::size_t top = 0; top <= m + 2; ++top) {
        const auto want =
            full_sort_facets(f.u, f.sigma, f.v, f.vocab, rows, top);
        const auto got = shard_facets(f.u, f.sigma, f.v, f.vocab, rows, top);
        ASSERT_EQ(got.size(), want.size()) << "top " << top;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].term, want[i].term) << "top " << top << " @" << i;
          ASSERT_EQ(bits_of(got[i].weight), bits_of(want[i].weight));
        }
        if (top > 0 && top < ranked.size() &&
            ranked[top - 1].weight == ranked[top].weight) {
          ++ties_at_cut;
        }
      }
    }
    // Only the zero row: a zero centroid yields no facets.
    EXPECT_TRUE(shard_facets(f.u, f.sigma, f.v, f.vocab, {zero_row}, 5)
                    .empty());
  }
  EXPECT_GT(ties_at_cut, 0u) << "the tie-break at the cut went untested";
}

// ---------------------------------------------------------------------------
// Term-statistics exchange
// ---------------------------------------------------------------------------

text::Collection stats_collection() {
  // Repeated terms across documents with varying tf: exercises every branch
  // of the global-weight formulas (df < n, gf > df, tf > 1 for the entropy
  // and normal sums).
  text::Collection docs;
  docs.push_back({"d0", "system system human interface"});
  docs.push_back({"d1", "system user interface response response"});
  docs.push_back({"d2", "human tree graph"});
  docs.push_back({"d3", "tree tree graph minor survey"});
  docs.push_back({"d4", "survey graph system"});
  return docs;
}

TEST(GatherTermStats, WeightsForMatchesMonolithicGlobalWeights) {
  const auto docs = stats_collection();
  const auto tdm = text::build_term_document_matrix(docs);

  TermStatsPartial partial;
  partial.add_counts(tdm.counts, tdm.vocabulary);
  TermStatsExchange exchange(1);
  exchange.accumulate(0, partial);
  const auto stats = exchange.publish();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->docs(), docs.size());

  using weighting::GlobalWeight;
  for (GlobalWeight g : {GlobalWeight::kNone, GlobalWeight::kIdf,
                         GlobalWeight::kEntropy, GlobalWeight::kGfIdf,
                         GlobalWeight::kNormal}) {
    const auto want = weighting::global_weights(tdm.counts, g);
    const auto got = stats->weights_for(tdm.vocabulary, g);
    ASSERT_EQ(got.size(), want.size()) << weighting::name(g);
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Numerically identical, not bit-identical: the entropy branch uses
      // the additive identity sum p log2 p = (sum tf log2 tf)/gf - log2 gf,
      // which reorders the monolithic accumulation.
      EXPECT_NEAR(got[i], want[i], 1e-12)
          << weighting::name(g) << " term " << tdm.vocabulary.term(i);
    }
  }
}

TEST(GatherTermStats, PartitionedAccumulationEqualsWholeCollection) {
  const auto docs = stats_collection();
  // Whole-collection reference.
  const auto whole = text::build_term_document_matrix(docs);
  TermStatsPartial ref;
  ref.add_counts(whole.counts, whole.vocabulary);

  // The same documents split 3 / 2 across two shard slots, each parsed with
  // its own independent vocabulary (exactly the sharded build's shape).
  text::Collection slice_a(docs.begin(), docs.begin() + 3);
  text::Collection slice_b(docs.begin() + 3, docs.end());
  const auto tdm_a = text::build_term_document_matrix(slice_a);
  const auto tdm_b = text::build_term_document_matrix(slice_b);

  TermStatsExchange exchange(2);
  TermStatsPartial pa, pb;
  pa.add_counts(tdm_a.counts, tdm_a.vocabulary);
  pb.add_counts(tdm_b.counts, tdm_b.vocabulary);
  exchange.accumulate(0, pa);
  exchange.accumulate(1, pb);
  const auto stats = exchange.publish();

  EXPECT_EQ(stats->docs(), ref.docs);
  EXPECT_EQ(stats->num_terms(), ref.terms.size());
  for (const auto& [term, want] : ref.terms) {
    const TermStats* got = stats->find(term);
    ASSERT_NE(got, nullptr) << term;
    EXPECT_EQ(got->df, want.df) << term;
    EXPECT_NEAR(got->gf, want.gf, 1e-12) << term;
    EXPECT_NEAR(got->tf_log_tf, want.tf_log_tf, 1e-12) << term;
    EXPECT_NEAR(got->tf_sq, want.tf_sq, 1e-12) << term;
  }
}

TEST(GatherTermStats, StreamedDocumentsAndVersionedRepublish) {
  TermStatsExchange exchange(2);
  EXPECT_EQ(exchange.current(), nullptr);  // nothing before first publish

  TermStatsPartial build;
  build.add_document(text::document_term_counts("graph tree tree"));
  exchange.accumulate(0, build);
  const auto v1 = exchange.publish();
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->docs(), 1u);

  // A streamed add lands in the NEXT publish, not the current snapshot.
  exchange.accumulate_document(
      1, text::document_term_counts("graph minor survey"));
  EXPECT_EQ(exchange.current()->version(), 1u);
  EXPECT_EQ(exchange.current()->docs(), 1u);

  const auto v2 = exchange.publish();
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->docs(), 2u);
  const TermStats* graph = v2->find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->df, 2u);
  EXPECT_EQ(graph->gf, 2.0);
  const TermStats* tree = v2->find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->df, 1u);
  EXPECT_EQ(tree->gf, 2.0);
  EXPECT_NEAR(tree->tf_log_tf, 2.0, 1e-12);  // 2 * log2(2)
  EXPECT_EQ(tree->tf_sq, 4.0);
  // The old snapshot is immutable: holders of v1 still see version 1.
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->docs(), 1u);
}

TEST(GatherTermStats, UnseenTermsGetTheEmptyStatisticsConventions) {
  TermStatsExchange exchange(1);
  TermStatsPartial p;
  p.add_document(text::document_term_counts("known word"));
  exchange.accumulate(0, p);
  const auto stats = exchange.publish();

  EXPECT_EQ(stats->find("absent"), nullptr);

  text::Vocabulary vocab({"absent", "known"});
  using weighting::GlobalWeight;
  // df = 0 conventions must match weighting::global_weights exactly:
  // 0 for idf/gfidf/normal, 1 for entropy (entropy sum is 0) and none.
  EXPECT_EQ(stats->weights_for(vocab, GlobalWeight::kIdf)[0], 0.0);
  EXPECT_EQ(stats->weights_for(vocab, GlobalWeight::kGfIdf)[0], 0.0);
  EXPECT_EQ(stats->weights_for(vocab, GlobalWeight::kNormal)[0], 0.0);
  EXPECT_EQ(stats->weights_for(vocab, GlobalWeight::kEntropy)[0], 1.0);
  EXPECT_EQ(stats->weights_for(vocab, GlobalWeight::kNone)[0], 1.0);
  // The known term is weighted normally alongside it.
  EXPECT_GT(stats->weights_for(vocab, GlobalWeight::kIdf)[1], 0.0);
}

}  // namespace
