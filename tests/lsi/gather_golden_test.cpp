// Golden digest of the rich gather path (docs/GATHER.md): a fixed 8-shard
// synthetic index answers a fixed query set through try_gather_batch under
// z-score merging, near-duplicate collapse at 0.9 and 5 facets. Every
// representative, duplicate list, score, cosine, facet term and facet
// weight is folded — exact bits for the doubles — into one FNV-1a digest
// pinned below. The digest was recorded on the commit before profile
// reconstruction moved into the scatter tasks and the top-term cuts became
// selections, so a pass here means the optimized gather is
// output-identical to the full-sort, serial one.
//
// Reduction kernels are ULP-bounded, not bit-identical, across SIMD
// dispatch (docs/KERNELS.md), so the digest is pinned per active kernel.
// The test carries the Gather prefix so the TSan job runs it: profiles are
// built concurrently inside the shard fan-out.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "la/kernels.hpp"
#include "lsi/lsi.hpp"
#include "lsi/sharding/sharded_index.hpp"
#include "synth/corpus.hpp"
#include "util/hash.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

synth::SyntheticCorpus golden_corpus() {
  synth::CorpusSpec spec;
  spec.topics = 8;
  spec.docs_per_topic = 30;
  spec.queries_per_topic = 2;
  spec.seed = 20261019;
  return synth::generate_corpus(spec);
}

ShardingOptions golden_sharding() {
  ShardingOptions sopts;
  sopts.num_shards = 8;
  sopts.index.k = 64;  // split: 8 factors per shard, as in a wide fan-out
  return sopts;
}

SearchOptions golden_search() {
  SearchOptions opts;
  opts.z = 10;
  opts.merge = gather::MergePolicy::kZScore;
  opts.collapse_cosine = 0.9;
  opts.facets = 5;
  return opts;
}

void append_bits(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx ",
                static_cast<unsigned long long>(bits));
  out += buf;
}

void append_result(std::string& out,
                   const ShardedSnapshot::GatherResult& result) {
  out += "q ";
  for (const ShardedSnapshot::GatherHit& hit : result.hits) {
    out += "h " + std::to_string(hit.doc) + " " + std::to_string(hit.shard) +
           " ";
    append_bits(out, hit.score);
    append_bits(out, hit.cosine);
    for (index_t dup : hit.duplicates) out += std::to_string(dup) + " ";
  }
  for (const gather::Facet& facet : result.facets) {
    out += "f " + facet.term + " ";
    append_bits(out, facet.weight);
  }
}

std::uint64_t pinned_digest(std::string_view kernel) {
  if (kernel == "avx2") return 10772075860075289603ULL;
  return 16351505675555501775ULL;  // portable
}

TEST(GatherGolden, DigestMatchesTheFullSortSerialGather) {
  const synth::SyntheticCorpus corpus = golden_corpus();
  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);
  ASSERT_EQ(texts.size(), 16u);

  auto sharded = ShardedIndex::try_build(corpus.docs, golden_sharding());
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  const ShardedSnapshot snap = sharded.value().snapshot();
  const SearchOptions opts = golden_search();

  // Batch size 16: one scatter carries every query.
  auto batched = snap.try_gather_batch(texts, opts);
  ASSERT_TRUE(batched.ok()) << batched.status().message();
  ASSERT_EQ(batched.value().size(), texts.size());
  std::string batch_text;
  std::size_t duplicates = 0, facets = 0;
  for (const auto& result : batched.value()) {
    append_result(batch_text, result);
    for (const auto& hit : result.hits) duplicates += hit.duplicates.size();
    facets += result.facets.size();
  }
  // The digest must cover real collapse and facet work.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(facets, 0u);

  // Batch size 1: one scatter per query.
  std::string single_text;
  for (const std::string& text : texts) {
    auto single = snap.try_gather_batch({text}, opts);
    ASSERT_TRUE(single.ok()) << single.status().message();
    ASSERT_EQ(single.value().size(), 1u);
    append_result(single_text, single.value()[0]);
  }

  const std::string_view kernel = la::kern::active().name;
  const std::uint64_t want = pinned_digest(kernel);
  EXPECT_EQ(util::fnv1a64(batch_text), want) << "kernel " << kernel;
  EXPECT_EQ(util::fnv1a64(single_text), want) << "kernel " << kernel;
}

}  // namespace
