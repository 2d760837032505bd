// Property-based suites: randomized (seeded, reproducible) invariants that
// complement the example-based unit tests — round-trips, cross-checks
// against brute-force oracles, and validator sweeps over generated worlds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cycle_enumerator.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "serving/frontend.h"
#include "serving/snapshot_registry.h"
#include "eval/ttest.h"
#include "index/inverted_index.h"
#include "io/coding.h"
#include "io/file.h"
#include "kb/kb_builder.h"
#include "retrieval/phrase_matcher.h"
#include "retrieval/retriever.h"
#include "sqe/motif_finder.h"
#include "sqe/sqe_engine.h"
#include "synth/dataset.h"

namespace sqe {
namespace {

// ---- io: randomized round-trips ------------------------------------------------

class CodingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingFuzz, RandomStreamsRoundTrip) {
  Rng rng(GetParam());
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) {
    // Mix magnitudes: small, medium, huge.
    int shift = static_cast<int>(rng.NextBounded(64));
    uint64_t v = rng.NextU64() >> shift;
    values.push_back(v);
    io::PutVarint64(&buf, v);
  }
  std::string_view in(buf);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(io::GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST_P(CodingFuzz, RandomBytesNeverCrashDecoder) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int round = 0; round < 50; ++round) {
    std::string garbage;
    size_t len = rng.NextBounded(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    // Decoding must either succeed or fail cleanly; no UB, no crash.
    std::string_view in(garbage);
    uint64_t v64;
    (void)io::GetVarint64(&in, &v64);
    std::string_view in2(garbage);
    std::string_view piece;
    (void)io::GetLengthPrefixed(&in2, &piece);
    auto snapshot = io::SnapshotReader::Open(garbage, 0xABCD);
    if (snapshot.ok()) {
      // Astronomically unlikely; but if parsed, blocks must be readable.
      (void)snapshot.value().BlockNames();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingFuzz, ::testing::Values(1u, 2u, 3u));

// ---- kb: random graph round-trip + reverse-adjacency oracle ---------------------

class KbRandomGraph : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KbRandomGraph, SnapshotRoundTripAndReverseConsistency) {
  Rng rng(GetParam());
  kb::KbBuilder builder;
  const size_t num_articles = 40 + rng.NextBounded(60);
  const size_t num_categories = 10 + rng.NextBounded(20);
  for (size_t i = 0; i < num_articles; ++i) {
    builder.AddArticle("A" + std::to_string(i));
  }
  for (size_t i = 0; i < num_categories; ++i) {
    builder.AddCategory("C" + std::to_string(i));
  }
  std::set<std::pair<uint32_t, uint32_t>> links;
  for (int i = 0; i < 400; ++i) {
    auto from = static_cast<kb::ArticleId>(rng.NextBounded(num_articles));
    auto to = static_cast<kb::ArticleId>(rng.NextBounded(num_articles));
    builder.AddArticleLink(from, to);
    if (from != to) links.insert({from, to});
    builder.AddMembership(
        static_cast<kb::ArticleId>(rng.NextBounded(num_articles)),
        static_cast<kb::CategoryId>(rng.NextBounded(num_categories)));
  }
  kb::KnowledgeBase kb = std::move(builder).Build();

  // Link multiset matches the oracle exactly (dedup + self-drop applied).
  EXPECT_EQ(kb.NumArticleLinks(), links.size());
  for (const auto& [from, to] : links) {
    EXPECT_TRUE(kb.HasLink(from, to));
  }

  // Reverse adjacency is the exact transpose.
  for (size_t a = 0; a < num_articles; ++a) {
    for (kb::ArticleId to : kb.OutLinks(static_cast<kb::ArticleId>(a))) {
      auto in = kb.InLinks(to);
      EXPECT_TRUE(std::binary_search(in.begin(), in.end(),
                                     static_cast<kb::ArticleId>(a)));
    }
  }
  // Membership transpose.
  for (size_t a = 0; a < num_articles; ++a) {
    for (kb::CategoryId c : kb.CategoriesOf(static_cast<kb::ArticleId>(a))) {
      auto members = kb.ArticlesIn(c);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                     static_cast<kb::ArticleId>(a)));
    }
  }

  // Snapshot round-trip preserves the whole graph.
  auto loaded = kb::KnowledgeBase::FromSnapshotString(kb.SerializeToString());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumArticleLinks(), kb.NumArticleLinks());
  EXPECT_EQ(loaded.value().NumMemberships(), kb.NumMemberships());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KbRandomGraph,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---- index/retrieval: brute-force oracles ----------------------------------------

class RetrievalOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RetrievalOracle, PhraseMatcherAgainstBruteForce) {
  Rng rng(GetParam());
  const std::vector<std::string> vocab = {"a", "b", "c", "d", "e"};
  index::IndexBuilder builder;
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 60; ++d) {
    std::vector<std::string> terms;
    size_t len = 3 + rng.NextBounded(15);
    for (size_t i = 0; i < len; ++i) {
      terms.push_back(vocab[rng.NextBounded(vocab.size())]);
    }
    builder.AddDocument("d" + std::to_string(d), terms);
    docs.push_back(std::move(terms));
  }
  index::InvertedIndex index = std::move(builder).Build();

  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 2 + rng.NextBounded(2);  // bigrams and trigrams
    std::vector<std::string> phrase;
    std::vector<text::TermId> ids;
    for (size_t i = 0; i < n; ++i) {
      phrase.push_back(vocab[rng.NextBounded(vocab.size())]);
      ids.push_back(index.LookupTerm(phrase.back()));
    }
    retrieval::PhrasePostings pp = retrieval::MatchPhrase(index, ids);

    // Brute force over the raw documents.
    std::map<index::DocId, uint32_t> oracle;
    for (size_t d = 0; d < docs.size(); ++d) {
      uint32_t count = 0;
      for (size_t start = 0; start + n <= docs[d].size(); ++start) {
        bool match = true;
        for (size_t i = 0; i < n; ++i) {
          if (docs[d][start + i] != phrase[i]) {
            match = false;
            break;
          }
        }
        if (match) ++count;
      }
      if (count > 0) oracle[static_cast<index::DocId>(d)] = count;
    }

    ASSERT_EQ(pp.docs.size(), oracle.size());
    for (size_t i = 0; i < pp.docs.size(); ++i) {
      EXPECT_EQ(pp.freqs[i], oracle[pp.docs[i]]);
    }
  }
}

TEST_P(RetrievalOracle, RetrieveIsExhaustiveTopK) {
  Rng rng(GetParam() ^ 0xBEEF);
  const std::vector<std::string> vocab = {"x", "y", "z", "w", "v", "u"};
  index::IndexBuilder builder;
  for (int d = 0; d < 50; ++d) {
    std::vector<std::string> terms;
    size_t len = 2 + rng.NextBounded(10);
    for (size_t i = 0; i < len; ++i) {
      terms.push_back(vocab[rng.NextBounded(vocab.size())]);
    }
    builder.AddDocument("d" + std::to_string(d), terms);
  }
  index::InvertedIndex index = std::move(builder).Build();
  retrieval::Retriever retriever(&index);

  retrieval::Query q = retrieval::Query::FromTerms({"x", "y"});
  retrieval::ResultList top = retriever.Retrieve(q, 10);
  ASSERT_EQ(top.size(), 10u);
  // Every doc outside the top-k scores no better than the k-th.
  std::set<index::DocId> in_top;
  for (const auto& sd : top) in_top.insert(sd.doc);
  double kth = top.back().score;
  for (index::DocId d = 0; d < 50; ++d) {
    if (!in_top.contains(d)) {
      EXPECT_LE(retriever.ScoreDocument(q, d), kth + 1e-12);
    }
  }
  // Scores descend.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetrievalOracle,
                         ::testing::Values(5u, 6u, 7u));

// ---- sqe: motif validator over the generated world --------------------------------

TEST(MotifValidatorTest, EveryMatchSatisfiesTheDefinition) {
  // Post-hoc validation of the finder against the raw KB predicates, over
  // a generated world (which contains genuine carriers, noise links AND
  // spurious twins).
  synth::World world = synth::World::Generate(synth::TinyWorldOptions());
  const kb::KnowledgeBase& kb = world.kb;
  expansion::MotifFinder finder(&kb);

  size_t triangles = 0, squares = 0;
  for (uint32_t ci = 0; ci < world.NumConcepts(); ci += 2) {
    kb::ArticleId q = world.concepts[ci].article;
    for (const expansion::TriangularMatch& m : finder.FindTriangular(q)) {
      ASSERT_TRUE(kb.ReciprocallyLinked(m.query_node, m.expansion_node));
      ASSERT_TRUE(kb.HasMembership(m.query_node, m.shared_category));
      ASSERT_TRUE(kb.HasMembership(m.expansion_node, m.shared_category));
      // Category superset condition.
      for (kb::CategoryId c : kb.CategoriesOf(m.query_node)) {
        ASSERT_TRUE(kb.HasMembership(m.expansion_node, c));
      }
      ++triangles;
    }
    for (const expansion::SquareMatch& m : finder.FindSquare(q)) {
      ASSERT_TRUE(kb.ReciprocallyLinked(m.query_node, m.expansion_node));
      ASSERT_TRUE(kb.HasMembership(m.query_node, m.query_category));
      ASSERT_TRUE(kb.HasMembership(m.expansion_node, m.expansion_category));
      ASSERT_NE(m.query_category, m.expansion_category);
      ASSERT_TRUE(
          kb.CategoriesRelated(m.query_category, m.expansion_category));
      ++squares;
    }
  }
  EXPECT_GT(triangles, 50u);
  EXPECT_GT(squares, 50u);
}

TEST(MotifValidatorTest, FinderIsExhaustiveAgainstBruteForce) {
  // Brute-force enumeration over all reciprocal pairs must agree with the
  // finder on which (q, a) pairs carry a triangular motif, and on exactly
  // which (q, a, c_q, c_a) instances are squares.
  synth::World world = synth::World::Generate(synth::TinyWorldOptions());
  const kb::KnowledgeBase& kb = world.kb;
  expansion::MotifFinder finder(&kb);

  size_t squares = 0;
  for (uint32_t ci = 0; ci < std::min<size_t>(world.NumConcepts(), 60);
       ++ci) {
    kb::ArticleId q = world.concepts[ci].article;
    std::set<kb::ArticleId> found;
    for (const auto& m : finder.FindTriangular(q)) {
      found.insert(m.expansion_node);
    }
    using Square = std::tuple<kb::ArticleId, kb::CategoryId, kb::CategoryId>;
    std::vector<Square> found_squares;
    for (const auto& m : finder.FindSquare(q)) {
      ASSERT_EQ(m.query_node, q);
      found_squares.emplace_back(m.expansion_node, m.query_category,
                                 m.expansion_category);
    }
    std::sort(found_squares.begin(), found_squares.end());

    std::set<kb::ArticleId> oracle;
    std::vector<Square> oracle_squares;
    auto q_cats = kb.CategoriesOf(q);
    if (!q_cats.empty()) {
      for (size_t a = 0; a < kb.NumArticles(); ++a) {
        kb::ArticleId candidate = static_cast<kb::ArticleId>(a);
        if (candidate == q || !kb.ReciprocallyLinked(q, candidate)) continue;
        bool superset = true;
        for (kb::CategoryId c : q_cats) {
          if (!kb.HasMembership(candidate, c)) {
            superset = false;
            break;
          }
        }
        if (superset) oracle.insert(candidate);
        for (kb::CategoryId cq : q_cats) {
          for (size_t c = 0; c < kb.NumCategories(); ++c) {
            kb::CategoryId ca = static_cast<kb::CategoryId>(c);
            if (ca != cq && kb.HasMembership(candidate, ca) &&
                kb.CategoriesRelated(cq, ca)) {
              oracle_squares.emplace_back(candidate, cq, ca);
            }
          }
        }
      }
    }
    std::sort(oracle_squares.begin(), oracle_squares.end());
    EXPECT_EQ(found, oracle) << "query concept " << ci;
    // Sorted vectors, not sets: the finder must list each square once.
    EXPECT_EQ(found_squares, oracle_squares) << "query concept " << ci;
    squares += oracle_squares.size();
  }
  EXPECT_GT(squares, 50u);
}

// ---- sqe: counting kernel against the listing oracle ------------------------

// The reference for BuildQueryGraph: every instance FindTriangular and
// FindSquare list, folded into ⟨a, |m_a|⟩ one instance at a time.
expansion::QueryGraph ListingQueryGraph(
    const expansion::MotifFinder& finder,
    std::span<const kb::ArticleId> query_nodes,
    const expansion::MotifConfig& config) {
  const kb::KnowledgeBase& kb = finder.kb();
  expansion::QueryGraph graph;
  graph.query_nodes.assign(query_nodes.begin(), query_nodes.end());
  std::set<kb::ArticleId> query_set(query_nodes.begin(), query_nodes.end());
  std::map<kb::ArticleId, expansion::ExpansionNode> by_article;
  std::set<kb::CategoryId> categories;
  for (kb::ArticleId q : query_nodes) {
    if (q == kb::kInvalidArticle || q >= kb.NumArticles()) continue;
    if (config.use_triangular) {
      for (const expansion::TriangularMatch& m : finder.FindTriangular(q)) {
        if (query_set.contains(m.expansion_node)) continue;
        expansion::ExpansionNode& node = by_article[m.expansion_node];
        node.article = m.expansion_node;
        node.motif_count++;
        node.triangular_count++;
        categories.insert(m.shared_category);
        graph.total_motifs++;
      }
    }
    if (config.use_square) {
      for (const expansion::SquareMatch& m : finder.FindSquare(q)) {
        if (query_set.contains(m.expansion_node)) continue;
        expansion::ExpansionNode& node = by_article[m.expansion_node];
        node.article = m.expansion_node;
        node.motif_count++;
        node.square_count++;
        categories.insert(m.query_category);
        categories.insert(m.expansion_category);
        graph.total_motifs++;
      }
    }
  }
  for (const auto& [article, node] : by_article) {
    graph.expansion_nodes.push_back(node);
  }
  std::sort(graph.expansion_nodes.begin(), graph.expansion_nodes.end(),
            [](const expansion::ExpansionNode& a,
               const expansion::ExpansionNode& b) {
              if (a.motif_count != b.motif_count) {
                return a.motif_count > b.motif_count;
              }
              return a.article < b.article;
            });
  graph.category_nodes.assign(categories.begin(), categories.end());
  return graph;
}

// Compares every field; names the first difference.
::testing::AssertionResult SameGraph(const expansion::QueryGraph& actual,
                                     const expansion::QueryGraph& expected) {
  if (actual.query_nodes != expected.query_nodes) {
    return ::testing::AssertionFailure() << "query_nodes differ";
  }
  if (actual.total_motifs != expected.total_motifs) {
    return ::testing::AssertionFailure()
           << "total_motifs " << actual.total_motifs << " vs "
           << expected.total_motifs;
  }
  if (actual.expansion_nodes.size() != expected.expansion_nodes.size()) {
    return ::testing::AssertionFailure()
           << actual.expansion_nodes.size() << " expansion nodes vs "
           << expected.expansion_nodes.size();
  }
  for (size_t i = 0; i < actual.expansion_nodes.size(); ++i) {
    const expansion::ExpansionNode& x = actual.expansion_nodes[i];
    const expansion::ExpansionNode& y = expected.expansion_nodes[i];
    if (x.article != y.article || x.motif_count != y.motif_count ||
        x.triangular_count != y.triangular_count ||
        x.square_count != y.square_count) {
      return ::testing::AssertionFailure()
             << "expansion node " << i << ": article " << x.article << " ("
             << x.triangular_count << "T+" << x.square_count << "S="
             << x.motif_count << ") vs article " << y.article << " ("
             << y.triangular_count << "T+" << y.square_count
             << "S=" << y.motif_count << ")";
    }
  }
  if (actual.category_nodes != expected.category_nodes) {
    return ::testing::AssertionFailure()
           << actual.category_nodes.size() << " category nodes vs "
           << expected.category_nodes.size();
  }
  return ::testing::AssertionSuccess();
}

std::string NodesToString(std::span<const kb::ArticleId> nodes) {
  std::string out = "{";
  for (kb::ArticleId a : nodes) {
    out += (out.size() > 1 ? "," : "") + std::to_string(a);
  }
  return out + "}";
}

const expansion::MotifConfig kAllMotifConfigs[] = {
    expansion::MotifConfig::Triangular(), expansion::MotifConfig::Square(),
    expansion::MotifConfig::Both()};

// A generated world's KB with hub links layered over it, as the dense
// benchmark KB has: each article gains `hub_links` reciprocal links to
// Zipf-drawn articles, and a hub joins the linking article's categories
// with probability 0.8. Then `categoryless` articles without categories
// are added, each reciprocally linked to a few others.
kb::KnowledgeBase HubKb(const synth::WorldOptions& options, size_t hub_links,
                        size_t categoryless, uint64_t seed) {
  synth::World world = synth::World::Generate(options);
  const kb::KnowledgeBase& src = world.kb;
  kb::KbBuilder builder;
  for (kb::ArticleId a = 0; a < src.NumArticles(); ++a) {
    builder.AddArticle(src.ArticleTitle(a));
  }
  for (kb::CategoryId c = 0; c < src.NumCategories(); ++c) {
    builder.AddCategory(src.CategoryTitle(c));
  }
  for (kb::CategoryId c = 0; c < src.NumCategories(); ++c) {
    for (kb::CategoryId p : src.ParentCategories(c)) {
      builder.AddCategoryLink(c, p);
    }
  }
  for (kb::ArticleId a = 0; a < src.NumArticles(); ++a) {
    for (kb::CategoryId c : src.CategoriesOf(a)) builder.AddMembership(a, c);
    for (kb::ArticleId t : src.OutLinks(a)) builder.AddArticleLink(a, t);
  }
  Rng rng(seed);
  const size_t n = src.NumArticles();
  ZipfSampler zipf(n, 1.0);
  for (kb::ArticleId a = 0; a < n; ++a) {
    for (size_t j = 0; j < hub_links; ++j) {
      auto hub = static_cast<kb::ArticleId>(zipf.Sample(rng));
      if (hub == a) continue;
      builder.AddReciprocalLink(a, hub);
      if (rng.NextBool(0.8)) {
        for (kb::CategoryId c : src.CategoriesOf(a)) {
          builder.AddMembership(hub, c);
        }
      }
    }
  }
  for (size_t i = 0; i < categoryless; ++i) {
    kb::ArticleId bare = builder.AddArticle("Bare " + std::to_string(i));
    for (int j = 0; j < 4; ++j) {
      builder.AddReciprocalLink(
          bare, static_cast<kb::ArticleId>(zipf.Sample(rng)));
    }
  }
  return std::move(builder).Build();
}

synth::WorldOptions DenseWorldOptions() {
  synth::WorldOptions options = synth::TinyWorldOptions();
  options.strong_partners = 8;
  options.square_partners = 16;
  options.p_spurious_twin = 1.0;
  return options;
}

// Node sets covering the kernel's edge cases: every article alone, then
// random sets mixing duplicates, kInvalidArticle, out-of-range ids, query
// nodes that are each other's reciprocal neighbours, and category-less
// nodes.
std::vector<std::vector<kb::ArticleId>> OracleNodeSets(
    const kb::KnowledgeBase& kb, uint64_t seed, size_t random_sets) {
  const auto n = static_cast<kb::ArticleId>(kb.NumArticles());
  std::vector<kb::ArticleId> bare;
  for (kb::ArticleId a = 0; a < n; ++a) {
    if (kb.CategoriesOf(a).empty()) bare.push_back(a);
  }
  std::vector<std::vector<kb::ArticleId>> sets;
  for (kb::ArticleId a = 0; a < n; ++a) sets.push_back({a});
  sets.push_back({});
  sets.push_back({kb::kInvalidArticle});
  sets.push_back({n, n + 5, kb::kInvalidArticle - 1});

  Rng rng(seed);
  for (size_t i = 0; i < random_sets; ++i) {
    std::vector<kb::ArticleId> nodes;
    const size_t size = 1 + rng.NextBounded(5);
    for (size_t j = 0; j < size; ++j) {
      nodes.push_back(static_cast<kb::ArticleId>(rng.NextBounded(n)));
    }
    const kb::ArticleId q = nodes[0];
    if (rng.NextBool(0.5) && !kb.ReciprocalLinks(q).empty()) {
      auto mutual = kb.ReciprocalLinks(q);
      nodes.push_back(mutual[rng.NextBounded(mutual.size())]);
    }
    if (rng.NextBool(0.3)) nodes.push_back(nodes[rng.NextBounded(size)]);
    if (rng.NextBool(0.2)) nodes.push_back(kb::kInvalidArticle);
    if (rng.NextBool(0.2)) {
      nodes.push_back(n + static_cast<kb::ArticleId>(rng.NextBounded(3)));
    }
    if (!bare.empty() && rng.NextBool(0.3)) {
      nodes.push_back(bare[rng.NextBounded(bare.size())]);
    }
    rng.Shuffle(nodes);
    sets.push_back(std::move(nodes));
  }
  return sets;
}

class MotifKernelOracle : public ::testing::TestWithParam<bool> {
 protected:
  // false: TinyWorldOptions() as generated; true: the dense world with hub
  // links and category-less articles.
  static kb::KnowledgeBase MakeKb(bool dense) {
    if (!dense) return synth::World::Generate(synth::TinyWorldOptions()).kb;
    return HubKb(DenseWorldOptions(), 6, 4, 1602);
  }
};

TEST_P(MotifKernelOracle, EveryFieldMatchesTheListing) {
  const kb::KnowledgeBase kb = MakeKb(GetParam());
  expansion::MotifFinder finder(&kb);
  size_t expanded = 0;
  for (const auto& nodes : OracleNodeSets(kb, 16, 300)) {
    for (const expansion::MotifConfig& config : kAllMotifConfigs) {
      const expansion::QueryGraph expected =
          ListingQueryGraph(finder, nodes, config);
      ASSERT_TRUE(SameGraph(finder.BuildQueryGraph(nodes, config), expected))
          << config.ToString() << " " << NodesToString(nodes);
      expanded += expected.expansion_nodes.size();
    }
  }
  EXPECT_GT(expanded, 1000u);
}

TEST_P(MotifKernelOracle, PermutingNodesChangesOnlyQueryNodes) {
  // The graph cache keys a node set independently of its order, so the
  // graph must not depend on that order either.
  const kb::KnowledgeBase kb = MakeKb(GetParam());
  expansion::MotifFinder finder(&kb);
  Rng rng(7217);
  auto sets = OracleNodeSets(kb, 17, 200);
  for (auto& nodes : sets) {
    if (nodes.size() < 2) continue;
    const expansion::QueryGraph before =
        finder.BuildQueryGraph(nodes, expansion::MotifConfig::Both());
    rng.Shuffle(nodes);
    expansion::QueryGraph after =
        finder.BuildQueryGraph(nodes, expansion::MotifConfig::Both());
    EXPECT_EQ(after.query_nodes, nodes);
    after.query_nodes = before.query_nodes;
    ASSERT_TRUE(SameGraph(after, before)) << NodesToString(nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, MotifKernelOracle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Dense" : "Tiny";
                         });

TEST(MotifKernelStateTest, OneThreadAlternatingKbsMatchesOracle) {
  // The counters outlive a KB on their thread, as they do across a hot
  // swap: a small KB after a large one meets stale stamps and arrays sized
  // for the large one, a large one after a small one grows them. A fresh
  // thread starts with empty counters.
  const kb::KnowledgeBase small_kb =
      synth::World::Generate(synth::TinyWorldOptions()).kb;
  synth::WorldOptions large_options = DenseWorldOptions();
  large_options.seed = 11;
  large_options.num_topics = 8;
  large_options.clusters_per_topic = 6;
  const kb::KnowledgeBase large_kb = HubKb(large_options, 6, 4, 1505);
  ASSERT_GT(large_kb.NumArticles(), small_kb.NumArticles());
  ASSERT_GT(large_kb.NumCategories(), small_kb.NumCategories());

  size_t graphs = 0;
  std::thread worker([&] {
    for (int round = 0; round < 3; ++round) {
      for (const kb::KnowledgeBase* kb : {&small_kb, &large_kb}) {
        expansion::MotifFinder finder(kb);
        for (const auto& nodes : OracleNodeSets(*kb, 30 + round, 60)) {
          const expansion::MotifConfig& config = kAllMotifConfigs[graphs % 3];
          ASSERT_TRUE(SameGraph(finder.BuildQueryGraph(nodes, config),
                                ListingQueryGraph(finder, nodes, config)))
              << "round " << round << " " << NodesToString(nodes);
          ++graphs;
        }
      }
    }
  });
  worker.join();
  EXPECT_GT(graphs, 3000u);
}

TEST(MotifKernelStateTest, EpochWrapResetsStamps) {
  // Stamps are 32-bit. A graph over {x} at the lowest epochs leaves x
  // stamped as a query node and its categories as the query node's. Then
  // the epoch is moved to the top of the range: a graph over no valid node
  // takes the wrap, and graphs over y, one of x's reciprocal neighbours,
  // follow at the same low epochs the graph over {x} used. Any stamp the
  // reset missed reads as current: x would be skipped as a query node and
  // its categories counted as y's.
  const kb::KnowledgeBase kb = HubKb(DenseWorldOptions(), 6, 4, 1602);
  expansion::MotifFinder finder(&kb);
  const expansion::MotifConfig both = expansion::MotifConfig::Both();
  std::vector<kb::ArticleId> x, y;
  for (kb::ArticleId a = 0; a < kb.NumArticles() && x.empty(); ++a) {
    const std::vector<kb::ArticleId> nodes = {a};
    const expansion::QueryGraph graph = ListingQueryGraph(finder, nodes, both);
    if (!graph.HasExpansion()) continue;
    y = nodes;
    x = {graph.expansion_nodes[0].article};
  }
  ASSERT_FALSE(x.empty());
  const auto sets = OracleNodeSets(kb, 18, 40);

  std::thread worker([&] {
    expansion::SetMotifEpochForTest(0);
    (void)finder.BuildQueryGraph(x, both);
    expansion::SetMotifEpochForTest(UINT32_MAX);
    const std::vector<kb::ArticleId> none = {kb::kInvalidArticle};
    EXPECT_FALSE(finder.BuildQueryGraph(none, both).HasExpansion());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(SameGraph(finder.BuildQueryGraph(y, both),
                            ListingQueryGraph(finder, y, both)))
          << "graph " << i << " over " << NodesToString(y);
    }
    // A longer run over the top of the range, varied node sets.
    expansion::SetMotifEpochForTest(UINT32_MAX - 12);
    for (const auto& nodes : sets) {
      ASSERT_TRUE(SameGraph(finder.BuildQueryGraph(nodes, both),
                            ListingQueryGraph(finder, nodes, both)))
          << NodesToString(nodes);
    }
  });
  worker.join();
}

// ---- analysis: cycle enumeration vs brute force -----------------------------------

TEST(CycleOracleTest, EnumerationMatchesBruteForceOnRandomGraphs) {
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    // Random small article-only graph (undirected via reciprocal links).
    kb::KbBuilder builder;
    const size_t n = 6;
    for (size_t i = 0; i < n; ++i) builder.AddArticle("N" + std::to_string(i));
    std::vector<std::pair<size_t, size_t>> edges;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng.NextBool(0.45)) {
          builder.AddReciprocalLink(static_cast<kb::ArticleId>(i),
                                    static_cast<kb::ArticleId>(j));
          edges.emplace_back(i, j);
        }
      }
    }
    kb::KnowledgeBase kb = std::move(builder).Build();
    std::vector<kb::NodeRef> nodes;
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(kb::NodeRef::Article(static_cast<kb::ArticleId>(i)));
    }
    analysis::InducedSubgraph graph(kb, nodes);

    auto adjacent = [&](size_t a, size_t b) {
      for (const auto& [x, y] : edges) {
        if ((x == a && y == b) || (x == b && y == a)) return true;
      }
      return false;
    };

    // Brute force: count distinct 3-cycles through node 0.
    size_t oracle3 = 0;
    for (size_t a = 1; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (adjacent(0, a) && adjacent(a, b) && adjacent(b, 0)) ++oracle3;
      }
    }
    EXPECT_EQ(analysis::EnumerateCyclesThrough(graph, 0, 3).size(), oracle3);

    // Brute force: 4-cycles through node 0 (a != b != c, direction-deduped).
    size_t oracle4 = 0;
    for (size_t a = 1; a < n; ++a) {
      for (size_t b = 1; b < n; ++b) {
        for (size_t c = 1; c < n; ++c) {
          if (a == b || b == c || a == c) continue;
          if (a < c && adjacent(0, a) && adjacent(a, b) && adjacent(b, c) &&
              adjacent(c, 0)) {
            ++oracle4;
          }
        }
      }
    }
    EXPECT_EQ(analysis::EnumerateCyclesThrough(graph, 0, 4).size(), oracle4);
  }
}

// ---- eval: t-test vs normal approximation -----------------------------------------

TEST(TTestPropertyTest, LargeSampleMatchesNormalApproximation) {
  Rng rng(777);
  const size_t n = 2000;
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    double base = rng.NextGaussian(0.5, 0.1);
    a[i] = base + rng.NextGaussian(0.02, 0.05);
    b[i] = base;
  }
  eval::TTestResult result = eval::PairedTTest(a, b);
  // z = mean / (sd/sqrt(n)); two-sided normal p via erfc.
  double mean = 0, ss = 0;
  for (size_t i = 0; i < n; ++i) mean += a[i] - b[i];
  mean /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double d = (a[i] - b[i]) - mean;
    ss += d * d;
  }
  double se = std::sqrt(ss / static_cast<double>(n - 1) /
                        static_cast<double>(n));
  double z = mean / se;
  double normal_p = std::erfc(std::fabs(z) / std::sqrt(2.0));
  EXPECT_NEAR(result.p_value, normal_p, 1e-3 + normal_p * 0.05);
}

// ---- end-to-end determinism ---------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsIdenticalRankings) {
  synth::World w1 = synth::World::Generate(synth::TinyWorldOptions());
  synth::World w2 = synth::World::Generate(synth::TinyWorldOptions());
  synth::Dataset d1 = synth::BuildDataset(w1, synth::TinyDatasetSpec());
  synth::Dataset d2 = synth::BuildDataset(w2, synth::TinyDatasetSpec());

  expansion::SqeEngineConfig config;
  config.retriever.mu = d1.retrieval_mu;
  expansion::SqeEngine e1(&w1.kb, &d1.index, d1.linker.get(), &d1.analyzer(),
                          config);
  expansion::SqeEngine e2(&w2.kb, &d2.index, d2.linker.get(), &d2.analyzer(),
                          config);
  for (size_t qi = 0; qi < d1.NumQueries(); ++qi) {
    const auto& q1 = d1.query_set.queries[qi];
    const auto& q2 = d2.query_set.queries[qi];
    ASSERT_EQ(q1.text, q2.text);
    auto r1 = e1.RunSqeC(q1.text, q1.true_entities, 50);
    auto r2 = e2.RunSqeC(q2.text, q2.true_entities, 50);
    ASSERT_EQ(r1.results.size(), r2.results.size());
    for (size_t i = 0; i < r1.results.size(); ++i) {
      EXPECT_EQ(r1.results[i].doc, r2.results[i].doc);
    }
  }
}

// ---- serving: random deadlines under a FakeClock ----------------------------------

// Random corpora × shard counts × deadlines, all on virtual time: a hook
// advances the FakeClock by a random (seeded) amount at every checkpoint,
// so requests expire at interleaving-dependent places — but two invariants
// must hold regardless of which requests expire:
//   1. every completed request returns exactly the bare RunSqe ranking
//      (docs AND scores), and
//   2. completed + expired + rejected == submitted once drained — nothing
//      is lost or double-counted.
class ServingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServingProperty, CompletedMatchBareRunAndAccountingCloses) {
  const uint64_t seed = GetParam();
  synth::WorldOptions world_options = synth::TinyWorldOptions();
  world_options.seed = seed;
  synth::World world = synth::World::Generate(world_options);
  synth::Dataset dataset =
      synth::BuildDataset(world, synth::TinyDatasetSpec());
  const auto& queries = dataset.query_set.queries;

  for (size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expansion::SqeEngineConfig config;
    config.retriever.mu = dataset.retrieval_mu;
    config.sharding.num_shards = shards;
    expansion::SqeEngine engine(&world.kb, &dataset.index,
                                dataset.linker.get(), &dataset.analyzer(),
                                config);

    std::vector<expansion::SqeRunResult> bare;
    for (const auto& q : queries) {
      bare.push_back(engine.RunSqe(q.text, q.true_entities,
                                   expansion::MotifConfig::Both(), 100));
    }

    FakeClock clock;
    Mutex rng_mu{"property_test.rng"};
    Rng rng(seed * 7919 + shards);
    serving::ServingFrontendConfig frontend_config;
    frontend_config.num_workers = 2;
    frontend_config.clock = &clock;
    frontend_config.phase_hook = [&](uint64_t, expansion::RunPhase) {
      MutexLock lock(&rng_mu);
      clock.Advance(std::chrono::microseconds(rng.NextBounded(400)));
    };
    serving::ServingFrontend frontend(&engine, frontend_config);

    std::vector<std::shared_ptr<serving::ServingCall>> calls;
    const size_t num_requests = queries.size() * 3;
    for (size_t i = 0; i < num_requests; ++i) {
      const auto& q = queries[i % queries.size()];
      serving::ServingRequest request;
      request.text = q.text;
      request.query_nodes = q.true_entities;
      request.k = 100;
      {
        MutexLock lock(&rng_mu);
        // Thirds: infinite, tight (often expires mid-run), already expired.
        switch (rng.NextBounded(3)) {
          case 0:
            request.deadline = serving::Deadline::Infinite();
            break;
          case 1:
            request.deadline = serving::Deadline::After(
                clock,
                std::chrono::microseconds(1 + rng.NextBounded(1500)));
            break;
          default:
            request.deadline = serving::Deadline::After(
                clock, std::chrono::microseconds(0));
            break;
        }
      }
      calls.push_back(frontend.Submit(std::move(request)));
    }
    for (auto& call : calls) call->Wait();
    frontend.Shutdown();

    size_t completed = 0;
    for (size_t i = 0; i < calls.size(); ++i) {
      const serving::ServingResponse& response = calls[i]->Wait();
      if (response.status.ok()) {
        ++completed;
        const auto& expected = bare[i % queries.size()].results;
        ASSERT_EQ(response.result.results.size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          EXPECT_EQ(response.result.results[j].doc, expected[j].doc);
          EXPECT_EQ(response.result.results[j].score, expected[j].score);
        }
      } else {
        EXPECT_TRUE(response.status.IsDeadlineExceeded() ||
                    response.status.IsResourceExhausted())
            << response.status.ToString();
      }
    }
    serving::ServingStats stats = frontend.Stats();
    EXPECT_EQ(stats.submitted, num_requests);
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.completed + stats.expired + stats.rejected(),
              stats.submitted);
    EXPECT_EQ(stats.cancelled, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingProperty,
                         ::testing::Values(101u, 202u, 303u));

// ---- registry: random publish schedules under live traffic ------------------------

// The hot-swap analogue of ServingProperty: random corpora × shard counts ×
// the same deadline thirds, plus a random *publish schedule* — snapshot
// generations are published from the main thread at rng-chosen points
// between Submits. Because leases pin at admission and publishes happen
// only between Submits, the epoch every request must serve is exactly the
// number of generations published before its Submit — deterministic per
// call, whatever the workers and deadlines do. Invariants:
//   1. every response (completed OR rejected-after-admission) reports its
//      expected epoch — no request ever observes a swap;
//   2. every completed request's ranking equals the bare-engine run for its
//      pinned epoch's configuration, docs AND score bits (epochs differ in
//      retriever smoothing, so a cross-epoch leak cannot pass);
//   3. the accounting identity closes, and after the front-end drains the
//      registry holds exactly one live generation — every superseded epoch
//      provably retired.
class RegistryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegistryProperty, PinnedEpochsMatchPublishScheduleAndOraclesExactly) {
  const uint64_t seed = GetParam();
  synth::WorldOptions world_options = synth::TinyWorldOptions();
  world_options.seed = seed;
  synth::World world = synth::World::Generate(world_options);
  synth::Dataset dataset =
      synth::BuildDataset(world, synth::TinyDatasetSpec());
  const auto& queries = dataset.query_set.queries;
  const std::string kb_image = world.kb.SerializeToString();
  const std::string index_image = dataset.index.SerializeToString();
  constexpr size_t kMaxEpochs = 4;

  for (size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    auto epoch_config = [&](uint64_t epoch) {
      expansion::SqeEngineConfig config;
      // Distinguishable generations: smoothing scales with the epoch, so
      // every epoch's score bits differ.
      config.retriever.mu =
          dataset.retrieval_mu * (1.0 + 0.5 * static_cast<double>(epoch - 1));
      config.sharding.num_shards = shards;
      return config;
    };

    // Per-epoch bare-engine oracles over the original KB/index.
    std::vector<std::vector<retrieval::ResultList>> oracle;
    for (uint64_t e = 1; e <= kMaxEpochs; ++e) {
      expansion::SqeEngine bare(&world.kb, &dataset.index,
                                dataset.linker.get(), &dataset.analyzer(),
                                epoch_config(e));
      std::vector<retrieval::ResultList> rankings;
      for (const auto& q : queries) {
        rankings.push_back(bare.RunSqe(q.text, q.true_entities,
                                       expansion::MotifConfig::Both(), 100)
                               .results);
      }
      oracle.push_back(std::move(rankings));
    }

    serving::SnapshotRegistryOptions registry_options;
    registry_options.shared_cache.enabled = true;
    serving::SnapshotRegistry registry(registry_options);
    uint64_t published = 0;
    auto publish_next = [&] {
      auto kb = kb::KnowledgeBase::FromSnapshotString(kb_image);
      auto index = index::InvertedIndex::FromSnapshotString(index_image);
      ASSERT_TRUE(kb.ok() && index.ok());
      serving::SnapshotParts parts;
      parts.kb =
          std::make_unique<kb::KnowledgeBase>(std::move(kb).value());
      parts.index =
          std::make_unique<index::InvertedIndex>(std::move(index).value());
      parts.engine_config = epoch_config(published + 1);
      Result<uint64_t> outcome = registry.Publish(std::move(parts));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_EQ(outcome.value(), ++published);
    };
    publish_next();  // epoch 1 before any traffic

    FakeClock clock;
    Mutex rng_mu{"property_test.registry_rng"};
    Rng rng(seed * 6271 + shards);
    serving::ServingFrontendConfig frontend_config;
    frontend_config.num_workers = 2;
    frontend_config.clock = &clock;
    frontend_config.phase_hook = [&](uint64_t, expansion::RunPhase) {
      MutexLock lock(&rng_mu);
      clock.Advance(std::chrono::microseconds(rng.NextBounded(400)));
    };
    serving::ServingFrontend frontend(&registry, frontend_config);

    std::vector<std::shared_ptr<serving::ServingCall>> calls;
    std::vector<uint64_t> expected_epoch;
    const size_t num_requests = queries.size() * 3;
    for (size_t i = 0; i < num_requests; ++i) {
      // Roughly kMaxEpochs - 1 publishes sprinkled across the run, at
      // rng-chosen Submit boundaries.
      bool publish_now;
      {
        MutexLock lock(&rng_mu);
        publish_now = published < kMaxEpochs &&
                      rng.NextBounded(num_requests / kMaxEpochs) == 0;
      }
      if (publish_now) publish_next();
      const auto& q = queries[i % queries.size()];
      serving::ServingRequest request;
      request.text = q.text;
      request.query_nodes = q.true_entities;
      request.k = 100;
      {
        MutexLock lock(&rng_mu);
        // Same thirds as ServingProperty: infinite, tight, already expired.
        switch (rng.NextBounded(3)) {
          case 0:
            request.deadline = serving::Deadline::Infinite();
            break;
          case 1:
            request.deadline = serving::Deadline::After(
                clock,
                std::chrono::microseconds(1 + rng.NextBounded(1500)));
            break;
          default:
            request.deadline = serving::Deadline::After(
                clock, std::chrono::microseconds(0));
            break;
        }
      }
      expected_epoch.push_back(published);
      calls.push_back(frontend.Submit(std::move(request)));
    }
    for (auto& call : calls) call->Wait();
    frontend.Shutdown();

    size_t completed = 0;
    for (size_t i = 0; i < calls.size(); ++i) {
      const serving::ServingResponse& response = calls[i]->Wait();
      // Every admission acquired its lease before any outcome was decided,
      // so even rejections report the pinned epoch.
      EXPECT_EQ(response.epoch, expected_epoch[i]) << "request " << i;
      if (response.status.ok()) {
        ++completed;
        const auto& expected =
            oracle[expected_epoch[i] - 1][i % queries.size()];
        ASSERT_EQ(response.result.results.size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          EXPECT_EQ(response.result.results[j].doc, expected[j].doc);
          EXPECT_EQ(response.result.results[j].score, expected[j].score);
        }
      } else {
        EXPECT_TRUE(response.status.IsDeadlineExceeded() ||
                    response.status.IsResourceExhausted())
            << response.status.ToString();
      }
    }
    serving::ServingStats stats = frontend.Stats();
    EXPECT_EQ(stats.submitted, num_requests);
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.completed + stats.expired + stats.rejected(),
              stats.submitted);
    EXPECT_EQ(stats.rejected_no_snapshot, 0u);

    // The swap-extended accounting identity: with the front-end drained,
    // only the current generation is still pinned.
    serving::SnapshotRegistryStats registry_stats = registry.Stats();
    EXPECT_EQ(registry_stats.published, published);
    EXPECT_EQ(registry_stats.retired, published - 1);
    EXPECT_EQ(registry_stats.live_epochs(), 1u);
    EXPECT_EQ(registry_stats.current_epoch, published);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryProperty,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace sqe
