#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "kb/kb_builder.h"
#include "sqe/combiner.h"
#include "sqe/motif_finder.h"
#include "sqe/query_builder.h"
#include "sqe/sqe_engine.h"

namespace sqe::kb {
// Reaches the category CSRs, to build what KbBuilder never does but a
// snapshot that passes Validate() may hold: a category that is its own
// parent.
struct KnowledgeBaseTestPeer {
  static void AddSelfLoop(KnowledgeBase& kb, CategoryId c) {
    Insert(kb.cat_parent_offsets_.vec(), kb.cat_parent_targets_.vec(), c);
    Insert(kb.cat_child_offsets_.vec(), kb.cat_child_targets_.vec(), c);
  }

 private:
  static void Insert(std::vector<uint64_t>& offsets,
                     std::vector<CategoryId>& targets, CategoryId c) {
    auto begin = targets.begin() + static_cast<ptrdiff_t>(offsets[c]);
    auto end = targets.begin() + static_cast<ptrdiff_t>(offsets[c + 1]);
    targets.insert(std::lower_bound(begin, end, c), c);
    for (size_t i = c + 1; i < offsets.size(); ++i) ++offsets[i];
  }
};
}  // namespace sqe::kb

namespace sqe::expansion {
namespace {

// A hand-crafted KB exercising every motif condition:
//
//   q  = "Query"        categories {C1}
//   t  = "Twin"         categories {C1, C2}, reciprocal with q  -> triangular
//   s  = "Square"       categories {C2},    reciprocal with q,
//                        C1 -> C2 subcategory                   -> square
//   w  = "OneWay"       categories {C1},    q -> w only          -> nothing
//   u  = "Unrelated"    categories {C3},    reciprocal with q    -> nothing
//   m  = "MissingCats"  categories {},      reciprocal with q    -> nothing
struct MotifKbFixture {
  kb::KnowledgeBase kb;
  kb::ArticleId q, t, s, w, u, m;
  kb::CategoryId c1, c2, c3;

  MotifKbFixture() {
    kb::KbBuilder builder;
    q = builder.AddArticle("Query");
    t = builder.AddArticle("Twin");
    s = builder.AddArticle("Square");
    w = builder.AddArticle("OneWay");
    u = builder.AddArticle("Unrelated");
    m = builder.AddArticle("MissingCats");
    c1 = builder.AddCategory("Category:C1");
    c2 = builder.AddCategory("Category:C2");
    c3 = builder.AddCategory("Category:C3");

    builder.AddMembership(q, c1);
    builder.AddMembership(t, c1);
    builder.AddMembership(t, c2);
    builder.AddMembership(s, c2);
    builder.AddMembership(w, c1);
    builder.AddMembership(u, c3);

    builder.AddReciprocalLink(q, t);
    builder.AddReciprocalLink(q, s);
    builder.AddArticleLink(q, w);
    builder.AddReciprocalLink(q, u);
    builder.AddReciprocalLink(q, m);

    builder.AddCategoryLink(c1, c2);

    kb = std::move(builder).Build();
  }
};

TEST(MotifFinderTest, TriangularRequiresReciprocityAndCategorySuperset) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  auto matches = finder.FindTriangular(f.q);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query_node, f.q);
  EXPECT_EQ(matches[0].expansion_node, f.t);
  EXPECT_EQ(matches[0].shared_category, f.c1);
}

TEST(MotifFinderTest, SquareRequiresRelatedCategories) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  auto matches = finder.FindSquare(f.q);
  // Two squares: (q,s,C1,C2) via s={C2}, and (q,t,C1,C2) via t∋C2.
  ASSERT_EQ(matches.size(), 2u);
  bool found_s = false, found_t = false;
  for (const SquareMatch& match : matches) {
    EXPECT_EQ(match.query_category, f.c1);
    EXPECT_EQ(match.expansion_category, f.c2);
    found_s |= match.expansion_node == f.s;
    found_t |= match.expansion_node == f.t;
  }
  EXPECT_TRUE(found_s);
  EXPECT_TRUE(found_t);
}

TEST(MotifFinderTest, QueryNodeWithoutCategoriesMatchesNothing) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  EXPECT_TRUE(finder.FindTriangular(f.m).empty());
  EXPECT_TRUE(finder.FindSquare(f.m).empty());
}

TEST(MotifFinderTest, OneWayLinkNeverMatches) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  for (const auto& match : finder.FindTriangular(f.q)) {
    EXPECT_NE(match.expansion_node, f.w);
  }
  for (const auto& match : finder.FindSquare(f.q)) {
    EXPECT_NE(match.expansion_node, f.w);
  }
}

TEST(MotifFinderTest, BuildQueryGraphAggregatesCounts) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  std::vector<kb::ArticleId> nodes = {f.q};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());

  ASSERT_EQ(graph.expansion_nodes.size(), 2u);
  // t: 1 triangle + 1 square = 2; s: 1 square.
  EXPECT_EQ(graph.expansion_nodes[0].article, f.t);
  EXPECT_EQ(graph.expansion_nodes[0].motif_count, 2u);
  EXPECT_EQ(graph.expansion_nodes[0].triangular_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[0].square_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[1].article, f.s);
  EXPECT_EQ(graph.expansion_nodes[1].motif_count, 1u);
  EXPECT_EQ(graph.total_motifs, 3u);
  // Categories C1 and C2 appear in matched motifs.
  EXPECT_EQ(graph.category_nodes.size(), 2u);
}

TEST(MotifFinderTest, ConfigurationSelectsMotifs) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  std::vector<kb::ArticleId> nodes = {f.q};

  QueryGraph t_only = finder.BuildQueryGraph(nodes, MotifConfig::Triangular());
  ASSERT_EQ(t_only.expansion_nodes.size(), 1u);
  EXPECT_EQ(t_only.expansion_nodes[0].article, f.t);

  QueryGraph s_only = finder.BuildQueryGraph(nodes, MotifConfig::Square());
  EXPECT_EQ(s_only.expansion_nodes.size(), 2u);
  EXPECT_EQ(s_only.total_motifs, 2u);
}

TEST(MotifFinderTest, QueryNodesExcludedFromExpansion) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  // Both q and t as query nodes: t must not appear as an expansion node.
  std::vector<kb::ArticleId> nodes = {f.q, f.t};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());
  for (const ExpansionNode& node : graph.expansion_nodes) {
    EXPECT_NE(node.article, f.q);
    EXPECT_NE(node.article, f.t);
  }
}

TEST(MotifFinderTest, InvalidQueryNodesIgnored) {
  MotifKbFixture f;
  MotifFinder finder(&f.kb);
  std::vector<kb::ArticleId> nodes = {kb::kInvalidArticle};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());
  EXPECT_TRUE(graph.expansion_nodes.empty());
}

// Two categories that are each other's parent: C1 -> C2 and C2 -> C1.
//
//   q = "Query"   categories {C1}
//   t = "Twin"    categories {C1, C2}, reciprocal with q -> 1 T + 1 S
//   s = "Square"  categories {C2},     reciprocal with q -> 1 S
//
// The pair (C1, C2) is related in both directions but closes one square:
// a kernel that counted parent hits and child hits separately would see
// two.
struct MutualParentFixture {
  kb::KnowledgeBase kb;
  kb::ArticleId q, t, s;
  kb::CategoryId c1, c2;

  MutualParentFixture() {
    kb::KbBuilder builder;
    q = builder.AddArticle("Query");
    t = builder.AddArticle("Twin");
    s = builder.AddArticle("Square");
    c1 = builder.AddCategory("Category:C1");
    c2 = builder.AddCategory("Category:C2");
    builder.AddMembership(q, c1);
    builder.AddMembership(t, c1);
    builder.AddMembership(t, c2);
    builder.AddMembership(s, c2);
    builder.AddReciprocalLink(q, t);
    builder.AddReciprocalLink(q, s);
    builder.AddCategoryLink(c1, c2);
    builder.AddCategoryLink(c2, c1);
    kb = std::move(builder).Build();
  }
};

TEST(MotifFinderTest, MutualParentsCloseOneSquare) {
  MutualParentFixture f;
  ASSERT_TRUE(f.kb.HasCategoryLink(f.c1, f.c2));
  ASSERT_TRUE(f.kb.HasCategoryLink(f.c2, f.c1));
  MotifFinder finder(&f.kb);
  EXPECT_EQ(finder.FindSquare(f.q).size(), 2u);  // (q,t,C1,C2), (q,s,C1,C2)

  std::vector<kb::ArticleId> nodes = {f.q};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());
  ASSERT_EQ(graph.expansion_nodes.size(), 2u);
  EXPECT_EQ(graph.expansion_nodes[0].article, f.t);
  EXPECT_EQ(graph.expansion_nodes[0].triangular_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[0].square_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[0].motif_count, 2u);
  EXPECT_EQ(graph.expansion_nodes[1].article, f.s);
  EXPECT_EQ(graph.expansion_nodes[1].square_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[1].motif_count, 1u);
  EXPECT_EQ(graph.total_motifs, 3u);
  EXPECT_EQ(graph.category_nodes, (std::vector<kb::CategoryId>{f.c1, f.c2}));

  QueryGraph squares = finder.BuildQueryGraph(nodes, MotifConfig::Square());
  EXPECT_EQ(squares.total_motifs, 2u);

  // From C2's side the pair is still one square: (s,q,C2,C1).
  std::vector<kb::ArticleId> from_s = {f.s};
  QueryGraph reverse = finder.BuildQueryGraph(from_s, MotifConfig::Square());
  EXPECT_EQ(finder.FindSquare(f.s).size(), 1u);
  EXPECT_EQ(reverse.total_motifs, 1u);
}

TEST(MotifFinderTest, SelfParentCategoryClosesNoSquareWithItself) {
  // A square needs two distinct categories, so C1 -> C1 adds nothing.
  MotifKbFixture f;
  kb::KnowledgeBaseTestPeer::AddSelfLoop(f.kb, f.c1);
  ASSERT_TRUE(f.kb.Validate().ok());
  ASSERT_TRUE(f.kb.HasCategoryLink(f.c1, f.c1));
  MotifFinder finder(&f.kb);
  EXPECT_EQ(finder.FindSquare(f.q).size(), 2u);

  std::vector<kb::ArticleId> nodes = {f.q};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Square());
  EXPECT_EQ(graph.total_motifs, 2u);
  ASSERT_EQ(graph.expansion_nodes.size(), 2u);
  EXPECT_EQ(graph.expansion_nodes[0].square_count, 1u);
  EXPECT_EQ(graph.expansion_nodes[1].square_count, 1u);
}

TEST(MotifConfigTest, Names) {
  EXPECT_EQ(MotifConfig::Triangular().ToString(), "T");
  EXPECT_EQ(MotifConfig::Square().ToString(), "S");
  EXPECT_EQ(MotifConfig::Both().ToString(), "T&S");
  EXPECT_EQ(MotifKindName(MotifKind::kTriangular), "triangular");
  EXPECT_EQ(MotifKindName(MotifKind::kSquare), "square");
}

// ---- query builder -----------------------------------------------------------

TEST(QueryBuilderTest, ThreePartQueryStructure) {
  MotifKbFixture f;
  text::Analyzer analyzer;
  ExpandedQueryBuilder builder(&f.kb, &analyzer);
  MotifFinder finder(&f.kb);
  std::vector<kb::ArticleId> nodes = {f.q};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());

  retrieval::Query query =
      builder.Build("photos of the query thing", graph, QueryParts::All());
  ASSERT_EQ(query.clauses.size(), 3u);
  // Clause order: user terms, entity titles, expansion titles.
  EXPECT_EQ(query.clauses[0].atoms.size(), 3u);  // photos, queri, thing
  EXPECT_EQ(query.clauses[1].atoms.size(), 1u);  // "Query" title
  EXPECT_EQ(query.clauses[2].atoms.size(), 2u);  // Twin + Square titles
  // Expansion atoms weighted by |m_a| (Twin=2, Square=1), sorted by count.
  EXPECT_DOUBLE_EQ(query.clauses[2].atoms[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(query.clauses[2].atoms[1].weight, 1.0);
}

TEST(QueryBuilderTest, PartsSelectClauses) {
  MotifKbFixture f;
  text::Analyzer analyzer;
  ExpandedQueryBuilder builder(&f.kb, &analyzer);
  QueryGraph graph;
  graph.query_nodes.push_back(f.q);

  EXPECT_EQ(builder.Build("words", graph, QueryParts::QOnly()).clauses.size(),
            1u);
  EXPECT_EQ(builder.Build("words", graph, QueryParts::EOnly()).clauses.size(),
            1u);
  EXPECT_EQ(builder.Build("words", graph, QueryParts::QAndE()).clauses.size(),
            2u);
  // XOnly with no expansion nodes yields an empty query.
  EXPECT_TRUE(builder.Build("words", graph, QueryParts::XOnly()).Empty());
}

TEST(QueryBuilderTest, MaxExpansionFeaturesTruncates) {
  MotifKbFixture f;
  text::Analyzer analyzer;
  QueryBuilderOptions options;
  options.max_expansion_features = 1;
  ExpandedQueryBuilder builder(&f.kb, &analyzer, options);
  MotifFinder finder(&f.kb);
  std::vector<kb::ArticleId> nodes = {f.q};
  QueryGraph graph = finder.BuildQueryGraph(nodes, MotifConfig::Both());
  retrieval::Query query = builder.Build("x", graph, QueryParts::XOnly());
  ASSERT_EQ(query.clauses.size(), 1u);
  EXPECT_EQ(query.clauses[0].atoms.size(), 1u);  // only the top-|m_a| node
}

TEST(QueryBuilderTest, MultiWordTitlesBecomePhrases) {
  kb::KbBuilder kb_builder;
  kb::ArticleId two = kb_builder.AddArticle("Cable Car");
  kb::KnowledgeBase kb = std::move(kb_builder).Build();
  text::Analyzer analyzer;
  ExpandedQueryBuilder builder(&kb, &analyzer);
  QueryGraph graph;
  graph.query_nodes.push_back(two);
  retrieval::Query query = builder.Build("", graph, QueryParts::EOnly());
  ASSERT_EQ(query.clauses.size(), 1u);
  ASSERT_EQ(query.clauses[0].atoms.size(), 1u);
  EXPECT_TRUE(query.clauses[0].atoms[0].is_phrase());
}

TEST(QueryBuilderTest, StemEqualTitlesMergeWithinClause) {
  // "Car" and "Cars" analyze to the identical term sequence {car}: their
  // atoms must merge with summed weights instead of silently splitting the
  // clause's normalized weight mass across duplicates.
  kb::KbBuilder kb_builder;
  kb::ArticleId car = kb_builder.AddArticle("Car");
  kb::ArticleId cars = kb_builder.AddArticle("Cars");
  kb::KnowledgeBase kb = std::move(kb_builder).Build();
  text::Analyzer analyzer;
  ExpandedQueryBuilder builder(&kb, &analyzer);

  QueryGraph graph;
  graph.query_nodes = {car, cars};
  graph.expansion_nodes.push_back({car, 2, 2, 0});
  graph.expansion_nodes.push_back({cars, 1, 1, 0});

  retrieval::Query entity = builder.Build("", graph, QueryParts::EOnly());
  ASSERT_EQ(entity.clauses.size(), 1u);
  ASSERT_EQ(entity.clauses[0].atoms.size(), 1u);
  EXPECT_EQ(entity.clauses[0].atoms[0].terms,
            (std::vector<std::string>{"car"}));
  EXPECT_DOUBLE_EQ(entity.clauses[0].atoms[0].weight, 2.0);  // 1.0 + 1.0

  retrieval::Query expansion = builder.Build("", graph, QueryParts::XOnly());
  ASSERT_EQ(expansion.clauses.size(), 1u);
  ASSERT_EQ(expansion.clauses[0].atoms.size(), 1u);
  EXPECT_DOUBLE_EQ(expansion.clauses[0].atoms[0].weight, 3.0);  // |m_a| 2 + 1
}

TEST(QueryBuilderTest, DistinctTitlesDoNotMerge) {
  // Guard the merge against over-reach: multi-term phrases with a shared
  // prefix term stay separate atoms.
  kb::KbBuilder kb_builder;
  kb::ArticleId cable_car = kb_builder.AddArticle("Cable Car");
  kb::ArticleId cable = kb_builder.AddArticle("Cable");
  kb::KnowledgeBase kb = std::move(kb_builder).Build();
  text::Analyzer analyzer;
  ExpandedQueryBuilder builder(&kb, &analyzer);

  QueryGraph graph;
  graph.query_nodes = {cable_car, cable};
  retrieval::Query query = builder.Build("", graph, QueryParts::EOnly());
  ASSERT_EQ(query.clauses.size(), 1u);
  EXPECT_EQ(query.clauses[0].atoms.size(), 2u);
}

// ---- combiner ------------------------------------------------------------------

retrieval::ResultList MakeResults(std::initializer_list<index::DocId> docs) {
  retrieval::ResultList out;
  double score = 100.0;
  for (index::DocId d : docs) out.push_back({d, score -= 1.0});
  return out;
}

TEST(CombinerTest, RangesFillInOrder) {
  retrieval::ResultList a = MakeResults({1, 2, 3});
  retrieval::ResultList b = MakeResults({10, 11, 12, 13});
  retrieval::ResultList c = MakeResults({20, 21});
  retrieval::ResultList combined = CombineByRankRanges(
      {{2, &a}, {5, &b}, {static_cast<size_t>(-1), &c}}, 100);
  std::vector<index::DocId> docs;
  for (const auto& sd : combined) docs.push_back(sd.doc);
  std::vector<index::DocId> expected = {1, 2, 10, 11, 12, 20, 21};
  EXPECT_EQ(docs, expected);
}

TEST(CombinerTest, DuplicatesSkippedFirstOccurrenceWins) {
  retrieval::ResultList a = MakeResults({1, 2});
  retrieval::ResultList b = MakeResults({2, 1, 3, 4});
  retrieval::ResultList combined =
      CombineByRankRanges({{2, &a}, {static_cast<size_t>(-1), &b}}, 100);
  std::vector<index::DocId> docs;
  for (const auto& sd : combined) docs.push_back(sd.doc);
  std::vector<index::DocId> expected = {1, 2, 3, 4};
  EXPECT_EQ(docs, expected);
}

TEST(CombinerTest, CapsAtK) {
  retrieval::ResultList a = MakeResults({1, 2, 3, 4, 5});
  retrieval::ResultList combined =
      CombineByRankRanges({{static_cast<size_t>(-1), &a}}, 3);
  EXPECT_EQ(combined.size(), 3u);
}

TEST(CombinerTest, ShortSegmentFallsThrough) {
  // Segment one has fewer docs than its cutoff allows: the next segment
  // continues the fill.
  retrieval::ResultList a = MakeResults({1});
  retrieval::ResultList b = MakeResults({5, 6, 7});
  retrieval::ResultList combined =
      CombineByRankRanges({{3, &a}, {static_cast<size_t>(-1), &b}}, 100);
  ASSERT_EQ(combined.size(), 4u);
  EXPECT_EQ(combined[0].doc, 1u);
  EXPECT_EQ(combined[1].doc, 5u);
}

TEST(CombinerTest, SqeCConfiguration) {
  // 1-5 from T, 6-200 from T&S, rest from S.
  retrieval::ResultList t, ts, s;
  for (index::DocId d = 0; d < 300; ++d) {
    t.push_back({d, 300.0 - d});
    ts.push_back({d + 1000, 300.0 - d});
    s.push_back({d + 2000, 300.0 - d});
  }
  retrieval::ResultList combined = CombineSqeC(t, ts, s, 250);
  ASSERT_EQ(combined.size(), 250u);
  EXPECT_LT(combined[4].doc, 1000u);    // rank 5 from T
  EXPECT_GE(combined[5].doc, 1000u);    // rank 6 from T&S
  EXPECT_LT(combined[199].doc, 2000u);  // rank 200 from T&S
  EXPECT_GE(combined[200].doc, 2000u);  // rank 201 from S
}

}  // namespace
}  // namespace sqe::expansion
