#include "sqe/motif_finder.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace sqe::expansion {

namespace {
// True iff sorted `sub` ⊆ sorted `super`.
bool SortedSubset(std::span<const kb::CategoryId> sub,
                  std::span<const kb::CategoryId> super) {
  size_t i = 0, j = 0;
  while (i < sub.size()) {
    while (j < super.size() && super[j] < sub[i]) ++j;
    if (j >= super.size() || super[j] != sub[i]) return false;
    ++i;
    ++j;
  }
  return true;
}

// Calls fn(r) once for every category r related to `c` by a C->C edge in
// either direction, r != c: a union walk of the sorted parent and child
// lists, so a pair related both ways is visited once — the same pairs
// FindSquare's merge accepts.
template <typename Fn>
void ForEachRelated(const kb::KnowledgeBase& kb, kb::CategoryId c, Fn&& fn) {
  std::span<const kb::CategoryId> up = kb.ParentCategories(c);
  std::span<const kb::CategoryId> down = kb.ChildCategories(c);
  size_t iu = 0, id = 0;
  while (iu < up.size() || id < down.size()) {
    const bool take_up =
        id == down.size() || (iu < up.size() && up[iu] <= down[id]);
    const bool take_down =
        iu == up.size() || (id < down.size() && down[id] <= up[iu]);
    const kb::CategoryId r = take_up ? up[iu] : down[id];
    iu += take_up ? 1 : 0;
    id += take_down ? 1 : 0;
    if (r != c) fn(r);
  }
}

// The counting kernel's per-thread state. Every slot carries the epoch it
// was written in, and a slot from an older epoch reads as zero, so nothing
// is cleared between query nodes, graphs or KBs. The arrays grow to the
// largest KB the thread has seen and never shrink.
class MotifCounters {
 public:
  // Per category. The first four fields belong to one query node q and are
  // current while node_epoch is q's epoch; graph_epoch marks membership of
  // the graph being built's category_nodes.
  struct CategorySlot {
    uint32_t node_epoch = 0;
    uint32_t related = 0;   // how many of cats(q) this category is related to
    bool in_query = false;  // a category of q
    bool matched = false;   // closed a square with a non-query neighbour
    uint32_t graph_epoch = 0;
  };
  // Per article, current while epoch is the graph's epoch.
  struct ArticleSlot {
    uint32_t epoch = 0;
    bool query = false;
    uint32_t triangular = 0;
    uint32_t square = 0;
  };

  // Sizes the arrays for `kb` and reserves the epochs one graph over
  // `num_nodes` query nodes uses (one, plus one per query node), resetting
  // every stamp first if they would run past the 32-bit range. Returns the
  // graph's epoch.
  uint32_t BeginGraph(const kb::KnowledgeBase& kb, size_t num_nodes) {
    if (categories_.size() < kb.NumCategories()) {
      categories_.resize(kb.NumCategories());
    }
    if (articles_.size() < kb.NumArticles()) {
      articles_.resize(kb.NumArticles());
    }
    if (uint64_t{epoch_} + num_nodes + 1 >
        std::numeric_limits<uint32_t>::max()) {
      std::fill(categories_.begin(), categories_.end(), CategorySlot{});
      std::fill(articles_.begin(), articles_.end(), ArticleSlot{});
      epoch_ = 0;
    }
    expanded_.clear();
    return ++epoch_;
  }

  uint32_t NextNodeEpoch() { return ++epoch_; }

  // The slot of category c for the query node of `node_epoch`.
  CategorySlot& NodeCategory(kb::CategoryId c, uint32_t node_epoch) {
    CategorySlot& slot = categories_[c];
    if (slot.node_epoch != node_epoch) {
      slot.node_epoch = node_epoch;
      slot.related = 0;
      slot.in_query = false;
      slot.matched = false;
    }
    return slot;
  }
  CategorySlot& Category(kb::CategoryId c) { return categories_[c]; }

  // The slot of article a for the graph of `graph_epoch`.
  ArticleSlot& Article(kb::ArticleId a, uint32_t graph_epoch) {
    ArticleSlot& slot = articles_[a];
    if (slot.epoch != graph_epoch) slot = ArticleSlot{graph_epoch};
    return slot;
  }
  const ArticleSlot& PeekArticle(kb::ArticleId a) const {
    return articles_[a];
  }

  // Articles that gained their first motif in the current graph.
  std::vector<kb::ArticleId>& expanded() { return expanded_; }

  void set_epoch(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<CategorySlot> categories_;
  std::vector<ArticleSlot> articles_;
  std::vector<kb::ArticleId> expanded_;
  uint32_t epoch_ = 0;
};

thread_local MotifCounters tls_counters;

}  // namespace

void SetMotifEpochForTest(uint32_t epoch) { tls_counters.set_epoch(epoch); }

std::vector<TriangularMatch> MotifFinder::FindTriangular(
    kb::ArticleId q) const {
  std::vector<TriangularMatch> matches;
  std::span<const kb::CategoryId> q_cats = kb_->CategoriesOf(q);
  // A triangle needs a shared category; a query node with no categories
  // closes no length-3 cycle through a category.
  if (q_cats.empty()) return matches;

  for (kb::ArticleId a : kb_->ReciprocalLinks(q)) {
    if (a == q) continue;
    std::span<const kb::CategoryId> a_cats = kb_->CategoriesOf(a);
    if (!SortedSubset(q_cats, a_cats)) continue;
    // Every category of q is shared; each closes one triangle.
    for (kb::CategoryId c : q_cats) {
      matches.push_back(TriangularMatch{q, a, c});
    }
  }
  return matches;
}

std::vector<SquareMatch> MotifFinder::FindSquare(kb::ArticleId q) const {
  std::vector<SquareMatch> matches;
  std::span<const kb::CategoryId> q_cats = kb_->CategoriesOf(q);
  if (q_cats.empty()) return matches;

  for (kb::ArticleId a : kb_->ReciprocalLinks(q)) {
    if (a == q) continue;
    std::span<const kb::CategoryId> a_cats = kb_->CategoriesOf(a);
    // For each query category, the squares it closes are the members of
    // a_cats related to it by a C->C edge in either direction. Both the
    // neighbor lists and a_cats are sorted, so a three-way merge finds them
    // in O(|parents| + |children| + |a_cats|) instead of the former
    // |q_cats| x |a_cats| nested loop with a binary search per pair. The
    // union walk emits each related category once, ascending — the same
    // order the nested loop produced.
    for (kb::CategoryId cq : q_cats) {
      std::span<const kb::CategoryId> up = kb_->ParentCategories(cq);
      std::span<const kb::CategoryId> down = kb_->ChildCategories(cq);
      size_t iu = 0, id = 0;
      for (kb::CategoryId ca : a_cats) {
        while (iu < up.size() && up[iu] < ca) ++iu;
        while (id < down.size() && down[id] < ca) ++id;
        if (ca == cq) continue;  // identical categories form a triangle
        bool related = (iu < up.size() && up[iu] == ca) ||
                       (id < down.size() && down[id] == ca);
        if (related) matches.push_back(SquareMatch{q, a, cq, ca});
      }
    }
  }
  return matches;
}

// Counts the motifs FindTriangular and FindSquare would list, without
// listing them. Per query node q: stamp cats(q), and give every category
// the number of cats(q) it is related to. Then one pass over each
// reciprocal neighbour a's categories sums those numbers, which is a's
// square count, and counts the stamped ones: a closes |cats(q)| triangles
// iff all of cats(q) are among them.
QueryGraph MotifFinder::BuildQueryGraph(
    std::span<const kb::ArticleId> query_nodes,
    const MotifConfig& config) const {
  QueryGraph graph;
  graph.query_nodes.assign(query_nodes.begin(), query_nodes.end());

  MotifCounters& counters = tls_counters;
  const uint32_t graph_epoch = counters.BeginGraph(*kb_, query_nodes.size());
  auto in_range = [&](kb::ArticleId q) { return q < kb_->NumArticles(); };
  for (kb::ArticleId q : query_nodes) {
    if (in_range(q)) counters.Article(q, graph_epoch).query = true;
  }
  auto add_category = [&](kb::CategoryId c) {
    MotifCounters::CategorySlot& slot = counters.Category(c);
    if (slot.graph_epoch == graph_epoch) return;
    slot.graph_epoch = graph_epoch;
    graph.category_nodes.push_back(c);
  };

  for (kb::ArticleId q : query_nodes) {
    if (!in_range(q)) continue;  // also drops kInvalidArticle
    std::span<const kb::CategoryId> q_cats = kb_->CategoriesOf(q);
    if (q_cats.empty()) continue;
    const uint32_t node_epoch = counters.NextNodeEpoch();
    for (kb::CategoryId c : q_cats) {
      counters.NodeCategory(c, node_epoch).in_query = true;
    }
    if (config.use_square) {
      for (kb::CategoryId c : q_cats) {
        ForEachRelated(*kb_, c, [&](kb::CategoryId r) {
          ++counters.NodeCategory(r, node_epoch).related;
        });
      }
    }

    bool any_triangle = false, any_square = false;
    for (kb::ArticleId a : kb_->ReciprocalLinks(q)) {
      if (a == q) continue;
      const MotifCounters::ArticleSlot& peek = counters.PeekArticle(a);
      if (peek.epoch == graph_epoch && peek.query) continue;
      uint32_t shared = 0, squares = 0;
      for (kb::CategoryId c : kb_->CategoriesOf(a)) {
        MotifCounters::CategorySlot& slot = counters.Category(c);
        if (slot.node_epoch != node_epoch) continue;
        shared += slot.in_query ? 1 : 0;
        if (slot.related == 0) continue;
        squares += slot.related;
        slot.matched = true;
        add_category(c);
      }
      const uint32_t triangles =
          config.use_triangular && shared == q_cats.size()
              ? static_cast<uint32_t>(q_cats.size())
              : 0;
      if (triangles + squares == 0) continue;
      MotifCounters::ArticleSlot& slot = counters.Article(a, graph_epoch);
      if (slot.triangular + slot.square == 0) counters.expanded().push_back(a);
      slot.triangular += triangles;
      slot.square += squares;
      graph.total_motifs += uint64_t{triangles} + squares;
      any_triangle |= triangles > 0;
      any_square |= squares > 0;
    }

    // Triangles close through every category of q. A square closes through
    // q's category c when one of c's related categories matched.
    for (kb::CategoryId c : q_cats) {
      if (any_triangle) {
        add_category(c);
        continue;
      }
      if (!any_square || counters.Category(c).graph_epoch == graph_epoch) {
        continue;
      }
      bool closes = false;
      ForEachRelated(*kb_, c, [&](kb::CategoryId r) {
        const MotifCounters::CategorySlot& slot = counters.Category(r);
        closes |= slot.node_epoch == node_epoch && slot.matched;
      });
      if (closes) add_category(c);
    }
  }

  std::vector<kb::ArticleId>& expanded = counters.expanded();
  graph.expansion_nodes.reserve(expanded.size());
  for (kb::ArticleId a : expanded) {
    const MotifCounters::ArticleSlot& slot = counters.PeekArticle(a);
    graph.expansion_nodes.push_back(ExpansionNode{
        a, slot.triangular + slot.square, slot.triangular, slot.square});
  }
  std::sort(graph.expansion_nodes.begin(), graph.expansion_nodes.end(),
            [](const ExpansionNode& a, const ExpansionNode& b) {
              if (a.motif_count != b.motif_count) {
                return a.motif_count > b.motif_count;
              }
              return a.article < b.article;
            });
  std::sort(graph.category_nodes.begin(), graph.category_nodes.end());
  return graph;
}

}  // namespace sqe::expansion
