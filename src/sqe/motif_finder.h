// MotifFinder: enumerates triangular and square motif instances around
// query nodes and assembles query graphs.
//
// FindTriangular/FindSquare list every instance anchored at one query node;
// they are the reference definition. BuildQueryGraph counts the same
// instances without listing them. Per query node q it stamps cats(q) and
// fills a per-category table: how many of cats(q) each category is related
// to by a C->C edge. One pass over each reciprocal neighbour a's categories
// then yields a's square count (the table's sum) and its triangle test
// (all of cats(q) stamped). Cost per query node q:
//   O(Σ_{c ∈ cats(q)} d_c(c) + Σ_{a ∈ N↔(q)} |cats(a)|)
// where d_c(c) is c's parent plus child count and N↔(q) the KB's
// reciprocal-link list; then one sort of the expansion and category nodes.
// The counters are epoch-stamped arrays in thread-local storage, grown to
// the largest KB the thread has seen and never cleared per query, so the
// finder itself stays const and batch-pipeline workers share one instance
// concurrently.
#ifndef SQE_SQE_MOTIF_FINDER_H_
#define SQE_SQE_MOTIF_FINDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "kb/knowledge_base.h"
#include "sqe/motif.h"
#include "sqe/query_graph.h"

namespace sqe::expansion {

class MotifFinder {
 public:
  /// `kb` must outlive the finder.
  explicit MotifFinder(const kb::KnowledgeBase* kb) : kb_(kb) {
    SQE_CHECK(kb != nullptr);
  }

  /// All triangular motif instances anchored at `q`.
  std::vector<TriangularMatch> FindTriangular(kb::ArticleId q) const;

  /// All square motif instances anchored at `q`.
  std::vector<SquareMatch> FindSquare(kb::ArticleId q) const;

  /// Builds the query graph for a set of query nodes under `config`:
  /// matches motifs around every query node, aggregates ⟨a, |m_a|⟩, and
  /// drops expansion candidates that are themselves query nodes.
  QueryGraph BuildQueryGraph(std::span<const kb::ArticleId> query_nodes,
                             const MotifConfig& config) const;

  const kb::KnowledgeBase& kb() const { return *kb_; }

 private:
  const kb::KnowledgeBase* kb_;
};

/// Test hook: moves the calling thread's motif-counter epoch to `epoch`, so
/// a test can run BuildQueryGraph across the 32-bit stamps' wrap-around.
void SetMotifEpochForTest(uint32_t epoch);

}  // namespace sqe::expansion

#endif  // SQE_SQE_MOTIF_FINDER_H_
