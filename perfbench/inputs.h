// On-disk inputs of one workload: the corpus files written once (KB and
// index snapshots plus each document's primary concept) and the query list
// with qrels written once per seed. The measuring process reads only these.
#ifndef SQE_PERFBENCH_INPUTS_H_
#define SQE_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/types.h"
#include "kb/types.h"

namespace sqe::perfbench {

struct QueryRecord {
  std::string text;
  /// Manually selected query nodes (the intent concept's article); the
  /// serving workload submits them, the engine loops link automatically.
  std::vector<kb::ArticleId> nodes;
  /// Relevant DocIds; only the evaluation prefix of a query list carries
  /// qrels (`judged`).
  bool judged = false;
  std::vector<index::DocId> relevant;
};

/// Paths of one workload's inputs under its data directory.
struct InputPaths {
  std::string dir;
  std::string kb() const { return dir + "/kb.snap"; }
  std::string index() const { return dir + "/index.snap"; }
  std::string doc_concepts() const { return dir + "/doc_concepts.bin"; }
  std::string corpus_done() const { return dir + "/corpus.done"; }
  std::string queries(uint64_t seed) const {
    return dir + "/queries-" + std::to_string(seed) + ".tsv";
  }
};

/// One line per query: text TAB nodes TAB judged TAB relevant, lists
/// space-separated. Written atomically.
Status WriteQueries(const std::string& path,
                    const std::vector<QueryRecord>& queries);
Result<std::vector<QueryRecord>> ReadQueries(const std::string& path);

/// Primary concept of every document, as little-endian u32.
Status WriteDocConcepts(const std::string& path,
                        const std::vector<uint32_t>& concepts);
Result<std::vector<uint32_t>> ReadDocConcepts(const std::string& path);

}  // namespace sqe::perfbench

#endif  // SQE_PERFBENCH_INPUTS_H_
