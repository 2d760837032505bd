// The benchmark's workloads and the seeded generator of their inputs.
//
// Each workload fixes its corpus (KB world + document collection, from
// constant seeds, written once per checkout) and derives its query stream
// from the run's --seed (written once per seed). Measurement then runs in a
// fresh process over these files only, so set-up time and peak RSS never
// include generation. See README.md for why each workload exists.
#ifndef SQE_PERFBENCH_WORKLOADS_H_
#define SQE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "inputs.h"
#include "io/file.h"
#include "synth/collection.h"
#include "synth/world.h"

namespace sqe::perfbench {

enum class LoopKind {
  /// One caller thread calls the engine; the next query starts when the
  /// previous returns.
  kEngine,
  /// One caller thread submits each request to a registry-backed
  /// ServingFrontend and polls it until it resolves before the next.
  kServing,
};

/// Hub structure layered over a generated world's KB: every concept adds
/// `links_per_concept` reciprocal links to partners drawn Zipf(zipf_s) by
/// popularity (generation order) within its topic, and each chosen partner
/// joins the concept's categories with probability `p_join_categories`.
/// Popular concepts so collect hundreds of partners and categories, as the
/// high-degree categories and articles of real Wikipedia do.
struct HubOptions {
  size_t links_per_concept = 0;  // 0 keeps the world's KB unchanged
  double zipf_s = 1.0;
  double p_join_categories = 0.5;
  uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  LoopKind loop = LoopKind::kEngine;
  synth::WorldOptions world;
  HubOptions hubs;
  synth::CollectionOptions collection;
  io::LoadMode load_mode = io::LoadMode::kHeap;
  double retrieval_mu = 300.0;
  /// A seed's query list: a judged prefix from a fixed seed, carrying
  /// qrels for `map` / `p_at_10`, then `rounds` rounds of one query per
  /// documented concept.
  size_t judged_queries = 0;
  size_t rounds = 1;
  /// Queries are drawn from concepts [0, query_concept_max) only; a
  /// smaller fixed range makes an engine-loop pass shorter, so a run holds
  /// more passes.
  uint32_t query_concept_max = UINT32_MAX;
  size_t k = 100;

  // ---- serving only ----
  /// One pass: this many requests drawn Zipf(zipf_s) over concepts. Every
  /// pass re-publishes the snapshot files first, then replays the same
  /// requests.
  size_t requests_per_pass = 0;
  double zipf_s = 1.0;
  /// The first requests of a pass, sent while the new epoch's cache is
  /// cold, give the ledger's serving.swap_latency_p99_ms.
  size_t swap_window = 0;
  /// Every request's deadline; an expired or refused request is a failed
  /// operation.
  double latency_limit_ms = 0.0;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& AllWorkloads();
/// Null when `name` is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Writes the corpus files (KB and index snapshots, doc concepts).
Status GenerateCorpus(const WorkloadSpec& spec, const InputPaths& paths);
/// Writes the seed's query list; the corpus must exist.
Status GenerateQueryList(const WorkloadSpec& spec, uint64_t seed,
                         const InputPaths& paths);

}  // namespace sqe::perfbench

#endif  // SQE_PERFBENCH_WORKLOADS_H_
