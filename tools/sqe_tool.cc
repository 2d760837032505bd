// sqe_tool: command-line front end for the SQE library's data pipeline.
//
//   sqe_tool gen-dump <out.dump>              generate a synthetic world and
//                                             write it as dump-lite text
//   sqe_tool compile <in.dump> <out.snap>     parse dump-lite, validate, and
//                                             write a CRC-protected snapshot
//   sqe_tool kb-stats <in.dump|in.snap>       print graph statistics
//   sqe_tool motifs <in.*> <article title>    print the query graph for an
//                                             article (both motifs)
//   sqe_tool batch [num_threads] [--cache] [--shards N]
//                                             expand+retrieve the synthetic
//                                             query set concurrently and
//                                             report throughput (smoke test
//                                             for the batch pipeline); with
//                                             --cache, run the batch twice
//                                             (cold fill + warm replay) and
//                                             print cache counters — both
//                                             digests must match; with
//                                             --shards N, score each query
//                                             across N index shards — the
//                                             digest must equal the
//                                             unsharded run's; with --load
//                                             heap|mapped, round-trip KB +
//                                             index through snapshot files
//                                             and run against the reloaded
//                                             structures — the digest must
//                                             not change; --codec raw|packed
//                                             picks the index snapshot
//                                             version for that round trip
//                                             (v3 raw arrays vs v4
//                                             bit-packed blocks) — the
//                                             digest must not change either
//   sqe_tool index shard-info <S> [index.snap]
//                                             split the index (a snapshot
//                                             file, or the synthetic
//                                             dataset's when omitted) into
//                                             S shards and dump the
//                                             partition: doc ranges,
//                                             per-shard docs/tokens/terms
//                                             and serialized sizes
//   sqe_tool index stats [index.snap]         posting-compression report:
//                                             aggregate raw vs packed
//                                             region bytes, per-block
//                                             doc/freq bit-width
//                                             histograms, the heaviest
//                                             terms' per-term ratios, and
//                                             the SIMD unpack tier in use
//
//   sqe_tool serve-sim [--workers N] [--capacity C] [--deadline-ms D]
//                      [--batch-every K] [--repeat R] [--shards S]
//                      [--swap E]
//                                             replay the synthetic query set
//                                             through the async serving
//                                             front-end and report latency
//                                             percentiles plus the
//                                             admission/expiry accounting
//                                             (completed + expired +
//                                             cancelled + rejected must sum
//                                             to submitted, exit 2 if not);
//                                             with --swap E, serve through a
//                                             SnapshotRegistry and publish E
//                                             additional snapshot epochs
//                                             mid-flight — every response
//                                             must match its pinned epoch's
//                                             bare-engine oracle bit for
//                                             bit, and superseded epochs
//                                             must retire once the
//                                             front-end drains (exit 2 on
//                                             any violation)
//
// Exit codes: 0 success, 1 usage, 2 data error (message on stderr).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cpu_dispatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/postings_codec.h"
#include "index/sharded_index.h"
#include "io/coding.h"
#include "io/file.h"
#include "io/snapshot_format.h"
#include "kb/dump_loader.h"
#include "kb/kb_stats.h"
#include "kb/knowledge_base.h"
#include "retrieval/result.h"
#include "serving/frontend.h"
#include "serving/snapshot_registry.h"
#include "sqe/motif_finder.h"
#include "sqe/sqe_engine.h"
#include "synth/dataset.h"
#include "synth/world.h"

namespace {

using namespace sqe;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

// Loads a KB from either format, dispatching on the snapshot magic the file
// begins with. A damaged snapshot so reports its own load error, such as a
// block CRC mismatch, and is never re-read as dump-lite text.
Result<kb::KnowledgeBase> LoadAny(const std::string& path) {
  auto contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  std::string_view head = contents.value();
  uint32_t magic = 0;
  if (io::GetFixed32(&head, &magic) && magic == io::kKbSnapshotMagic) {
    return kb::KnowledgeBase::FromSnapshotString(std::move(contents).value());
  }
  return kb::LoadDumpFromString(contents.value());
}

int GenDump(const std::string& out_path) {
  synth::WorldOptions options;
  options.num_topics = 8;
  options.clusters_per_topic = 6;
  synth::World world = synth::World::Generate(options);
  std::string dump = kb::WriteDumpToString(world.kb);
  Status status = io::WriteStringToFile(out_path, dump);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu articles / %zu categories to %s (%zu bytes)\n",
              world.kb.NumArticles(), world.kb.NumCategories(),
              out_path.c_str(), dump.size());
  return 0;
}

int Compile(const std::string& in_path, const std::string& out_path) {
  auto kb = kb::LoadDumpFromFile(in_path);
  if (!kb.ok()) return Fail(kb.status());
  Status status = kb.value().SaveToFile(out_path);
  if (!status.ok()) return Fail(status);
  std::printf("compiled %s -> %s (%zu articles, %zu links)\n",
              in_path.c_str(), out_path.c_str(), kb.value().NumArticles(),
              kb.value().NumArticleLinks());
  return 0;
}

int KbStats(const std::string& path) {
  auto kb = LoadAny(path);
  if (!kb.ok()) return Fail(kb.status());
  std::printf("%s\n", kb::ComputeKbStats(kb.value()).ToString().c_str());
  return 0;
}

int Motifs(const std::string& path, const std::string& title) {
  auto kb_or = LoadAny(path);
  if (!kb_or.ok()) return Fail(kb_or.status());
  const kb::KnowledgeBase& kb = kb_or.value();
  kb::ArticleId article = kb.FindArticle(title);
  if (article == kb::kInvalidArticle) {
    return Fail(Status::NotFound("article '" + title + "'"));
  }
  expansion::MotifFinder finder(&kb);
  std::vector<kb::ArticleId> nodes = {article};
  expansion::QueryGraph graph =
      finder.BuildQueryGraph(nodes, expansion::MotifConfig::Both());
  std::printf("query graph for [%s]: %zu expansion nodes, %llu motifs\n",
              title.c_str(), graph.expansion_nodes.size(),
              static_cast<unsigned long long>(graph.total_motifs));
  for (const expansion::ExpansionNode& node : graph.expansion_nodes) {
    std::printf("  |m_a|=%-3u (T=%u S=%u)  %s\n", node.motif_count,
                node.triangular_count, node.square_count,
                std::string(kb.ArticleTitle(node.article)).c_str());
  }
  return 0;
}

// Scheduling-independent digest of a batch's rankings: runs at different
// thread counts (or cached vs uncached) can be diffed for the determinism
// guarantee.
uint64_t RankingDigest(const std::vector<expansion::SqeRunResult>& results,
                       size_t* total_results) {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a
  *total_results = 0;
  for (const expansion::SqeRunResult& r : results) {
    for (const retrieval::ScoredDoc& sd : r.results) {
      digest = (digest ^ sd.doc) * 1099511628211ull;
      ++*total_results;
    }
  }
  return digest;
}

// How `batch` obtains its KB + index: straight from the builder, or round-
// tripped through a v3 snapshot file and loaded back in the given mode. CI
// diffs the digests across all three — the load path must be invisible to
// ranking.
enum class BatchLoad { kDirect, kHeap, kMapped };

int Batch(size_t num_threads, bool with_cache, size_t num_shards,
          bool with_prune, BatchLoad load, uint32_t index_version) {
  synth::World world = synth::World::Generate(synth::TinyWorldOptions());
  synth::Dataset dataset =
      synth::BuildDataset(world, synth::TinyDatasetSpec());

  const kb::KnowledgeBase* kb = &world.kb;
  const index::InvertedIndex* index = &dataset.index;
  kb::KnowledgeBase loaded_kb;
  index::InvertedIndex loaded_index;
  if (load != BatchLoad::kDirect) {
    const io::LoadMode mode = load == BatchLoad::kMapped
                                  ? io::LoadMode::kZeroCopy
                                  : io::LoadMode::kHeap;
    const std::string kb_path = StrFormat("/tmp/sqe_tool_batch_%d_kb.snap",
                                          static_cast<int>(::getpid()));
    const std::string index_path = StrFormat(
        "/tmp/sqe_tool_batch_%d_index.snap", static_cast<int>(::getpid()));
    Status saved = world.kb.SaveToFile(kb_path);
    if (saved.ok()) saved = dataset.index.SaveToFile(index_path, index_version);
    if (!saved.ok()) return Fail(saved);
    auto kb_or = kb::KnowledgeBase::FromSnapshotFile(kb_path, mode);
    auto index_or = index::InvertedIndex::FromSnapshotFile(index_path, mode);
    std::remove(kb_path.c_str());
    std::remove(index_path.c_str());
    if (!kb_or.ok()) return Fail(kb_or.status());
    if (!index_or.ok()) return Fail(index_or.status());
    loaded_kb = std::move(kb_or).value();
    loaded_index = std::move(index_or).value();
    kb = &loaded_kb;
    index = &loaded_index;
  }

  expansion::SqeEngineConfig config;
  config.retriever.mu = dataset.retrieval_mu;
  config.cache.enabled = with_cache;
  config.sharding.num_shards = num_shards;
  config.pruning.enabled = with_prune;
  expansion::SqeEngine engine(kb, index, dataset.linker.get(),
                              &dataset.analyzer(), config);

  std::vector<expansion::BatchQueryInput> batch;
  for (const synth::GeneratedQuery& q : dataset.query_set.queries) {
    batch.push_back({q.text, q.true_entities});
  }

  ThreadPool pool(num_threads);
  // With caching on, run the batch twice: pass 1 fills (cold), pass 2 is
  // served from the cache (warm). Digests must match — the cache contract is
  // bit-identical output.
  const int passes = with_cache ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    Timer timer;
    std::vector<expansion::SqeRunResult> results =
        engine.RunBatch(batch, expansion::MotifConfig::Both(), 100, &pool);
    double seconds = timer.ElapsedSeconds();
    size_t total_results = 0;
    uint64_t digest = RankingDigest(results, &total_results);
    const char* load_tag = load == BatchLoad::kDirect
                               ? ""
                               : (load == BatchLoad::kMapped ? " [mapped]"
                                                             : " [heap]");
    const char* codec_tag =
        load == BatchLoad::kDirect
            ? ""
            : (index_version >= io::kPackedPostingsSnapshotVersion
                   ? " [packed]"
                   : " [raw]");
    std::printf("batch%s%s%s: %zu queries, %zu threads, %zu shards, %.3f s "
                "(%.1f q/s), %zu results, digest %016llx\n",
                load_tag, codec_tag,
                with_cache ? (pass == 0 ? " [cold]" : " [warm]") : "",
                results.size(), num_threads, engine.num_shards(), seconds,
                static_cast<double>(results.size()) / seconds, total_results,
                static_cast<unsigned long long>(digest));
  }
  if (with_cache) {
    std::printf("%s\n", engine.cache_stats().ToString().c_str());
  }
  if (engine.sharded()) {
    std::printf("%s\n", engine.router_stats().ToString().c_str());
  }
  if (engine.pruning_enabled()) {
    std::printf("%s\n", engine.wand_stats().ToString().c_str());
  }
  return 0;
}

// Nearest-rank percentile over a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

// Replays the synthetic query set through the serving front-end at real
// (system-clock) speed: every batch_every-th request rides the batch lane,
// each request gets deadline_ms of budget (0 = no deadline). The exercise
// is the accounting contract — every submitted request resolves exactly
// once and the status counters sum back to submitted.
int ServeSim(size_t workers, size_t capacity, double deadline_ms,
             size_t batch_every, size_t repeat, size_t num_shards,
             bool with_prune) {
  synth::World world = synth::World::Generate(synth::TinyWorldOptions());
  synth::Dataset dataset =
      synth::BuildDataset(world, synth::TinyDatasetSpec());
  expansion::SqeEngineConfig config;
  config.retriever.mu = dataset.retrieval_mu;
  config.sharding.num_shards = num_shards;
  config.pruning.enabled = with_prune;
  expansion::SqeEngine engine(&world.kb, &dataset.index, dataset.linker.get(),
                              &dataset.analyzer(), config);

  serving::ServingFrontendConfig frontend_config;
  frontend_config.num_workers = workers;
  frontend_config.queue_capacity = capacity;
  serving::ServingFrontend frontend(&engine, frontend_config);
  const Clock& clock = *Clock::System();

  std::vector<std::shared_ptr<serving::ServingCall>> calls;
  for (size_t r = 0; r < repeat; ++r) {
    for (size_t i = 0; i < dataset.query_set.queries.size(); ++i) {
      const synth::GeneratedQuery& q = dataset.query_set.queries[i];
      serving::ServingRequest request;
      request.text = q.text;
      request.query_nodes = q.true_entities;
      request.k = 100;
      request.priority = (batch_every > 0 && (i % batch_every) == 0)
                             ? serving::RequestPriority::kBatch
                             : serving::RequestPriority::kInteractive;
      if (deadline_ms > 0.0) {
        request.deadline = serving::Deadline::After(
            clock, std::chrono::duration_cast<Clock::Duration>(
                       std::chrono::duration<double, std::milli>(deadline_ms)));
      }
      calls.push_back(frontend.Submit(std::move(request)));
    }
  }

  std::vector<double> completed_ms;
  for (const std::shared_ptr<serving::ServingCall>& call : calls) {
    const serving::ServingResponse& response = call->Wait();
    if (response.status.ok()) completed_ms.push_back(response.total_ms);
  }
  frontend.Shutdown();
  std::sort(completed_ms.begin(), completed_ms.end());

  serving::ServingStats stats = frontend.Stats();
  std::printf("serve-sim: %zu workers, capacity %zu, %zu shards, "
              "deadline %.1f ms\n",
              frontend.num_workers(), frontend.queue_capacity(),
              engine.num_shards(), deadline_ms);
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("completed latency: p50 %.3f ms  p95 %.3f ms  (n=%zu)\n",
              Percentile(completed_ms, 0.50), Percentile(completed_ms, 0.95),
              completed_ms.size());
  if (engine.pruning_enabled()) {
    std::printf("%s\n", engine.wand_stats().ToString().c_str());
  }

  if (stats.submitted != calls.size() ||
      stats.resolved() != stats.submitted) {
    std::fprintf(stderr,
                 "error: accounting mismatch: submitted=%llu resolved=%llu "
                 "calls=%zu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.resolved()),
                 calls.size());
    return 2;
  }
  for (const std::shared_ptr<serving::ServingCall>& call : calls) {
    if (!call->resolved()) {
      std::fprintf(stderr, "error: call %llu never resolved\n",
                   static_cast<unsigned long long>(call->id()));
      return 2;
    }
  }
  return 0;
}

// serve-sim --swap: replay the query set through a registry-backed
// front-end while publishing `swaps` new snapshot epochs mid-flight, then
// verify the hot-swap contract end to end:
//   * every OK response carries the epoch pinned at admission, and its
//     ranking (doc ids AND score bits) equals a bare engine run over that
//     epoch's configuration — zero mixed-epoch responses;
//   * the serving accounting identity closes across the swaps;
//   * once the front-end drains, every superseded epoch has retired
//     (live_epochs == 1: only the registry's current pointer remains).
// Each epoch round-trips KB + index through real snapshot files via
// SnapshotLoader (validate + load path included) and scales the retriever's
// smoothing so different epochs produce provably different score bits —
// any cross-epoch mixup fails the oracle comparison. Exit 2 on violation.
int ServeSimSwap(size_t workers, size_t capacity, double deadline_ms,
                 size_t batch_every, size_t repeat, size_t num_shards,
                 bool with_prune, size_t swaps) {
  synth::World world = synth::World::Generate(synth::TinyWorldOptions());
  synth::Dataset dataset =
      synth::BuildDataset(world, synth::TinyDatasetSpec());
  const size_t num_epochs = swaps + 1;

  const std::string kb_path = StrFormat("/tmp/sqe_tool_swap_%d_kb.snap",
                                        static_cast<int>(::getpid()));
  const std::string index_path = StrFormat(
      "/tmp/sqe_tool_swap_%d_index.snap", static_cast<int>(::getpid()));
  Status saved = world.kb.SaveToFile(kb_path);
  if (saved.ok()) saved = dataset.index.SaveToFile(index_path);
  if (!saved.ok()) return Fail(saved);

  auto epoch_config = [&](size_t epoch_index) {
    expansion::SqeEngineConfig config;
    // Distinguishable epochs over the same corpus: scale the Dirichlet
    // smoothing so every epoch's score bits differ. A response matched
    // against the wrong epoch's oracle cannot pass.
    config.retriever.mu = dataset.retrieval_mu * (1.0 + 0.25 * epoch_index);
    config.sharding.num_shards = num_shards;
    config.pruning.enabled = with_prune;
    return config;
  };

  // Per-(epoch, query) oracle from bare engines over the same corpus. The
  // load-mode determinism gate proves snapshot round-trips don't move a
  // bit, so direct KB/index here equals the loader's reloaded copies.
  std::vector<std::vector<retrieval::ResultList>> oracle(num_epochs);
  for (size_t e = 0; e < num_epochs; ++e) {
    expansion::SqeEngine bare(&world.kb, &dataset.index, dataset.linker.get(),
                              &dataset.analyzer(), epoch_config(e));
    for (const synth::GeneratedQuery& q : dataset.query_set.queries) {
      oracle[e].push_back(
          bare.RunSqe(q.text, q.true_entities, expansion::MotifConfig::Both(),
                      100)
              .results);
    }
  }

  serving::SnapshotRegistryOptions registry_options;
  registry_options.shared_cache.enabled = true;  // epoch-keyed, spans swaps
  serving::SnapshotRegistry registry(registry_options);
  serving::SnapshotLoader loader(&registry);

  serving::ServingFrontendConfig frontend_config;
  frontend_config.num_workers = workers;
  frontend_config.queue_capacity = capacity;
  serving::ServingFrontend frontend(&registry, frontend_config);
  const Clock& clock = *Clock::System();

  // Interleave publishes with submission chunks: epoch e+1 is published,
  // then chunk e is submitted while earlier chunks may still be queued or
  // executing — the swap lands under fire.
  const size_t num_queries = dataset.query_set.queries.size();
  const size_t total = repeat * num_queries;
  const size_t chunk = (total + num_epochs - 1) / num_epochs;
  std::vector<std::shared_ptr<serving::ServingCall>> calls;
  std::vector<uint64_t> expected_epoch;  // pinned epoch by submission order
  std::vector<double> swap_ms;
  size_t submitted = 0;
  for (size_t e = 0; e < num_epochs; ++e) {
    serving::SnapshotLoader::Job job;
    job.kb_path = kb_path;
    job.index_path = index_path;
    job.engine_config = epoch_config(e);
    Timer swap_timer;
    Result<uint64_t> published = loader.LoadAndPublish(job);
    swap_ms.push_back(swap_timer.ElapsedMillis());
    if (!published.ok()) return Fail(published.status());
    const uint64_t epoch = published.value();
    for (size_t j = 0; j < chunk && submitted < total; ++j, ++submitted) {
      const size_t qi = submitted % num_queries;
      const synth::GeneratedQuery& q = dataset.query_set.queries[qi];
      serving::ServingRequest request;
      request.text = q.text;
      request.query_nodes = q.true_entities;
      request.k = 100;
      request.priority = (batch_every > 0 && (submitted % batch_every) == 0)
                             ? serving::RequestPriority::kBatch
                             : serving::RequestPriority::kInteractive;
      if (deadline_ms > 0.0) {
        request.deadline = serving::Deadline::After(
            clock, std::chrono::duration_cast<Clock::Duration>(
                       std::chrono::duration<double, std::milli>(deadline_ms)));
      }
      calls.push_back(frontend.Submit(std::move(request)));
      expected_epoch.push_back(epoch);
    }
  }

  size_t mixed = 0, mismatched = 0;
  std::vector<size_t> per_epoch_ok(num_epochs + 1, 0);
  std::vector<double> completed_ms;
  for (size_t i = 0; i < calls.size(); ++i) {
    const serving::ServingResponse& response = calls[i]->Wait();
    if (!response.status.ok()) continue;
    completed_ms.push_back(response.total_ms);
    if (response.epoch != expected_epoch[i]) {
      ++mixed;
      continue;
    }
    per_epoch_ok[response.epoch] += 1;
    const retrieval::ResultList& want =
        oracle[response.epoch - 1][i % num_queries];
    const retrieval::ResultList& got = response.result.results;
    bool equal = want.size() == got.size();
    for (size_t r = 0; equal && r < want.size(); ++r) {
      equal = want[r].doc == got[r].doc && want[r].score == got[r].score;
    }
    if (!equal) ++mismatched;
  }
  frontend.Shutdown();
  std::remove(kb_path.c_str());
  std::remove(index_path.c_str());
  std::sort(completed_ms.begin(), completed_ms.end());

  serving::ServingStats stats = frontend.Stats();
  serving::SnapshotRegistryStats registry_stats = registry.Stats();
  std::printf("serve-sim --swap: %zu workers, capacity %zu, %zu shards, "
              "%zu epochs over %zu requests\n",
              frontend.num_workers(), frontend.queue_capacity(), num_shards,
              num_epochs, calls.size());
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("registry: published=%llu retired=%llu live=%llu acquires=%llu "
              "current epoch %llu\n",
              static_cast<unsigned long long>(registry_stats.published),
              static_cast<unsigned long long>(registry_stats.retired),
              static_cast<unsigned long long>(registry_stats.live_epochs()),
              static_cast<unsigned long long>(registry_stats.acquires),
              static_cast<unsigned long long>(registry_stats.current_epoch));
  for (size_t e = 1; e <= num_epochs; ++e) {
    std::printf("  epoch %zu: %zu ok responses, publish %.3f ms\n", e,
                per_epoch_ok[e], swap_ms[e - 1]);
  }
  std::printf("completed latency: p50 %.3f ms  p95 %.3f ms  (n=%zu)\n",
              Percentile(completed_ms, 0.50), Percentile(completed_ms, 0.95),
              completed_ms.size());
  if (const expansion::SqeCache* cache = registry.shared_cache()) {
    std::printf("shared cache %s\n", cache->Stats().ToString().c_str());
  }

  if (mixed > 0 || mismatched > 0) {
    std::fprintf(stderr,
                 "error: %zu mixed-epoch and %zu oracle-mismatched "
                 "responses\n",
                 mixed, mismatched);
    return 2;
  }
  if (stats.submitted != calls.size() ||
      stats.resolved() != stats.submitted) {
    std::fprintf(stderr,
                 "error: accounting mismatch: submitted=%llu resolved=%llu "
                 "calls=%zu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.resolved()),
                 calls.size());
    return 2;
  }
  for (const std::shared_ptr<serving::ServingCall>& call : calls) {
    if (!call->resolved()) {
      std::fprintf(stderr, "error: call %llu never resolved\n",
                   static_cast<unsigned long long>(call->id()));
      return 2;
    }
  }
  // Deferred retirement closed: the front-end drained, so every lease is
  // back and only the registry's current pointer keeps an epoch alive.
  if (registry_stats.published != num_epochs ||
      registry_stats.live_epochs() != 1) {
    std::fprintf(stderr,
                 "error: retirement mismatch: published=%llu retired=%llu\n",
                 static_cast<unsigned long long>(registry_stats.published),
                 static_cast<unsigned long long>(registry_stats.retired));
    return 2;
  }
  return 0;
}

// Splits an index into S shards and dumps the partition: the manifest's doc
// ranges plus per-shard document/token/term counts and serialized snapshot
// sizes — the debugging view for "who owns which document".
int IndexShardInfo(size_t num_shards, const char* snapshot_path) {
  index::InvertedIndex loaded;
  const index::InvertedIndex* full = nullptr;
  synth::World world;  // keeps the synthetic dataset alive when used
  synth::Dataset dataset;
  if (snapshot_path != nullptr) {
    auto index_or = index::InvertedIndex::FromSnapshotFile(snapshot_path);
    if (!index_or.ok()) return Fail(index_or.status());
    loaded = std::move(index_or).value();
    full = &loaded;
  } else {
    world = synth::World::Generate(synth::TinyWorldOptions());
    dataset = synth::BuildDataset(world, synth::TinyDatasetSpec());
    full = &dataset.index;
  }

  index::ShardedIndex sharded = index::ShardedIndex::Split(*full, num_shards);
  Status valid = sharded.Validate();
  if (!valid.ok()) return Fail(valid);

  const index::ShardManifest& manifest = sharded.manifest();
  std::printf("index shard-info: %zu documents, %llu tokens, %zu shards\n",
              full->NumDocuments(),
              static_cast<unsigned long long>(full->TotalTokens()),
              sharded.num_shards());
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const index::InvertedIndex& shard = sharded.shard(s);
    std::printf("  shard %-3zu docs [%u, %u)  %6zu docs  %8llu tokens  "
                "%6zu terms  %9zu snapshot bytes\n",
                s, (unsigned)manifest.shard_begin(s),
                (unsigned)manifest.shard_end(s), shard.NumDocuments(),
                static_cast<unsigned long long>(shard.TotalTokens()),
                shard.vocabulary().size(),
                shard.SerializeToString().size());
  }
  std::printf("manifest: %zu bytes, validation OK\n",
              manifest.SerializeToString().size());
  return 0;
}

// Bytes one term's postings occupy in the v4 packed region (blob + the
// per-block offset and position-base tables). Raw-mode lists are encoded
// block by block into scratch, mirroring what serialization would emit.
uint64_t TermPackedBytes(const index::PostingList& pl) {
  const uint64_t tables =
      static_cast<uint64_t>(pl.NumBlocks()) * (sizeof(uint32_t) +
                                               sizeof(uint64_t));
  if (pl.packed()) return pl.packed_bytes().size() + tables;
  std::vector<index::DocId> docs;
  std::vector<uint32_t> freqs;
  pl.Materialize(&docs, &freqs);
  std::string scratch;
  for (size_t b = 0; b < pl.NumBlocks(); ++b) {
    const size_t begin = b * index::PostingList::kBlockSize;
    index::codec::EncodeBlock(docs.data() + begin, freqs.data() + begin,
                              pl.BlockLength(b),
                              b == 0 ? 0 : docs[begin - 1] + 1, &scratch);
  }
  return scratch.size() + tables;
}

// Bytes the same term occupies in the v3 raw region (docs + freqs +
// pos_offsets arrays).
uint64_t TermRawBytes(const index::PostingList& pl) {
  const uint64_t n = pl.NumDocs();
  return n * (sizeof(uint32_t) + sizeof(uint32_t)) +
         (n + 1) * sizeof(uint64_t);
}

int IndexStats(const char* snapshot_path) {
  index::InvertedIndex loaded;
  const index::InvertedIndex* full = nullptr;
  synth::World world;
  synth::Dataset dataset;
  if (snapshot_path != nullptr) {
    auto index_or = index::InvertedIndex::FromSnapshotFile(snapshot_path);
    if (!index_or.ok()) return Fail(index_or.status());
    loaded = std::move(index_or).value();
    full = &loaded;
  } else {
    world = synth::World::Generate(synth::TinyWorldOptions());
    dataset = synth::BuildDataset(world, synth::TinyDatasetSpec());
    full = &dataset.index;
  }

  const index::InvertedIndex::PostingsStats stats =
      full->ComputePostingsStats();
  std::printf("index stats: %zu documents, %zu terms, %llu postings, "
              "%llu blocks, simd %s (hardware %s)\n",
              full->NumDocuments(), full->vocabulary().size(),
              static_cast<unsigned long long>(stats.num_postings),
              static_cast<unsigned long long>(stats.num_blocks),
              SimdLevelName(DetectSimdLevel()),
              SimdLevelName(HardwareSimdLevel()));
  const double ratio =
      stats.raw_bytes > 0 ? static_cast<double>(stats.packed_bytes) /
                                static_cast<double>(stats.raw_bytes)
                          : 0.0;
  std::printf("postings region: raw %llu bytes, packed %llu bytes "
              "(ratio %.3f, %.2f bits/posting packed)\n",
              static_cast<unsigned long long>(stats.raw_bytes),
              static_cast<unsigned long long>(stats.packed_bytes), ratio,
              stats.num_postings > 0
                  ? 8.0 * static_cast<double>(stats.packed_bytes) /
                        static_cast<double>(stats.num_postings)
                  : 0.0);
  for (const auto& [label, hist] :
       {std::pair<const char*, const uint64_t*>{"doc bits ",
                                                stats.doc_bits_blocks},
        {"freq bits", stats.freq_bits_blocks}}) {
    std::printf("%s:", label);
    for (int w = 0; w <= 32; ++w) {
      if (hist[w] == 0) continue;
      std::printf("  %d:%llu", w, static_cast<unsigned long long>(hist[w]));
    }
    std::printf("  (width:blocks)\n");
  }

  // The heaviest posting lists, with their individual ratios: where the
  // bytes actually live.
  std::vector<text::TermId> terms(full->vocabulary().size());
  for (size_t t = 0; t < terms.size(); ++t) {
    terms[t] = static_cast<text::TermId>(t);
  }
  std::sort(terms.begin(), terms.end(),
            [&](text::TermId a, text::TermId b) {
              return full->Postings(a).NumDocs() > full->Postings(b).NumDocs();
            });
  const size_t top = std::min<size_t>(terms.size(), 8);
  for (size_t i = 0; i < top; ++i) {
    const index::PostingList& pl = full->Postings(terms[i]);
    if (pl.NumDocs() == 0) break;
    const uint64_t raw = TermRawBytes(pl);
    const uint64_t packed = TermPackedBytes(pl);
    std::printf("  %-24s %7zu postings  %9llu raw  %9llu packed  (%.3f)\n",
                std::string(full->vocabulary().TermOf(terms[i])).c_str(),
                pl.NumDocs(), static_cast<unsigned long long>(raw),
                static_cast<unsigned long long>(packed),
                static_cast<double>(packed) / static_cast<double>(raw));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sqe_tool gen-dump <out.dump>\n"
               "  sqe_tool compile <in.dump> <out.snap>\n"
               "  sqe_tool kb-stats <in.dump|in.snap>\n"
               "  sqe_tool motifs <in.dump|in.snap> <article title>\n"
               "  sqe_tool batch [num_threads] [--cache] [--shards N] "
               "[--prune]\n"
               "                 [--load heap|mapped] [--codec raw|packed]\n"
               "  sqe_tool serve-sim [--workers N] [--capacity C] "
               "[--deadline-ms D]\n"
               "                     [--batch-every K] [--repeat R] "
               "[--shards S] [--prune]\n"
               "                     [--swap E]\n"
               "  sqe_tool index shard-info <num_shards> [index.snap]\n"
               "  sqe_tool index stats [index.snap]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "batch") {
    size_t threads = ThreadPool::HardwareConcurrency();
    bool with_cache = false;
    bool with_prune = false;
    size_t shards = 1;
    BatchLoad load = BatchLoad::kDirect;
    uint32_t index_version = io::kIndexSnapshotVersion;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--cache") == 0) {
        with_cache = true;
        continue;
      }
      if (std::strcmp(argv[i], "--prune") == 0) {
        with_prune = true;
        continue;
      }
      if (std::strcmp(argv[i], "--codec") == 0) {
        const char* value = (i + 1 < argc) ? argv[i + 1] : "";
        if (std::strcmp(value, "raw") == 0) {
          index_version = io::kAlignedSnapshotVersion;
        } else if (std::strcmp(value, "packed") == 0) {
          index_version = io::kIndexSnapshotVersion;
        } else {
          std::fprintf(stderr, "error: --codec needs 'raw' or 'packed'\n");
          return 1;
        }
        ++i;
        continue;
      }
      if (std::strcmp(argv[i], "--load") == 0) {
        const char* value = (i + 1 < argc) ? argv[i + 1] : "";
        if (std::strcmp(value, "heap") == 0) {
          load = BatchLoad::kHeap;
        } else if (std::strcmp(value, "mapped") == 0) {
          load = BatchLoad::kMapped;
        } else {
          std::fprintf(stderr, "error: --load needs 'heap' or 'mapped'\n");
          return 1;
        }
        ++i;
        continue;
      }
      if (std::strcmp(argv[i], "--shards") == 0) {
        char* end = nullptr;
        long parsed =
            (i + 1 < argc) ? std::strtol(argv[i + 1], &end, 10) : 0;
        if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
            parsed < 1 || parsed > 4096) {
          std::fprintf(stderr,
                       "error: --shards needs an integer in [1, 4096]\n");
          return 1;
        }
        shards = static_cast<size_t>(parsed);
        ++i;
        continue;
      }
      char* end = nullptr;
      long parsed = std::strtol(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || parsed < 0 || parsed > 1024) {
        std::fprintf(stderr,
                     "error: num_threads must be an integer in [0, 1024], "
                     "got '%s'\n",
                     argv[i]);
        return 1;
      }
      threads = static_cast<size_t>(parsed);
    }
    return Batch(threads, with_cache, shards, with_prune, load,
                 index_version);
  }
  if (command == "serve-sim") {
    size_t workers = 2;
    size_t capacity = 64;
    double deadline_ms = 0.0;
    size_t batch_every = 4;
    size_t repeat = 1;
    size_t shards = 1;
    bool with_prune = false;
    size_t swaps = 0;
    auto parse_size = [&](const char* flag, int* i, size_t lo, size_t hi,
                          size_t* out) {
      char* end = nullptr;
      long parsed =
          (*i + 1 < argc) ? std::strtol(argv[*i + 1], &end, 10) : -1;
      if (*i + 1 >= argc || end == argv[*i + 1] || *end != '\0' ||
          parsed < static_cast<long>(lo) || parsed > static_cast<long>(hi)) {
        std::fprintf(stderr, "error: %s needs an integer in [%zu, %zu]\n",
                     flag, lo, hi);
        return false;
      }
      *out = static_cast<size_t>(parsed);
      ++*i;
      return true;
    };
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--workers") == 0) {
        if (!parse_size("--workers", &i, 1, 256, &workers)) return 1;
      } else if (std::strcmp(argv[i], "--capacity") == 0) {
        if (!parse_size("--capacity", &i, 1, 1 << 20, &capacity)) return 1;
      } else if (std::strcmp(argv[i], "--batch-every") == 0) {
        if (!parse_size("--batch-every", &i, 0, 1 << 20, &batch_every)) {
          return 1;
        }
      } else if (std::strcmp(argv[i], "--repeat") == 0) {
        if (!parse_size("--repeat", &i, 1, 4096, &repeat)) return 1;
      } else if (std::strcmp(argv[i], "--shards") == 0) {
        if (!parse_size("--shards", &i, 1, 4096, &shards)) return 1;
      } else if (std::strcmp(argv[i], "--swap") == 0) {
        if (!parse_size("--swap", &i, 1, 64, &swaps)) return 1;
      } else if (std::strcmp(argv[i], "--prune") == 0) {
        with_prune = true;
      } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
        char* end = nullptr;
        double parsed =
            (i + 1 < argc) ? std::strtod(argv[i + 1], &end) : -1.0;
        if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
            parsed < 0.0) {
          std::fprintf(stderr,
                       "error: --deadline-ms needs a number >= 0\n");
          return 1;
        }
        deadline_ms = parsed;
        ++i;
      } else {
        return Usage();
      }
    }
    if (swaps > 0) {
      return ServeSimSwap(workers, capacity, deadline_ms, batch_every,
                          repeat, shards, with_prune, swaps);
    }
    return ServeSim(workers, capacity, deadline_ms, batch_every, repeat,
                    shards, with_prune);
  }
  if (command == "index" && argc >= 4 &&
      std::strcmp(argv[2], "shard-info") == 0) {
    char* end = nullptr;
    long parsed = std::strtol(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0' || parsed < 1 || parsed > 4096) {
      std::fprintf(stderr,
                   "error: num_shards must be an integer in [1, 4096], "
                   "got '%s'\n",
                   argv[3]);
      return 1;
    }
    return IndexShardInfo(static_cast<size_t>(parsed),
                          argc >= 5 ? argv[4] : nullptr);
  }
  if (command == "index" && argc >= 3 &&
      std::strcmp(argv[2], "stats") == 0) {
    return IndexStats(argc >= 4 ? argv[3] : nullptr);
  }
  if (argc < 3) return Usage();
  if (command == "gen-dump") return GenDump(argv[2]);
  if (command == "compile" && argc >= 4) return Compile(argv[2], argv[3]);
  if (command == "kb-stats") return KbStats(argv[2]);
  if (command == "motifs" && argc >= 4) return Motifs(argv[2], argv[3]);
  return Usage();
}
