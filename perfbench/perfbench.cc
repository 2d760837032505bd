// perfbench: the generator and the measuring process of the end-to-end
// benchmark. run.py drives it; each step runs in its own process.
//
//   perfbench gen-corpus  --workload W --data DIR
//   perfbench gen-queries --workload W --seed S --data DIR
//   perfbench run         --workload W --seed S --data DIR --seconds N
//                         --trace 0|1 [--setup-only] [--spans FILE]
//   perfbench describe    --workload W --data DIR [--seed S]
//
// `run` prints a report, then one JSON result line (ledger.h ResultJson).
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// decomposes each request into spans around the public calls of each layer
// and reports the per-layer ledger instead.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "entity/entity_linker.h"
#include "entity/surface_forms.h"
#include "eval/metrics.h"
#include "index/inverted_index.h"
#include "inputs.h"
#include "io/file.h"
#include "io/mmap_file.h"
#include "kb/knowledge_base.h"
#include "ledger.h"
#include "serving/frontend.h"
#include "serving/snapshot_registry.h"
#include "sqe/sqe_engine.h"
#include "text/analyzer.h"
#include "workloads.h"

namespace sqe::perfbench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  std::string data;
  std::string spans;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--data") {
      args->data = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data.empty() &&
         args->seconds > 0.0;
}

expansion::SqeEngineConfig DefaultConfig(const WorkloadSpec& spec) {
  expansion::SqeEngineConfig config;
  config.retriever.mu = spec.retrieval_mu;
  return config;
}

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Opens a span on construction and closes it on destruction; a no-op
/// without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent,
             uint64_t request)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, request)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

void PrintFailures(const OutputCheck& check) {
  for (const std::string& m : check.messages()) {
    std::printf("  FAILED: %s\n", m.c_str());
  }
}

// ---- set-up ------------------------------------------------------------------

/// Everything an engine-loop query needs, loaded from the workload's files.
struct ClosedSetup {
  std::unique_ptr<kb::KnowledgeBase> kb;
  std::unique_ptr<index::InvertedIndex> index;
  std::unique_ptr<text::Analyzer> analyzer;
  std::unique_ptr<entity::SurfaceFormDictionary> forms;
  std::unique_ptr<entity::EntityLinker> linker;
  std::unique_ptr<expansion::SqeEngine> engine;
};

/// Times a raw read (heap mode) or map (zero-copy mode) of `path`: the
/// share of the matching FromSnapshotFile spent on I/O.
Status TraceRead(const std::string& path, io::LoadMode mode,
                 SpanRecorder* trace, int64_t parent) {
  ScopedSpan span(trace, "io.read", parent, 0);
  if (mode == io::LoadMode::kZeroCopy) {
    return io::MappedFile::Open(path).status();
  }
  return io::ReadFileToString(path).status();
}

/// Loads the snapshots and builds linker and engine. With a recorder, each
/// public call becomes a span under one "setup" root, and the snapshots are
/// additionally read raw and re-validated so the ledger can split loading
/// into I/O, decode and validation.
Result<ClosedSetup> SetUpClosed(const WorkloadSpec& spec,
                                const InputPaths& paths, SpanRecorder* trace) {
  ScopedSpan root(trace, "setup", -1, 0);
  ClosedSetup s;
  if (trace != nullptr) {
    Status st = TraceRead(paths.kb(), spec.load_mode, trace, root.id());
    if (!st.ok()) return st;
  }
  {
    ScopedSpan span(trace, "kb.load", root.id(), 0);
    Result<kb::KnowledgeBase> kb =
        kb::KnowledgeBase::FromSnapshotFile(paths.kb(), spec.load_mode);
    if (!kb.ok()) return std::move(kb).status();
    s.kb = std::make_unique<kb::KnowledgeBase>(std::move(kb).value());
  }
  if (trace != nullptr) {
    ScopedSpan span(trace, "kb.validate", root.id(), 0);
    Status st = s.kb->Validate();
    if (!st.ok()) return st;
  }
  if (trace != nullptr) {
    Status st = TraceRead(paths.index(), spec.load_mode, trace, root.id());
    if (!st.ok()) return st;
  }
  {
    ScopedSpan span(trace, "index.load", root.id(), 0);
    Result<index::InvertedIndex> index =
        index::InvertedIndex::FromSnapshotFile(paths.index(), spec.load_mode);
    if (!index.ok()) return std::move(index).status();
    s.index = std::make_unique<index::InvertedIndex>(std::move(index).value());
  }
  if (trace != nullptr) {
    ScopedSpan span(trace, "index.validate", root.id(), 0);
    Status st = s.index->Validate();
    if (!st.ok()) return st;
  }
  {
    ScopedSpan span(trace, "entity.linker_build", root.id(), 0);
    s.analyzer = std::make_unique<text::Analyzer>();
    s.forms = std::make_unique<entity::SurfaceFormDictionary>(
        entity::SurfaceFormDictionary::FromKbTitles(*s.kb, *s.analyzer));
    s.forms->Finalize();
    s.linker =
        std::make_unique<entity::EntityLinker>(s.forms.get(), s.analyzer.get());
  }
  {
    ScopedSpan span(trace, "sqe.engine_build", root.id(), 0);
    s.engine = std::make_unique<expansion::SqeEngine>(
        s.kb.get(), s.index.get(), s.linker.get(), s.analyzer.get(),
        DefaultConfig(spec));
  }
  return s;
}

// ---- output check and quality -------------------------------------------------

struct Quality {
  double map = 0.0;
  double p_at_10 = 0.0;
  size_t judged = 0;
};

/// The untimed reference pass: plain RunSqe on a fresh default engine over
/// every measured query and the judged prefix. `link` selects automatic
/// query-node selection (the engine loops) over the stored manual nodes.
Quality ReferencePass(const expansion::SqeEngine& reference,
                      const std::vector<QueryRecord>& queries, bool link,
                      size_t k, OutputCheck* check) {
  std::vector<size_t> ids = check->MeasuredIds();
  for (size_t i = 0; i < queries.size() && queries[i].judged; ++i) {
    ids.push_back(i);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  Quality quality;
  double ap_sum = 0.0;
  double p10_sum = 0.0;
  for (size_t id : ids) {
    const QueryRecord& q = queries[id];
    const std::vector<kb::ArticleId> nodes =
        link ? reference.LinkQueryNodes(q.text) : q.nodes;
    const expansion::SqeRunResult r =
        reference.RunSqe(q.text, nodes, expansion::MotifConfig::Both(), k);
    check->CheckReference(id, RankingDigest(r.results));
    if (q.judged) {
      const std::unordered_set<index::DocId> relevant(q.relevant.begin(),
                                                      q.relevant.end());
      ap_sum += eval::AveragePrecision(r.results, relevant);
      p10_sum += eval::PrecisionAtK(r.results, relevant, 10);
      ++quality.judged;
    }
  }
  if (quality.judged > 0) {
    quality.map = ap_sum / static_cast<double>(quality.judged);
    quality.p_at_10 = p10_sum / static_cast<double>(quality.judged);
  }
  return quality;
}

// ---- per-layer ledger -----------------------------------------------------------

// Span names of every timed layer, in report order. The metric of layer L
// is "L_ms" (p50 self time) with ".p99", ".share" and ".count" companions.
constexpr const char* kQueryLayers[] = {
    "entity.link", "sqe.motif", "sqe.build", "retrieval.resolve",
    "retrieval.score"};
constexpr const char* kLoadLayers[] = {
    "io.read",        "kb.load",         "kb.validate",
    "index.load",     "index.validate",  "entity.linker_build",
    "sqe.engine_build"};
constexpr const char* kServingLayers[] = {"serving.publish", "serving.queue",
                                          "serving.service"};

void EmitLayer(const std::map<std::string, LayerTotals>& totals,
               const std::string& layer, double base_ms,
               std::map<std::string, Metric>* metrics) {
  auto it = totals.find(layer);
  Summary s;
  double total = 0.0;
  if (it != totals.end()) {
    s = Summarize(it->second.self_ms);
    total = it->second.total_self_ms;
  }
  const std::string name = layer + "_ms";
  (*metrics)[name] = {s.p50, "ms", s.count};
  (*metrics)[name + ".p99"] = {s.p99, "ms", s.count};
  (*metrics)[name + ".share"] = {base_ms > 0.0 ? 100.0 * total / base_ms : 0.0,
                                 "%", s.count};
  (*metrics)[name + ".count"] = {static_cast<double>(s.count), "count",
                                 s.count};
}

double LayerTotal(const std::map<std::string, LayerTotals>& totals,
                  const char* layer) {
  auto it = totals.find(layer);
  return it == totals.end() ? 0.0 : it->second.total_self_ms;
}

/// Load-layer shares are of the set-up the untraced run times: the two
/// snapshot loads plus linker and engine builds. io.read and *.validate
/// time a second read / validation of the same file, i.e. the part of the
/// matching *.load spent there.
void EmitLoadLedger(const std::map<std::string, LayerTotals>& totals,
                    const InputPaths& paths,
                    std::map<std::string, Metric>* metrics) {
  const double setup_ms =
      LayerTotal(totals, "kb.load") + LayerTotal(totals, "index.load") +
      LayerTotal(totals, "entity.linker_build") +
      LayerTotal(totals, "sqe.engine_build");
  for (const char* layer : kLoadLayers) {
    EmitLayer(totals, layer, setup_ms, metrics);
  }
  std::error_code ec;
  const double index_bytes =
      static_cast<double>(std::filesystem::file_size(paths.index(), ec));
  (*metrics)["index.snapshot_mb"] = {ec ? 0.0 : index_bytes / (1 << 20), "MB",
                                     1};
}

/// Counters that only some workloads produce default to zero so every
/// traced run reports the same metric names.
void EmitZeroDefaults(std::map<std::string, Metric>* metrics) {
  const std::pair<const char*, const char*> kCounters[] = {
      {"entity.linked_nodes", "count"},
      {"sqe.motif_instances", "count"},
      {"sqe.expansion_features", "count"},
      {"sqe.query_atoms", "count"},
      {"sqe.phrase_atoms", "count"},
      {"retrieval.postings_touched", "count"},
      {"serving.swap_latency_p99_ms", "ms"},
      {"sqe.cache.result_hit_rate", "%"},
      {"sqe.cache.result_lookups", "count"},
      {"sqe.cache.graph_hit_rate", "%"},
      {"sqe.cache.graph_lookups", "count"},
      {"sqe.cache.evictions", "count"},
      {"bench.trace_overhead", "%"},
  };
  for (const auto& [name, unit] : kCounters) {
    metrics->emplace(name, Metric{0.0, unit, 0});
  }
}

void PrintLedger(const std::string& workload,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("ledger %s (self time p50 / p99, share, spans):\n",
              workload.c_str());
  for (const auto& [name, m] : metrics) {
    const std::string suffix = ".share";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - suffix.size());
    if (m.samples == 0) continue;
    std::printf("  %-26s p50 %10.4f ms  p99 %10.4f ms  share %6.2f%%  n=%zu\n",
                base.c_str(), metrics.at(base).value,
                metrics.at(base + ".p99").value, m.value, m.samples);
  }
  // Then everything that is not a timed layer or one of its companions.
  const auto is_layer = [&](const std::string& name) {
    const size_t dot = name.rfind('.');
    return metrics.count(name + ".share") > 0 ||
           (dot != std::string::npos &&
            metrics.count(name.substr(0, dot) + ".share") > 0);
  };
  for (const auto& [name, m] : metrics) {
    if (is_layer(name)) continue;
    std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

// ---- the timed phase --------------------------------------------------------

/// Complete passes a run needs, so each slot's latency and the qps are
/// taken over several passes.
constexpr size_t kMinPasses = 3;

/// Both loops report the fast end of their passes: a slot's latency is its
/// kFastShare quantile over passes, and qps comes from the kFastShare
/// quantile of the complete passes' durations.
/// Other tenants of a shared host only ever add time, in slow phases that
/// last from seconds to more than a whole run, so the middle of a run's
/// passes follows the host; its fast end follows the program.
constexpr double kFastShare = 0.1;

/// What the timed phase of either loop measured, in memory that does not
/// grow with the number of passes, so a faster run does not raise
/// peak_rss_mb.
struct Passes {
  /// The fastest measured latencies of each slot.
  std::vector<FastestSamples> slot_ms;
  /// Slots per second of request time, one value per complete pass.
  std::vector<double> pass_qps;
  /// Request time of each complete pass.
  FastestSamples pass_ms;
  size_t issued = 0;  // measured requests
  double elapsed_s = 0.0;

  /// The kFastShare quantile over its passes of each of the first `slots`
  /// slots.
  std::vector<double> SlotLatencies(size_t slots = SIZE_MAX) const {
    std::vector<double> latencies;
    for (size_t slot = 0; slot < std::min(slots, slot_ms.size()); ++slot) {
      if (slot_ms[slot].count() > 0) {
        latencies.push_back(slot_ms[slot].Quantile(kFastShare));
      }
    }
    return latencies;
  }
};

/// The timed phase both loops share: a discarded warm-up pass over the
/// slots, then passes over them in the same order until `seconds` are up.
/// `begin_pass(pass)` runs untimed before every pass (pass 0 is the
/// warm-up); `request(slot, request_id)` runs one request from one caller
/// thread, with request id 0 during the warm-up.
template <typename BeginPass, typename Request>
Passes RunPasses(size_t slots, double seconds, const BeginPass& begin_pass,
                 const Request& request) {
  Passes out;
  out.slot_ms.resize(slots);
  begin_pass(size_t{0});
  for (size_t slot = 0; slot < slots; ++slot) request(slot, uint64_t{0});

  const SteadyClock::time_point t0 = SteadyClock::now();
  double pass_ms = 0.0;
  size_t pass = 1;
  size_t slot = 0;
  while (SecondsSince(t0) < seconds) {
    if (slot == 0) begin_pass(pass);
    const SteadyClock::time_point start = SteadyClock::now();
    request(slot, static_cast<uint64_t>(++out.issued));
    const double ms = MillisBetween(start, SteadyClock::now());
    out.slot_ms[slot].Add(ms);
    pass_ms += ms;
    if (++slot == slots) {
      out.pass_qps.push_back(1e3 * static_cast<double>(slots) / pass_ms);
      out.pass_ms.Add(pass_ms);
      pass_ms = 0.0;
      slot = 0;
      ++pass;
    }
  }
  out.elapsed_s = SecondsSince(t0);
  return out;
}

/// The end-to-end metrics of an untraced run. qps is the slots of a pass
/// over the kFastShare quantile of pass durations; latencies are
/// percentiles over slots of each slot's kFastShare quantile over passes.
std::map<std::string, Metric> EndToEndMetrics(double setup_s,
                                              double peak_rss_mb,
                                              const Passes& passes,
                                              const Quality& quality,
                                              OutputCheck* check) {
  const Summary lat = Summarize(passes.SlotLatencies());
  if (!lat.p99_supported) {
    check->AddFailure("too few samples for a p99 latency");
  }
  if (passes.pass_qps.size() < kMinPasses) {
    check->AddFailure("only " + std::to_string(passes.pass_qps.size()) +
                      " complete passes; a run needs " +
                      std::to_string(kMinPasses));
  }
  std::printf("  qps per pass:");
  for (double qps : passes.pass_qps) std::printf(" %.0f", qps);
  std::printf("\n");

  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {setup_s, "s", 1};
  const double fast_pass_ms = passes.pass_ms.Quantile(kFastShare);
  const double qps =
      fast_pass_ms > 0.0
          ? 1e3 * static_cast<double>(passes.slot_ms.size()) / fast_pass_ms
          : 0.0;
  metrics["qps"] = {qps, "1/s", passes.pass_qps.size()};
  metrics["latency_p50_ms"] = {lat.p50, "ms", lat.count};
  metrics["latency_p99_ms"] = {lat.p99, "ms", lat.count};
  metrics["peak_rss_mb"] = {peak_rss_mb, "MB", 1};
  metrics["map"] = {quality.map, "score", quality.judged};
  metrics["p_at_10"] = {quality.p_at_10, "score", quality.judged};
  return metrics;
}

void PrintResult(const OutputCheck& check, uint64_t attempted,
                 const std::map<std::string, Metric>& metrics) {
  PrintFailures(check);
  std::printf("%s\n", ResultJson(check.failures() == 0, attempted,
                                 check.failures(), metrics)
                          .c_str());
}

// ---- closed loop over the engine --------------------------------------------

struct QueryCounts {
  double linked_nodes = 0.0;
  double motif_instances = 0.0;
  double expansion_features = 0.0;
  double query_atoms = 0.0;
  double phrase_atoms = 0.0;
  double postings_touched = 0.0;
};

/// One engine-loop query decomposed into its public calls, one span each.
/// Does the work RunSqe does, down to the per-call scratch (whose
/// collection-sized accumulator RetrieveRange sizes), so it must produce
/// the same ranking.
uint64_t TracedQuery(const ClosedSetup& s, const QueryRecord& q, size_t k,
                     uint64_t request, SpanRecorder* trace,
                     QueryCounts* counts) {
  const expansion::SqeEngine& engine = *s.engine;
  const int64_t root = trace->Begin("query", -1, request);
  std::vector<kb::ArticleId> nodes;
  expansion::QueryGraph graph;
  retrieval::Query query;
  retrieval::ResolvedQuery resolved;
  retrieval::RetrieverScratch scratch;
  retrieval::ResultList results;
  {
    ScopedSpan span(trace, "entity.link", root, request);
    nodes = engine.LinkQueryNodes(q.text);
  }
  {
    ScopedSpan span(trace, "sqe.motif", root, request);
    graph = engine.motif_finder().BuildQueryGraph(
        nodes, expansion::MotifConfig::Both());
  }
  {
    ScopedSpan span(trace, "sqe.build", root, request);
    query = engine.BuildExpandedQuery(q.text, graph);
  }
  {
    ScopedSpan span(trace, "retrieval.resolve", root, request);
    resolved = engine.retriever().Resolve(query);
  }
  {
    ScopedSpan span(trace, "retrieval.score", root, request);
    const index::InvertedIndex& index = engine.retriever().index();
    results = engine.retriever().RetrieveRange(
        resolved, 0, static_cast<index::DocId>(index.NumDocuments()),
        index.DocsByLength(), k, &scratch);
  }
  trace->End(root);

  counts->linked_nodes += static_cast<double>(nodes.size());
  counts->motif_instances += static_cast<double>(graph.total_motifs);
  counts->expansion_features +=
      static_cast<double>(graph.expansion_nodes.size());
  counts->query_atoms += static_cast<double>(query.NumAtoms());
  for (const retrieval::Clause& clause : query.clauses) {
    for (const retrieval::Atom& atom : clause.atoms) {
      if (atom.is_phrase()) counts->phrase_atoms += 1.0;
      for (const std::string& term : atom.terms) {
        const text::TermId id = s.index->LookupTerm(term);
        if (id != text::kInvalidTermId) {
          counts->postings_touched +=
              static_cast<double>(s.index->DocumentFrequency(id));
        }
      }
    }
  }
  return RankingDigest(results);
}

uint64_t PlainQuery(const expansion::SqeEngine& engine, const QueryRecord& q,
                    size_t k) {
  const std::vector<kb::ArticleId> nodes = engine.LinkQueryNodes(q.text);
  return RankingDigest(
      engine.RunSqe(q.text, nodes, expansion::MotifConfig::Both(), k).results);
}

int RunClosed(const WorkloadSpec& spec, const Args& args,
              const InputPaths& paths,
              const std::vector<QueryRecord>& queries) {
  const bool traced = args.trace != 0;
  SpanRecorder recorder;
  SpanRecorder* trace = traced ? &recorder : nullptr;

  const SteadyClock::time_point setup_start = SteadyClock::now();
  Result<ClosedSetup> setup_or = SetUpClosed(spec, paths, trace);
  const double setup_s = SecondsSince(setup_start);
  if (!setup_or.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup_or.status().ToString().c_str());
    return 1;
  }
  const ClosedSetup& s = setup_or.value();
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return 0;
  }

  // Every query is one slot; the engine loops have no cache, so a repeat
  // does the same work as the first run.
  OutputCheck check;
  QueryCounts counts;
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  const auto request = [&](size_t id, uint64_t request_id) {
    const QueryRecord& q = queries[id];
    if (!traced || request_id == 0) {
      const uint64_t digest = PlainQuery(*s.engine, q, spec.k);
      if (request_id != 0) check.RecordMeasured(id, digest);
      return;
    }
    // Alternate which form runs first so neither always finds the other's
    // warm caches; the decomposition must rank like RunSqe.
    uint64_t plain_digest = 0;
    uint64_t traced_digest = 0;
    for (int form = 0; form < 2; ++form) {
      const bool run_traced = (form == 0) == (request_id % 2 == 0);
      const SteadyClock::time_point start = SteadyClock::now();
      if (run_traced) {
        traced_digest = TracedQuery(s, q, spec.k, request_id, trace, &counts);
        traced_ms += MillisBetween(start, SteadyClock::now());
      } else {
        plain_digest = PlainQuery(*s.engine, q, spec.k);
        plain_ms += MillisBetween(start, SteadyClock::now());
      }
    }
    check.RecordMeasured(id, plain_digest);
    if (plain_digest != traced_digest) {
      check.AddFailure("query " + std::to_string(id) +
                       ": traced decomposition ranks differently from RunSqe");
    }
  };
  const Passes passes =
      RunPasses(queries.size(), args.seconds, [](size_t) {}, request);
  const double peak_rss_mb = PeakRssMb();

  std::map<std::string, Metric> metrics;
  if (!traced) {
    // A fresh default engine over the same loaded inputs.
    const expansion::SqeEngine reference(s.kb.get(), s.index.get(),
                                         s.linker.get(), s.analyzer.get(),
                                         DefaultConfig(spec));
    const Quality quality =
        ReferencePass(reference, queries, /*link=*/true, spec.k, &check);
    metrics = EndToEndMetrics(setup_s, peak_rss_mb, passes, quality, &check);
  } else {
    const std::map<std::string, LayerTotals> totals = recorder.Totals();
    double query_ms = 0.0;
    for (const char* layer : kQueryLayers) query_ms += LayerTotal(totals, layer);
    query_ms += LayerTotal(totals, "query");
    for (const char* layer : kQueryLayers) {
      EmitLayer(totals, layer, query_ms, &metrics);
    }
    EmitLoadLedger(totals, paths, &metrics);
    for (const char* layer : kServingLayers) {
      EmitLayer(totals, layer, 0.0, &metrics);
    }
    const size_t issued = passes.issued;
    const double q = static_cast<double>(std::max<size_t>(issued, 1));
    metrics["entity.linked_nodes"] = {counts.linked_nodes / q, "count", issued};
    metrics["sqe.motif_instances"] = {counts.motif_instances / q, "count",
                                      issued};
    metrics["sqe.expansion_features"] = {counts.expansion_features / q,
                                         "count", issued};
    metrics["sqe.query_atoms"] = {counts.query_atoms / q, "count", issued};
    metrics["sqe.phrase_atoms"] = {counts.phrase_atoms / q, "count", issued};
    metrics["retrieval.postings_touched"] = {counts.postings_touched / q,
                                             "count", issued};
    metrics["bench.trace_overhead"] = {
        plain_ms > 0.0 ? 100.0 * (traced_ms / plain_ms - 1.0) : 0.0, "%",
        issued};
    EmitZeroDefaults(&metrics);
    if (!args.spans.empty() && !recorder.WriteTsv(args.spans)) {
      std::fprintf(stderr, "could not write %s\n", args.spans.c_str());
    }
  }

  std::printf("%s seed=%llu: %zu queries in %.2f s (%zu unique of %zu), "
              "setup %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.issued, passes.elapsed_s, check.num_measured(),
              queries.size(), setup_s);
  if (traced) PrintLedger(spec.name, metrics);
  PrintResult(check, passes.issued, metrics);
  return 0;
}

// ---- closed loop through the serving front-end ------------------------------

/// The slots of one serving pass: query ids whose popularity belongs to
/// concepts, as it does to Wikipedia articles. Concepts (each query's
/// first node) get Zipf(s) ranks from a fixed permutation, and a request
/// for a concept sends one of its queries' wordings at random.
std::vector<size_t> MakeSequence(const WorkloadSpec& spec, uint64_t seed,
                                 const std::vector<QueryRecord>& queries) {
  std::map<kb::ArticleId, std::vector<size_t>> wordings;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!queries[i].nodes.empty()) {
      wordings[queries[i].nodes.front()].push_back(i);
    }
  }
  std::vector<const std::vector<size_t>*> by_rank;
  for (const auto& [article, ids] : wordings) by_rank.push_back(&ids);
  if (by_rank.empty()) return {};
  constexpr uint64_t kPopularitySeed = 1505;
  Rng(kPopularitySeed).Shuffle(by_rank);
  std::vector<double> cdf(by_rank.size());
  double sum = 0.0;
  for (size_t r = 0; r < by_rank.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    cdf[r] = sum;
  }
  Rng rng(seed ^ 0x5eed5eed5eedull);
  std::vector<size_t> sequence(spec.requests_per_pass);
  for (size_t& id : sequence) {
    const size_t rank = std::min<size_t>(
        by_rank.size() - 1,
        static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), rng.NextDouble() * sum) -
            cdf.begin()));
    const std::vector<size_t>& ids = *by_rank[rank];
    id = ids[rng.NextBounded(ids.size())];
  }
  return sequence;
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the vCPU it is running on. False when the kernel refuses.
bool PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

serving::SnapshotLoader::Job MakeJob(const WorkloadSpec& spec,
                                     const InputPaths& paths) {
  serving::SnapshotLoader::Job job;
  job.kb_path = paths.kb();
  job.index_path = paths.index();
  job.load_mode = spec.load_mode;
  job.engine_config = DefaultConfig(spec);
  return job;
}

double HitRate(uint64_t hits, uint64_t lookups) {
  return lookups == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

/// Cache counters over the measured passes.
void EmitCacheLedger(const expansion::SqeCacheStats& before,
                     const expansion::SqeCacheStats& after,
                     std::map<std::string, Metric>* metrics) {
  const uint64_t result_hits = after.result.hits - before.result.hits;
  const uint64_t result_lookups =
      result_hits + (after.result.misses - before.result.misses);
  const uint64_t graph_hits = after.graph.hits - before.graph.hits;
  const uint64_t graph_lookups =
      graph_hits + (after.graph.misses - before.graph.misses);
  (*metrics)["sqe.cache.result_hit_rate"] = {
      HitRate(result_hits, result_lookups), "%", result_lookups};
  (*metrics)["sqe.cache.result_lookups"] = {
      static_cast<double>(result_lookups), "count", result_lookups};
  (*metrics)["sqe.cache.graph_hit_rate"] = {HitRate(graph_hits, graph_lookups),
                                            "%", graph_lookups};
  (*metrics)["sqe.cache.graph_lookups"] = {static_cast<double>(graph_lookups),
                                           "count", graph_lookups};
  (*metrics)["sqe.cache.evictions"] = {
      static_cast<double>(
          (after.result.evictions - before.result.evictions) +
          (after.graph.evictions - before.graph.evictions)),
      "count", 1};
}

int RunServing(const WorkloadSpec& spec, const Args& args,
               const InputPaths& paths,
               const std::vector<QueryRecord>& queries) {
  const bool traced = args.trace != 0;
  SpanRecorder recorder;
  std::map<std::string, LayerTotals> load_totals;
  if (traced) {
    // The load ledger: the same files loaded the engine-loop way, spans
    // around each public call; then dropped before serving starts.
    Result<ClosedSetup> ledger_setup = SetUpClosed(spec, paths, &recorder);
    if (!ledger_setup.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   ledger_setup.status().ToString().c_str());
      return 1;
    }
    load_totals = recorder.Totals();
  }

  serving::SnapshotRegistryOptions registry_options;
  registry_options.shared_cache.enabled = true;
  serving::SnapshotRegistry registry(registry_options);
  serving::SnapshotLoader loader(&registry);
  const serving::SnapshotLoader::Job job = MakeJob(spec, paths);
  const SteadyClock::time_point setup_start = SteadyClock::now();
  Result<uint64_t> first = loader.LoadAndPublish(job);
  const double setup_s = SecondsSince(setup_start);
  if (!first.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return 0;
  }

  // One request is in flight at a time, so a second worker would only idle;
  // with two, which one woke up varied between runs. The caller and the
  // worker share one vCPU: a submit then wakes the worker on the caller's
  // vCPU and the caller's yield runs it. Left to the scheduler, the worker
  // sometimes shared the caller's vCPU and sometimes woke an idle one, and
  // latency_p50_ms moved between ~10 and ~20 us from run to run.
  if (!PinToCurrentCpu()) {
    std::fprintf(stderr, "could not pin the caller and worker to one vCPU\n");
  }
  serving::ServingFrontendConfig frontend_config;
  frontend_config.num_workers = 1;
  serving::ServingFrontend frontend(&registry, frontend_config);
  const expansion::SqeCache* cache = registry.shared_cache();
  const std::vector<size_t> sequence =
      MakeSequence(spec, args.seed, queries);
  if (sequence.empty()) {
    std::fprintf(stderr, "no query carries a query node to serve\n");
    return 1;
  }

  // Every pass starts with a re-publish of the same files, so each pass
  // runs against a new epoch whose cache entries start cold, as after a
  // re-ingest, while older epochs' entries still fill the LRU. So every
  // measured pass replays the same cache states.
  OutputCheck check;
  uint64_t republished = 0;
  std::vector<double> publish_ms;
  expansion::SqeCacheStats cache_before;
  const auto begin_pass = [&](size_t pass) {
    if (pass == 1) cache_before = cache->Stats();
    const SteadyClock::time_point start = SteadyClock::now();
    const Result<uint64_t> published = loader.LoadAndPublish(job);
    const SteadyClock::time_point end = SteadyClock::now();
    if (!published.ok()) {
      check.AddFailure("publish failed: " + published.status().ToString());
      return;
    }
    ++republished;
    if (pass == 0) return;
    publish_ms.push_back(MillisBetween(start, end));
    if (traced) recorder.Add("serving.publish", start, end, -1, 0);
  };

  const auto limit = std::chrono::duration_cast<Clock::Duration>(
      std::chrono::duration<double, std::milli>(spec.latency_limit_ms));
  const auto ms = [](double v) {
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double, std::milli>(v));
  };
  double recording_ms = 0.0;
  const auto request = [&](size_t slot, uint64_t request_id) {
    const size_t id = sequence[slot];
    const QueryRecord& q = queries[id];
    serving::ServingRequest req;
    req.text = q.text;
    req.query_nodes = q.nodes;
    req.k = spec.k;
    const SteadyClock::time_point submitted = SteadyClock::now();
    req.deadline = serving::Deadline::At(
        std::chrono::time_point_cast<Clock::Duration>(submitted) + limit);
    const std::shared_ptr<serving::ServingCall> call =
        frontend.Submit(std::move(req));
    // Poll rather than block: a blocked caller must be woken, and what
    // waking an idle vCPU costs swung threefold between runs on a shared
    // host; a polling client does not pay it.
    while (!call->resolved()) std::this_thread::yield();
    const serving::ServingResponse& r = call->Wait();
    const SteadyClock::time_point resolved = SteadyClock::now();
    if (!r.status.ok()) {
      check.AddFailure("request for query " + std::to_string(id) + ": " +
                       r.status.ToString());
      return;
    }
    if (request_id == 0) return;
    check.RecordMeasured(id, RankingDigest(r.result.results));
    if (traced) {
      const SteadyClock::time_point begin = SteadyClock::now();
      const SteadyClock::time_point dequeued = submitted + ms(r.queue_ms);
      const SteadyClock::time_point graph_end =
          dequeued + ms(r.result.graph_build_ms);
      const int64_t root =
          recorder.Add("request", submitted, resolved, -1, request_id);
      recorder.Add("serving.queue", submitted, dequeued, root, request_id);
      const int64_t service =
          recorder.Add("serving.service", dequeued,
                       submitted + ms(r.total_ms), root, request_id);
      recorder.Add("sqe.motif", dequeued, graph_end, service, request_id);
      recorder.Add("retrieval.score", graph_end,
                   graph_end + ms(r.result.retrieval_ms), service,
                   request_id);
      recording_ms += MillisBetween(begin, SteadyClock::now());
    }
  };
  const Passes passes =
      RunPasses(sequence.size(), args.seconds, begin_pass, request);
  const expansion::SqeCacheStats cache_after = cache->Stats();
  frontend.Shutdown();
  const serving::ServingStats stats = frontend.Stats();
  const double peak_rss_mb = PeakRssMb();

  // Accounting: every request resolved exactly once, and after the drain
  // only the current epoch is still alive.
  if (stats.resolved() != stats.submitted ||
      stats.submitted != passes.issued + sequence.size()) {
    check.AddFailure("serving accounting: " + stats.ToString());
  }
  const serving::SnapshotRegistryStats registry_stats = registry.Stats();
  if (registry_stats.live_epochs() != 1 ||
      registry_stats.published != republished + 1) {
    check.AddFailure("registry lifecycle: published=" +
                     std::to_string(registry_stats.published) +
                     " retired=" + std::to_string(registry_stats.retired));
  }

  // The swap window: the first requests of every pass, sent while the new
  // epoch's cache is still cold.
  const Summary swap = Summarize(passes.SlotLatencies(spec.swap_window));

  std::map<std::string, Metric> metrics;
  if (!traced) {
    serving::SnapshotLease lease = registry.Acquire();
    const text::Analyzer analyzer;
    const expansion::SqeEngine reference(&lease->kb(), &lease->index(),
                                         nullptr, &analyzer,
                                         DefaultConfig(spec));
    const Quality quality =
        ReferencePass(reference, queries, /*link=*/false, spec.k, &check);
    metrics = EndToEndMetrics(setup_s, peak_rss_mb, passes, quality, &check);
  } else {
    const std::map<std::string, LayerTotals> totals = recorder.Totals();
    double request_ms = 0.0;
    for (const char* layer : {"request", "serving.queue", "serving.service",
                              "sqe.motif", "retrieval.score"}) {
      request_ms += LayerTotal(totals, layer);
    }
    for (const char* layer : kQueryLayers) {
      EmitLayer(totals, layer, request_ms, &metrics);
    }
    EmitLoadLedger(load_totals, paths, &metrics);
    EmitLayer(totals, "serving.queue", request_ms, &metrics);
    EmitLayer(totals, "serving.service", request_ms, &metrics);
    // Publish share: of the timed phase's wall time.
    EmitLayer(totals, "serving.publish", 1e3 * passes.elapsed_s, &metrics);
    EmitCacheLedger(cache_before, cache_after, &metrics);
    metrics["serving.swap_latency_p99_ms"] = {swap.p99, "ms", swap.count};
    metrics["bench.trace_overhead"] = {
        request_ms > 0.0 ? 100.0 * recording_ms / request_ms : 0.0, "%",
        passes.issued};
    EmitZeroDefaults(&metrics);
    if (!args.spans.empty() && !recorder.WriteTsv(args.spans)) {
      std::fprintf(stderr, "could not write %s\n", args.spans.c_str());
    }
  }

  std::printf("%s seed=%llu: %zu requests in %.2f s, %zu slots per pass, "
              "%llu re-publishes (median %.1f ms), swap window p99 %.4f ms "
              "over %zu slots, setup %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.issued, passes.elapsed_s, sequence.size(),
              static_cast<unsigned long long>(republished), Median(publish_ms),
              swap.p99, swap.count, setup_s);
  std::printf("  %s\n", stats.ToString().c_str());
  if (traced) PrintLedger(spec.name, metrics);
  PrintResult(check, passes.issued, metrics);
  return 0;
}

// ---- commands ------------------------------------------------------------------

int Describe(const WorkloadSpec& spec, const Args& args,
             const InputPaths& paths) {
  Result<kb::KnowledgeBase> kb = kb::KnowledgeBase::FromSnapshotFile(paths.kb());
  Result<index::InvertedIndex> index =
      index::InvertedIndex::FromSnapshotFile(paths.index(),
                                             io::LoadMode::kZeroCopy);
  if (!kb.ok() || !index.ok()) {
    std::fprintf(stderr, "describe: corpus missing\n");
    return 1;
  }
  size_t reciprocal = 0;
  size_t max_reciprocal = 0;
  for (kb::ArticleId a = 0; a < kb->NumArticles(); ++a) {
    const size_t d = kb->ReciprocalLinks(a).size();
    reciprocal += d;
    max_reciprocal = std::max(max_reciprocal, d);
  }
  std::error_code ec;
  std::printf("workload %s\n", spec.name.c_str());
  std::printf("  kb: %zu articles, %zu categories, %zu article links, "
              "%zu memberships, %zu category links\n",
              kb->NumArticles(), kb->NumCategories(), kb->NumArticleLinks(),
              kb->NumMemberships(), kb->NumCategoryLinks());
  std::printf("  reciprocal degree: mean %.1f, max %zu\n",
              static_cast<double>(reciprocal) /
                  static_cast<double>(std::max<size_t>(kb->NumArticles(), 1)),
              max_reciprocal);
  std::printf("  index: %zu docs, %llu tokens\n", index->NumDocuments(),
              static_cast<unsigned long long>(index->TotalTokens()));
  std::printf("  snapshot bytes: kb %llu, index %llu\n",
              static_cast<unsigned long long>(
                  std::filesystem::file_size(paths.kb(), ec)),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(paths.index(), ec)));
  Result<std::vector<QueryRecord>> queries =
      ReadQueries(paths.queries(args.seed));
  if (queries.ok()) {
    std::printf("  queries (seed %llu): %zu unique, %zu judged\n",
                static_cast<unsigned long long>(args.seed), queries->size(),
                static_cast<size_t>(std::count_if(
                    queries->begin(), queries->end(),
                    [](const QueryRecord& q) { return q.judged; })));
    if (spec.loop == LoopKind::kServing) {
      const std::vector<size_t> sequence =
          MakeSequence(spec, args.seed, queries.value());
      const std::unordered_set<size_t> distinct(sequence.begin(),
                                                sequence.end());
      const std::unordered_set<size_t> window(
          sequence.begin(),
          sequence.begin() + std::min(spec.swap_window, sequence.size()));
      std::printf("  serving pass: %zu requests, %zu distinct, repeat share "
                  "%.1f%%; swap window %zu requests (%zu distinct); "
                  "latency limit %.0f ms\n",
                  sequence.size(), distinct.size(),
                  100.0 * static_cast<double>(sequence.size() -
                                              distinct.size()) /
                      static_cast<double>(std::max<size_t>(sequence.size(), 1)),
                  spec.swap_window, window.size(), spec.latency_limit_ms);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench gen-corpus|gen-queries|run|describe "
                 "--workload W --data DIR [--seed S] [--seconds N] "
                 "[--trace 0|1] [--setup-only] [--spans FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const InputPaths paths{args.data};
  if (args.command == "gen-corpus") {
    const Status st = GenerateCorpus(*spec, paths);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }
  if (args.command == "gen-queries") {
    const Status st = GenerateQueryList(*spec, args.seed, paths);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }
  if (args.command == "describe") return Describe(*spec, args, paths);
  if (args.command != "run") return 2;
  Result<std::vector<QueryRecord>> queries =
      ReadQueries(paths.queries(args.seed));
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  if (queries->empty()) {
    std::fprintf(stderr, "%s: empty query list\n",
                 paths.queries(args.seed).c_str());
    return 1;
  }
  return spec->loop == LoopKind::kEngine
             ? RunClosed(*spec, args, paths, queries.value())
             : RunServing(*spec, args, paths, queries.value());
}

}  // namespace
}  // namespace sqe::perfbench

int main(int argc, char** argv) { return sqe::perfbench::Main(argc, argv); }
