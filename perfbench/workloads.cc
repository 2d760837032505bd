#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_set>

#include "common/random.h"
#include "index/inverted_index.h"
#include "kb/kb_builder.h"
#include "synth/dataset.h"
#include "synth/query_gen.h"
#include "text/analyzer.h"

namespace sqe::perfbench {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // Hub-heavy KB, small collection: traversal and query build dominate.
  {
    WorkloadSpec w;
    w.name = "expand_dense_kb";
    w.loop = LoopKind::kEngine;
    w.world.seed = 150501306;
    w.world.num_topics = 2;
    w.world.clusters_per_topic = 8;
    w.world.min_concepts_per_cluster = 60;
    w.world.max_concepts_per_cluster = 120;
    w.world.strong_partners = 8;
    w.world.square_partners = 16;
    w.world.noise_reciprocal_partners = 4;
    w.world.one_way_links = 10;
    w.world.p_spurious_twin = 1.0;
    w.hubs.links_per_concept = 24;
    w.hubs.zipf_s = 1.0;
    w.hubs.p_join_categories = 0.8;
    w.hubs.seed = 1505;
    w.collection.seed = 1506;
    w.collection.num_docs = 2000;
    w.load_mode = io::LoadMode::kHeap;
    w.rounds = 2;
    w.judged_queries = 300;
    all.push_back(w);
  }

  // Paper-scale KB, 1M short documents, mapped v4 snapshot: retrieval
  // (posting decode, phrase assembly, scoring) dominates.
  {
    WorkloadSpec w;
    w.name = "retrieve_1m";
    w.loop = LoopKind::kEngine;
    w.world = synth::PaperWorldOptions();
    w.collection.seed = 1101;
    w.collection.num_docs = 1'000'000;
    w.collection.min_doc_tokens = 10;
    w.collection.max_doc_tokens = 24;
    w.load_mode = io::LoadMode::kZeroCopy;
    w.rounds = 1;
    w.query_concept_max = 960;
    w.judged_queries = 200;
    all.push_back(w);
  }

  // Zipf-repeated requests through a registry-backed front-end with the
  // shared cache on, re-publishing every pass: the serving queue, the
  // SqeCache and the registry's publish path.
  {
    WorkloadSpec w;
    w.name = "serve_zipf_swap";
    w.loop = LoopKind::kServing;
    w.world = synth::PaperWorldOptions();
    w.collection.seed = 1201;
    w.collection.num_docs = 50000;
    w.load_mode = io::LoadMode::kHeap;
    w.rounds = 3;
    w.judged_queries = 300;
    w.requests_per_pass = 5000;
    w.zipf_s = 1.1;
    w.swap_window = 1200;
    w.latency_limit_ms = 1000.0;
    all.push_back(w);
  }
  return all;
}

uint64_t MixSeed(uint64_t seed, uint64_t round) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + round);
  return sm.Next();
}

// Rebuilds the world's KB through KbBuilder (same ids: titles are added in
// id order) and layers the hub links of `hubs` over it.
kb::KnowledgeBase AddHubs(const synth::World& world, const HubOptions& hubs) {
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

  Rng rng(hubs.seed);
  for (const std::vector<uint32_t>& members : world.topic_members) {
    if (members.size() < 2) continue;
    std::vector<double> cdf(members.size());
    double sum = 0.0;
    for (size_t r = 0; r < members.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), hubs.zipf_s);
      cdf[r] = sum;
    }
    for (uint32_t c : members) {
      const kb::ArticleId article = world.concepts[c].article;
      for (size_t j = 0; j < hubs.links_per_concept; ++j) {
        const size_t rank = std::min<size_t>(
            members.size() - 1,
            static_cast<size_t>(
                std::upper_bound(cdf.begin(), cdf.end(),
                                 rng.NextDouble() * sum) -
                cdf.begin()));
        const uint32_t partner = members[rank];
        if (partner == c) continue;
        const kb::ArticleId hub = world.concepts[partner].article;
        builder.AddReciprocalLink(article, hub);
        if (rng.NextBool(hubs.p_join_categories)) {
          for (kb::CategoryId cat : src.CategoriesOf(article)) {
            builder.AddMembership(hub, cat);
          }
        }
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = MakeWorkloads();
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Status GenerateCorpus(const WorkloadSpec& spec, const InputPaths& paths) {
  std::error_code ec;
  std::filesystem::create_directories(paths.dir, ec);
  if (ec) return Status::IOError(paths.dir + ": " + ec.message());

  const synth::World world = synth::World::Generate(spec.world);
  Status st = spec.hubs.links_per_concept > 0
                  ? AddHubs(world, spec.hubs).SaveToFile(paths.kb())
                  : world.kb.SaveToFile(paths.kb());
  if (!st.ok()) return st;

  // Streamed so the 1M-document corpus never materializes its texts.
  text::Analyzer analyzer;
  index::IndexBuilder builder;
  std::vector<uint32_t> doc_concepts;
  doc_concepts.reserve(spec.collection.num_docs);
  synth::StreamCollection(
      world, spec.collection, [&](synth::GeneratedDoc doc, size_t) {
        doc_concepts.push_back(doc.primary_concept);
        builder.AddDocument(std::move(doc.external_id),
                            analyzer.Analyze(doc.text));
      });
  {
    const index::InvertedIndex index = std::move(builder).Build();
    st = index.SaveToFile(paths.index());
    if (!st.ok()) return st;
  }
  st = WriteDocConcepts(paths.doc_concepts(), doc_concepts);
  if (!st.ok()) return st;
  return io::WriteStringToFile(paths.corpus_done(), spec.name + "\n");
}

Status GenerateQueryList(const WorkloadSpec& spec, uint64_t seed,
                         const InputPaths& paths) {
  Result<std::vector<uint32_t>> doc_concepts =
      ReadDocConcepts(paths.doc_concepts());
  if (!doc_concepts.ok()) return std::move(doc_concepts).status();
  const synth::World world = synth::World::Generate(spec.world);

  // Query generation only needs which documents each concept owns.
  synth::Collection collection;
  collection.docs_of_concept.resize(world.NumConcepts());
  for (size_t d = 0; d < doc_concepts->size(); ++d) {
    const uint32_t c = (*doc_concepts)[d];
    if (c >= world.NumConcepts()) {
      return Status::Corruption("doc_concepts: concept out of range");
    }
    collection.docs_of_concept[c].push_back(static_cast<uint32_t>(d));
  }
  const uint32_t concept_max = std::min<uint32_t>(
      spec.query_concept_max, static_cast<uint32_t>(world.NumConcepts()));
  const size_t documented = static_cast<size_t>(std::count_if(
      collection.docs_of_concept.begin(),
      collection.docs_of_concept.begin() + concept_max,
      [](const std::vector<uint32_t>& docs) { return !docs.empty(); }));

  // Each round draws one query per documented concept, in a seeded order
  // and with fresh wording, so every seed covers the same concepts and only
  // the wording and order follow --seed. Every query names its concept's
  // full title, so the title-mined linker the measured process builds can
  // link it. The judged prefix comes from a fixed seed, so `map` and
  // `p_at_10` score the same queries on every run and move only when
  // rankings change.
  std::vector<QueryRecord> queries;
  std::unordered_set<std::string> seen;
  const auto append = [&](uint64_t base_seed, size_t rounds, size_t limit,
                          bool judged) {
    for (uint64_t round = 0; round < rounds; ++round) {
      synth::QueryGenOptions options;
      options.seed = MixSeed(base_seed, round);
      options.num_queries = documented;
      options.concept_max = concept_max;
      options.prefer_obscure_intents = false;
      options.p_include_canonical = 1.0;
      options.p_full_title = 1.0;
      options.mentionable_fraction = spec.collection.mentionable_fraction;
      const synth::QuerySet set =
          synth::GenerateQueries(world, collection, options);
      for (size_t i = 0; i < set.queries.size() && queries.size() < limit;
           ++i) {
        if (!seen.insert(set.queries[i].text).second) continue;
        QueryRecord q;
        q.text = set.queries[i].text;
        q.nodes = set.queries[i].true_entities;
        q.judged = judged;
        if (judged) {
          const auto& relevant = set.qrels.RelevantDocs(i);
          q.relevant.assign(relevant.begin(), relevant.end());
          std::sort(q.relevant.begin(), q.relevant.end());
        }
        queries.push_back(std::move(q));
      }
    }
  };
  constexpr uint64_t kJudgedSeed = 2017;
  append(kJudgedSeed, 1, spec.judged_queries, /*judged=*/true);
  append(seed, spec.rounds, SIZE_MAX, /*judged=*/false);
  return WriteQueries(paths.queries(seed), queries);
}

}  // namespace sqe::perfbench
