// Fuzz target: KB snapshot loader (kb::KnowledgeBase::FromSnapshotString).
//
// Invariant under test: arbitrary bytes either fail to load with a clean
// Status, or load into a KnowledgeBase that passes its own deep Validate().
// A crash, sanitizer report, or a loaded-but-invalid KB is a bug in the
// loader's bounds/CRC checking.
//
// Every accepted KB also runs the motif counting kernel on its first few
// articles against the listing finder. The kernel's per-thread counters
// carry over from one input to the next, so the fuzzer drives them through
// thousands of differently sized KBs on one thread.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "kb/knowledge_base.h"
#include "sqe/motif_finder.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string image(reinterpret_cast<const char*>(data), size);

  // Zero-copy probe first: the mapped loader must be exactly as strict as
  // the heap loader (legacy images are rejected as InvalidArgument, aligned
  // images hit the same validation), and its spans must stay in bounds for
  // Validate's full walk.
  auto mapped = sqe::kb::KnowledgeBase::FromSnapshotString(
      image, sqe::io::LoadMode::kZeroCopy);
  if (mapped.ok()) {
    SQE_CHECK(mapped->Validate().ok());
  }

  auto loaded = sqe::kb::KnowledgeBase::FromSnapshotString(std::move(image));
  if (loaded.ok()) {
    // Anything the loader accepts must also deep-validate: the load path
    // may not be laxer than the integrity checker.
    SQE_CHECK(loaded->Validate().ok());
    // And a loaded KB must round-trip through its own writer.
    SQE_CHECK(!loaded->SerializeToString().empty());

    sqe::expansion::MotifFinder finder(&loaded.value());
    const size_t probes = std::min<size_t>(loaded->NumArticles(), 8);
    for (sqe::kb::ArticleId q = 0; q < probes; ++q) {
      const std::vector<sqe::kb::ArticleId> nodes = {q};
      const uint64_t counted =
          finder.BuildQueryGraph(nodes, sqe::expansion::MotifConfig::Both())
              .total_motifs;
      SQE_CHECK(counted == finder.FindTriangular(q).size() +
                               finder.FindSquare(q).size());
    }
  }
  return 0;
}
