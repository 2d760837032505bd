// Measurement helpers shared by the benchmark workloads: latency summaries
// with sample counts, medians, the process's peak RSS, ranking digests with
// their output check, and the in-memory span recorder the traced run turns
// into the per-layer ledger.
#ifndef SQE_PERFBENCH_LEDGER_H_
#define SQE_PERFBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "retrieval/result.h"

namespace sqe::perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double MillisBetween(SteadyClock::time_point a,
                            SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentiles of a sample. `p99_supported` is false when
/// fewer than ten samples lie beyond the p99 rank, in which case the p99 is
/// not a measurement and must not be reported.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};
Summary Summarize(std::vector<double> samples);

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);

/// The fastest latencies of one slot of repeated work, in memory that does
/// not grow with the number of repeats: keeps the kKept smallest samples
/// added and counts them all.
class FastestSamples {
 public:
  static constexpr size_t kKept = 32;

  void Add(double ms);
  size_t count() const { return count_; }
  /// Nearest-rank `q` quantile of every sample added (0 when none). Exact
  /// while that rank is among the kept samples, i.e. up to kKept / q
  /// samples; beyond that, the largest kept sample.
  double Quantile(double q) const;

 private:
  std::array<double, kKept> fastest_{};  // ascending, min(count_, kKept) set
  size_t count_ = 0;
};

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// FNV-1a over the ranked doc ids: bit-identical rankings give identical
/// digests.
uint64_t RankingDigest(const retrieval::ResultList& results);

/// Compares per-query ranking digests of measured results against an
/// expected reference. Every mismatch is a failed operation.
class OutputCheck {
 public:
  /// Records the digest the measured path produced for query `id`; a
  /// query measured twice must produce the same digest both times.
  void RecordMeasured(size_t id, uint64_t digest);
  /// Checks query `id` against its reference digest. Queries never
  /// measured are ignored.
  void CheckReference(size_t id, uint64_t reference_digest);
  /// Counts one failure that is not a digest mismatch (e.g. a rejected
  /// request or a broken accounting identity).
  void AddFailure(const std::string& what);

  size_t num_measured() const { return measured_.size(); }
  size_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }
  /// Ids of measured queries, ascending.
  std::vector<size_t> MeasuredIds() const;

 private:
  std::map<size_t, uint64_t> measured_;
  size_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// One traced call: a span wraps one public call into a layer.
struct Span {
  std::string name;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
  int64_t parent = -1;  // index into the recorder, -1 for a root
  uint64_t request = 0;
};

/// Per-layer totals derived from spans: self time is a span's duration
/// minus the part its children cover.
struct LayerTotals {
  std::vector<double> self_ms;
  double total_self_ms = 0.0;
};

/// Keeps spans in memory; written out once, when the run ends.
class SpanRecorder {
 public:
  /// Opens a span and returns its index.
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t span);
  /// Records an already-finished span (e.g. one timed by the front-end).
  int64_t Add(const char* name, SteadyClock::time_point start,
              SteadyClock::time_point end, int64_t parent, uint64_t request);

  /// Self-time totals per span name.
  std::map<std::string, LayerTotals> Totals() const;
  /// Writes one tab-separated line per span (name, start_us, end_us,
  /// parent, request), times relative to the first span.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A finished metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Renders the run's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit", "samples"}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace sqe::perfbench

#endif  // SQE_PERFBENCH_LEDGER_H_
