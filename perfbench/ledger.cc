#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace sqe::perfbench {

namespace {

// Nearest-rank index of quantile q in a sorted sample of n (n > 0).
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::min(n - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
}

// Samples beyond the nearest-rank `q` quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

}  // namespace

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[RankIndex(samples.size(), 0.50)];
  s.p99 = samples[RankIndex(samples.size(), 0.99)];
  s.p99_supported = SamplesBeyond(samples.size(), 0.99) >= 10;
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void FastestSamples::Add(double ms) {
  const size_t kept = std::min(count_, kKept);
  ++count_;
  size_t i = kept;
  if (kept == kKept) {
    if (ms >= fastest_[kKept - 1]) return;
    i = kKept - 1;  // drops the slowest kept sample
  }
  for (; i > 0 && fastest_[i - 1] > ms; --i) fastest_[i] = fastest_[i - 1];
  fastest_[i] = ms;
}

double FastestSamples::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  return fastest_[std::min(RankIndex(count_, q), std::min(count_, kKept) - 1)];
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t RankingDigest(const retrieval::ResultList& results) {
  uint64_t digest = 1469598103934665603ull;
  for (const retrieval::ScoredDoc& sd : results) {
    digest = (digest ^ sd.doc) * 1099511628211ull;
  }
  return digest;
}

void OutputCheck::RecordMeasured(size_t id, uint64_t digest) {
  auto [it, inserted] = measured_.emplace(id, digest);
  if (!inserted && it->second != digest) {
    AddFailure("query " + std::to_string(id) +
               ": ranking changed between two measured runs");
  }
}

void OutputCheck::CheckReference(size_t id, uint64_t reference_digest) {
  auto it = measured_.find(id);
  if (it == measured_.end() || it->second == reference_digest) return;
  AddFailure("query " + std::to_string(id) +
             ": measured ranking differs from the reference RunSqe");
}

void OutputCheck::AddFailure(const std::string& what) {
  ++failures_;
  // Keep the log short; the count is what the result reports.
  if (messages_.size() < 8) messages_.push_back(what);
}

std::vector<size_t> OutputCheck::MeasuredIds() const {
  std::vector<size_t> ids;
  ids.reserve(measured_.size());
  for (const auto& [id, digest] : measured_) ids.push_back(id);
  return ids;
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent,
                            uint64_t request) {
  const SteadyClock::time_point now = SteadyClock::now();
  return Add(name, now, now, parent, request);
}

void SpanRecorder::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end = SteadyClock::now();
}

int64_t SpanRecorder::Add(const char* name, SteadyClock::time_point start,
                          SteadyClock::time_point end, int64_t parent,
                          uint64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, LayerTotals> SpanRecorder::Totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += MillisBetween(s.start, s.end);
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double self =
        std::max(0.0, MillisBetween(spans_[i].start, spans_[i].end) -
                          child_ms[i]);
    LayerTotals& t = totals[spans_[i].name];
    t.self_ms.push_back(self);
    t.total_self_ms += self;
  }
  return totals;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_us\tend_us\tparent\trequest\n");
  const SteadyClock::time_point origin =
      spans_.empty() ? SteadyClock::time_point{} : spans_.front().start;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%.3f\t%.3f\t%lld\t%llu\n", s.name.c_str(),
                 MillisBetween(origin, s.start) * 1e3,
                 MillisBetween(origin, s.end) * 1e3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace sqe::perfbench
