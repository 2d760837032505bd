// Tests of the benchmark's own measurement and checking code.
#include <gtest/gtest.h>

#include <filesystem>

#include "inputs.h"
#include "ledger.h"

namespace sqe::perfbench {
namespace {

retrieval::ResultList Ranking(std::initializer_list<index::DocId> docs) {
  retrieval::ResultList list;
  double score = 0.0;
  for (index::DocId d : docs) list.push_back({d, score -= 1.0});
  return list;
}

TEST(OutputCheckTest, MatchingReferenceIsNotAFailure) {
  OutputCheck check;
  check.RecordMeasured(0, RankingDigest(Ranking({3, 1, 2})));
  check.CheckReference(0, RankingDigest(Ranking({3, 1, 2})));
  EXPECT_EQ(check.failures(), 0u);
}

TEST(OutputCheckTest, WrongExpectedDigestIsReportedAsFailure) {
  OutputCheck check;
  check.RecordMeasured(7, RankingDigest(Ranking({3, 1, 2})));
  check.CheckReference(7, RankingDigest(Ranking({3, 2, 1})));
  EXPECT_EQ(check.failures(), 1u);
  ASSERT_EQ(check.messages().size(), 1u);
  EXPECT_NE(check.messages()[0].find("query 7"), std::string::npos);
}

TEST(OutputCheckTest, RepeatedQueryMustRankTheSameWay) {
  OutputCheck check;
  check.RecordMeasured(1, RankingDigest(Ranking({1, 2})));
  check.RecordMeasured(1, RankingDigest(Ranking({2, 1})));
  EXPECT_EQ(check.failures(), 1u);
}

TEST(OutputCheckTest, UnmeasuredQueriesAreIgnored) {
  OutputCheck check;
  check.CheckReference(4, 12345);
  EXPECT_EQ(check.failures(), 0u);
  EXPECT_EQ(check.num_measured(), 0u);
}

TEST(SummaryTest, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> small(500);
  for (size_t i = 0; i < small.size(); ++i) small[i] = static_cast<double>(i);
  EXPECT_FALSE(Summarize(small).p99_supported);

  std::vector<double> large(1100);
  for (size_t i = 0; i < large.size(); ++i) large[i] = static_cast<double>(i);
  const Summary s = Summarize(large);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.count, 1100u);
  EXPECT_DOUBLE_EQ(s.p50, 549.0);
  EXPECT_DOUBLE_EQ(s.p99, 1088.0);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(FastestSamplesTest, NearestRankWithinTheKeptSamples) {
  FastestSamples samples;
  EXPECT_DOUBLE_EQ(samples.Quantile(0.1), 0.0);
  // 1..100 in an order that is neither ascending nor descending.
  for (int i = 0; i < 100; ++i) {
    samples.Add(static_cast<double>(i * 37 % 100 + 1));
  }
  EXPECT_EQ(samples.count(), 100u);
  EXPECT_DOUBLE_EQ(samples.Quantile(0.1), 10.0);
  EXPECT_DOUBLE_EQ(samples.Quantile(0.01), 1.0);
  // Rank 50 is past the 32 kept samples: the largest kept one.
  EXPECT_DOUBLE_EQ(samples.Quantile(0.5), 32.0);

  FastestSamples few;
  for (double v : {3.0, 1.0, 2.0}) few.Add(v);
  EXPECT_DOUBLE_EQ(few.Quantile(0.1), 1.0);
  EXPECT_DOUBLE_EQ(few.Quantile(1.0), 3.0);
}

TEST(SpanRecorderTest, SelfTimeExcludesChildren) {
  SpanRecorder recorder;
  const SteadyClock::time_point t0 = SteadyClock::now();
  const auto ms = [&](int v) { return t0 + std::chrono::milliseconds(v); };
  const int64_t root = recorder.Add("query", ms(0), ms(10), -1, 1);
  recorder.Add("sqe.motif", ms(1), ms(4), root, 1);
  recorder.Add("retrieval.score", ms(4), ms(9), root, 1);
  const auto totals = recorder.Totals();
  EXPECT_NEAR(totals.at("query").total_self_ms, 2.0, 1e-9);
  EXPECT_NEAR(totals.at("sqe.motif").total_self_ms, 3.0, 1e-9);
  EXPECT_NEAR(totals.at("retrieval.score").total_self_ms, 5.0, 1e-9);
}

TEST(QueryFileTest, RoundTrip) {
  // Relative to the test's working directory (the build tree).
  const std::string path = "perfbench_queries_test.tsv";
  std::vector<QueryRecord> queries(2);
  queries[0].text = "Blue Heron wetland";
  queries[0].nodes = {5};
  queries[0].judged = true;
  queries[0].relevant = {1, 9, 40};
  queries[1].text = "Old Mill";
  queries[1].nodes = {2, 3};
  ASSERT_TRUE(WriteQueries(path, queries).ok());
  Result<std::vector<QueryRecord>> read = ReadQueries(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0].text, "Blue Heron wetland");
  EXPECT_EQ((*read)[0].relevant, queries[0].relevant);
  EXPECT_TRUE((*read)[0].judged);
  EXPECT_FALSE((*read)[1].judged);
  EXPECT_EQ((*read)[1].nodes, queries[1].nodes);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sqe::perfbench
