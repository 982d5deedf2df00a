#include "accounting.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {40, 10, 30, 20, 50};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 50);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 30);
  EXPECT_DOUBLE_EQ(Percentile(values, 90), 46);  // rank 3.6
  EXPECT_DOUBLE_EQ(Percentile(values, 25), 20);
}

TEST(PercentileTest, P90OfOneHundredSamples) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(values, 90), 90.1);  // rank 89.1
}

TEST(PercentileTest, SingleAndEmpty) {
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(TargetTallyTest, CountsErrorsNanAndFailedChecks) {
  TargetTally tally;
  EXPECT_TRUE(tally.Record(skypref::Status::OK(), 0.25, true));
  EXPECT_FALSE(tally.Record(skypref::Status::ResourceExhausted("budget"), 0.5,
                            true));
  EXPECT_FALSE(tally.Record(skypref::Status::OK(),
                            std::numeric_limits<double>::quiet_NaN(), true));
  EXPECT_FALSE(tally.Record(skypref::Status::OK(), 0.75, false));
  EXPECT_TRUE(tally.Record(skypref::Status::OK(), 0.0, true));
  EXPECT_EQ(tally.attempted(), 5u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.6);
}

TEST(TargetTallyTest, FailedCallCountsEveryTarget) {
  TargetTally tally;
  tally.RecordFailedCall(1200);
  EXPECT_TRUE(tally.Record(skypref::Status::OK(), 1.0, true));
  EXPECT_EQ(tally.attempted(), 1201u);
  EXPECT_EQ(tally.failed(), 1200u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 1200.0 / 1201.0);
}

TEST(TargetTallyTest, NothingAttempted) {
  TargetTally tally;
  EXPECT_EQ(tally.attempted(), 0u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.0);
}

}  // namespace
}  // namespace perfbench
