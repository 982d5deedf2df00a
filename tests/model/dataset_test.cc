#include "src/model/dataset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/hash.h"

namespace skypref {
namespace {

TEST(DatasetTest, StartsEmpty) {
  Dataset data(3);
  EXPECT_EQ(data.dimensions(), 3u);
  EXPECT_EQ(data.size(), 0u);
  EXPECT_TRUE(data.empty());
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset data(2);
  ASSERT_TRUE(data.Append({1, 2}).ok());
  ASSERT_TRUE(data.Append({3, 4}).ok());
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.value(0, 0), 1u);
  EXPECT_EQ(data.value(0, 1), 2u);
  EXPECT_EQ(data.value(1, 0), 3u);
  auto row = data.object(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], 4u);
}

TEST(DatasetTest, AppendRejectsWrongWidth) {
  Dataset data(2);
  EXPECT_EQ(data.Append({1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(data.Append({1, 2, 3}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(data.size(), 0u);
}

TEST(DatasetTest, ValueBound) {
  Dataset data(2);
  data.Append({0, 7}).CheckOK();
  data.Append({3, 2}).CheckOK();
  EXPECT_EQ(data.value_bound(0), 4u);
  EXPECT_EQ(data.value_bound(1), 8u);
  Dataset empty(2);
  EXPECT_EQ(empty.value_bound(0), 0u);
}

TEST(DatasetTest, SameObject) {
  Dataset data(2);
  data.Append({1, 2}).CheckOK();
  data.Append({1, 2}).CheckOK();
  data.Append({1, 3}).CheckOK();
  EXPECT_TRUE(data.SameObject(0, 1));
  EXPECT_FALSE(data.SameObject(0, 2));
  EXPECT_TRUE(data.SameObject(2, 2));
}

TEST(DatasetTest, ValidateAcceptsDistinctObjects) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({0, 1}).CheckOK();
  data.Append({1, 0}).CheckOK();
  EXPECT_TRUE(data.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsDuplicates) {
  Dataset data(2);
  data.Append({5, 6}).CheckOK();
  data.Append({7, 8}).CheckOK();
  data.Append({5, 6}).CheckOK();
  Status status = data.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(DatasetTest, ValidateRejectsEmpty) {
  Dataset data(2);
  EXPECT_EQ(data.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, ValidateManyObjectsFastPath) {
  // Hash-based duplicate detection should comfortably handle thousands.
  Dataset data(3);
  for (ValueId i = 0; i < 5000; ++i) {
    data.Append({i, i + 1, i + 2}).CheckOK();
  }
  EXPECT_TRUE(data.Validate().ok());
}

TEST(DatasetTest, ValidateNamesTheLaterDuplicateRow) {
  Dataset data(2);
  data.Append({5, 6}).CheckOK();
  data.Append({7, 8}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({7, 8}).CheckOK();  // repeats row 1
  data.Append({5, 6}).CheckOK();  // repeats row 0, found later
  const Status status = data.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "duplicate object at row 3 (the model assumes no duplicate "
            "objects)");
}

TEST(DatasetTest, ValidateFindsADuplicateFarApartInALargeDataset) {
  constexpr ValueId kRows = 60000;
  Dataset data(3);
  for (ValueId i = 0; i < kRows; ++i) {
    data.Append({i % 251, i / 251, i % 7}).CheckOK();
  }
  ASSERT_TRUE(data.Validate().ok());
  data.Append({2 % 251, 2 / 251, 2 % 7}).CheckOK();  // repeats row 2
  const Status status = data.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("row " + std::to_string(kRows) + " "),
            std::string::npos)
      << status.message();
}

TEST(DatasetTest, ValidateHandlesRowsCollidingOnOneHashBucket) {
  // Rows whose hashes agree on their low 12 bits share one bucket of any
  // table of up to 4096 slots, so the duplicate scan walks one long probe
  // chain (wrapping around the table's end for some of them).
  constexpr std::uint64_t kLowBits = (1u << 12) - 1;
  std::vector<std::vector<ValueId>> colliding;
  for (ValueId a = 0; colliding.size() < 200; ++a) {
    for (ValueId b = 0; b < 64 && colliding.size() < 200; ++b) {
      const std::vector<ValueId> row = {a, b};
      if ((HashSpan(std::span<const ValueId>(row)) & kLowBits) ==
          kLowBits) {
        colliding.push_back(row);
      }
    }
  }
  Dataset data(2);
  for (const auto& row : colliding) data.Append(row).CheckOK();
  ASSERT_TRUE(data.Validate().ok());
  data.Append(colliding[137]).CheckOK();
  const Status status = data.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("row 200 "), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace skypref
