#include "storage/fragment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace pstore {
namespace {

class FragmentTest : public ::testing::Test {
 protected:
  FragmentTest() {
    auto id = catalog_.AddTable(Schema(
        "T", {{"id", ColumnType::kInt64}, {"payload", ColumnType::kString}},
        0));
    table_ = *id;
    auto id2 = catalog_.AddTable(
        Schema("U", {{"id", ColumnType::kInt64}}, 0));
    table2_ = *id2;
  }

  Row MakeRow(int64_t key, const std::string& payload = "p") {
    return Row({Value(key), Value(payload)});
  }

  Catalog catalog_;
  TableId table_;
  TableId table2_;
};

TEST_F(FragmentTest, InsertAndGet) {
  StorageFragment frag(&catalog_, 16);
  ASSERT_TRUE(frag.Insert(table_, MakeRow(1, "a")).ok());
  auto row = frag.Get(table_, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at(1).as_string(), "a");
  EXPECT_TRUE(frag.Contains(table_, 1));
  EXPECT_FALSE(frag.Contains(table_, 2));
}

TEST_F(FragmentTest, InsertDuplicateFails) {
  StorageFragment frag(&catalog_, 16);
  ASSERT_TRUE(frag.Insert(table_, MakeRow(1)).ok());
  EXPECT_TRUE(frag.Insert(table_, MakeRow(1)).IsAlreadyExists());
  EXPECT_EQ(frag.RowCount(table_), 1);
}

TEST_F(FragmentTest, InsertValidatesSchema) {
  StorageFragment frag(&catalog_, 16);
  EXPECT_TRUE(frag.Insert(table_, Row({Value(int64_t{1})}))
                  .IsInvalidArgument());
}

TEST_F(FragmentTest, UpsertInsertsAndReplaces) {
  StorageFragment frag(&catalog_, 16);
  ASSERT_TRUE(frag.Upsert(table_, MakeRow(5, "v1")).ok());
  ASSERT_TRUE(frag.Upsert(table_, MakeRow(5, "v2")).ok());
  EXPECT_EQ(frag.RowCount(table_), 1);
  EXPECT_EQ(frag.Get(table_, 5)->at(1).as_string(), "v2");
}

TEST_F(FragmentTest, DeleteRemoves) {
  StorageFragment frag(&catalog_, 16);
  ASSERT_TRUE(frag.Insert(table_, MakeRow(3)).ok());
  ASSERT_TRUE(frag.Delete(table_, 3).ok());
  EXPECT_FALSE(frag.Contains(table_, 3));
  EXPECT_TRUE(frag.Delete(table_, 3).IsNotFound());
  EXPECT_EQ(frag.RowCount(table_), 0);
}

TEST_F(FragmentTest, GetMissingIsNotFound) {
  StorageFragment frag(&catalog_, 16);
  EXPECT_TRUE(frag.Get(table_, 99).status().IsNotFound());
}

TEST_F(FragmentTest, ByteAccountingTracksMutations) {
  StorageFragment frag(&catalog_, 16);
  EXPECT_EQ(frag.TotalBytes(), 0);
  ASSERT_TRUE(frag.Insert(table_, MakeRow(1, std::string(100, 'x'))).ok());
  const int64_t after_insert = frag.TotalBytes();
  EXPECT_GT(after_insert, 100);
  ASSERT_TRUE(frag.Upsert(table_, MakeRow(1, std::string(200, 'x'))).ok());
  EXPECT_GT(frag.TotalBytes(), after_insert);
  ASSERT_TRUE(frag.Delete(table_, 1).ok());
  EXPECT_EQ(frag.TotalBytes(), 0);
}

TEST_F(FragmentTest, BucketBytesSumsToTotal) {
  StorageFragment frag(&catalog_, 8);
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(frag.Insert(table_, MakeRow(k)).ok());
  }
  int64_t sum = 0;
  for (BucketId b = 0; b < 8; ++b) sum += frag.BucketBytes(b);
  EXPECT_EQ(sum, frag.TotalBytes());
}

TEST_F(FragmentTest, RowCountsPerTable) {
  StorageFragment frag(&catalog_, 8);
  ASSERT_TRUE(frag.Insert(table_, MakeRow(1)).ok());
  ASSERT_TRUE(frag.Insert(table2_, Row({Value(int64_t{1})})).ok());
  ASSERT_TRUE(frag.Insert(table2_, Row({Value(int64_t{2})})).ok());
  EXPECT_EQ(frag.RowCount(table_), 1);
  EXPECT_EQ(frag.RowCount(table2_), 2);
  EXPECT_EQ(frag.TotalRowCount(), 3);
}

TEST_F(FragmentTest, ExtractInstallMovesAllTables) {
  StorageFragment src(&catalog_, 4);
  StorageFragment dst(&catalog_, 4);
  // Find keys landing in bucket 2.
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < 10; ++k) {
    if (KeyToBucket(k, 4) == 2) keys.push_back(k);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(src.Insert(table_, MakeRow(k)).ok());
    ASSERT_TRUE(src.Insert(table2_, Row({Value(k)})).ok());
  }
  const int64_t bytes_before = src.BucketBytes(2);
  auto data = src.ExtractBucket(2);
  EXPECT_EQ(src.TotalRowCount(), 0);
  EXPECT_EQ(src.BucketBytes(2), 0);
  ASSERT_TRUE(dst.InstallBucket(2, std::move(data)).ok());
  EXPECT_EQ(dst.TotalRowCount(), 20);
  EXPECT_EQ(dst.BucketBytes(2), bytes_before);
  for (int64_t k : keys) {
    EXPECT_TRUE(dst.Contains(table_, k));
    EXPECT_TRUE(dst.Contains(table2_, k));
  }
}

TEST_F(FragmentTest, ExtractEmptyBucketIsEmpty) {
  StorageFragment frag(&catalog_, 4);
  EXPECT_TRUE(frag.ExtractBucket(1).empty());
}

TEST_F(FragmentTest, InstallCollisionIsInternalError) {
  StorageFragment a(&catalog_, 4);
  StorageFragment b(&catalog_, 4);
  int64_t key = 0;
  while (KeyToBucket(key, 4) != 1) ++key;
  ASSERT_TRUE(a.Insert(table_, MakeRow(key)).ok());
  ASSERT_TRUE(b.Insert(table_, MakeRow(key)).ok());
  auto data = a.ExtractBucket(1);
  EXPECT_TRUE(b.InstallBucket(1, std::move(data)).IsInternal());
}

TEST_F(FragmentTest, FailedInstallLeavesFragmentUnchanged) {
  // One bucket, so every key lands in it. The destination already holds
  // U/7; the shipped data is T/5 followed by the colliding U/7.
  StorageFragment dest(&catalog_, 1);
  ASSERT_TRUE(dest.Insert(table2_, Row({Value(int64_t{7})})).ok());
  const int64_t bytes_before = dest.TotalBytes();
  ASSERT_EQ(bytes_before, 72);  // 24 + 40 + 8: one single-BIGINT row.
  std::vector<std::pair<TableId, BucketRows>> data(2);
  data[0].first = table_;
  data[0].second.try_emplace(5, MakeRow(5));
  data[1].first = table2_;
  data[1].second.try_emplace(7, Row({Value(int64_t{7})}));
  EXPECT_TRUE(dest.InstallBucket(0, std::move(data)).IsInternal());
  // All or nothing: T/5 was not installed, and the counts and bytes
  // still describe exactly the one row held.
  EXPECT_FALSE(dest.Contains(table_, 5));
  EXPECT_EQ(dest.RowCount(table_), 0);
  EXPECT_EQ(dest.TotalRowCount(), 1);
  EXPECT_EQ(dest.BucketRowCount(0), 1);
  EXPECT_EQ(dest.TotalBytes(), bytes_before);
  EXPECT_EQ(dest.BucketBytes(0), bytes_before);
}

TEST_F(FragmentTest, BucketKeysListsBucketContents) {
  StorageFragment frag(&catalog_, 4);
  std::vector<int64_t> expected;
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(frag.Insert(table_, MakeRow(k)).ok());
    if (KeyToBucket(k, 4) == 0) expected.push_back(k);
  }
  auto keys = frag.BucketKeys(table_, 0);
  EXPECT_EQ(keys.size(), expected.size());
}

// Extracting a held bucket that is not the directory's last entry moves
// the last entry's maps into its place; the moved bucket must still
// answer every lookup, and the extracted one must install back.
TEST_F(FragmentTest, ExtractMiddleEntryKeepsMovedBucketWhole) {
  constexpr int32_t kBuckets = 8;
  StorageFragment frag(&catalog_, kBuckets);
  // Three keys per bucket for buckets 0, 1 and 2, inserted bucket by
  // bucket so the entries are held in that order. Table U gets only the
  // first key of each bucket, so each U map holds one row.
  std::vector<std::vector<int64_t>> keys(3);
  for (int64_t k = 0; keys[0].size() < 3 || keys[1].size() < 3 ||
                      keys[2].size() < 3;
       ++k) {
    const BucketId b = KeyToBucket(k, kBuckets);
    if (b < 3 && keys[static_cast<size_t>(b)].size() < 3) {
      keys[static_cast<size_t>(b)].push_back(k);
    }
  }
  for (BucketId b = 0; b < 3; ++b) {
    const std::vector<int64_t>& in_b = keys[static_cast<size_t>(b)];
    for (int64_t k : in_b) {
      ASSERT_TRUE(
          frag.Insert(table_,
                      MakeRow(k, std::string("b").append(std::to_string(b))))
              .ok());
    }
    ASSERT_TRUE(frag.Insert(table2_, Row({Value(in_b[0])})).ok());
  }
  const int64_t bytes0 = frag.BucketBytes(0);
  const int64_t bytes2 = frag.BucketBytes(2);

  auto data = frag.ExtractBucket(0);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(frag.TotalRowCount(), 8);
  EXPECT_EQ(frag.BucketRowCount(0), 0);
  EXPECT_EQ(frag.BucketBytes(0), 0);
  // Bucket 2 (the last entry) now sits where bucket 0 was.
  for (BucketId b : {1, 2}) {
    const std::vector<int64_t>& want = keys[static_cast<size_t>(b)];
    EXPECT_EQ(frag.BucketRowCount(b), 4) << "bucket " << b;
    std::vector<int64_t> got = frag.BucketKeys(table_, b);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "bucket " << b;
    EXPECT_EQ(frag.BucketKeys(table2_, b),
              std::vector<int64_t>{want[0]}) << "bucket " << b;
    for (int64_t k : want) {
      auto row = frag.Get(table_, k);
      ASSERT_TRUE(row.ok()) << "key " << k;
      EXPECT_EQ(row->at(1).as_string(),
                std::string("b").append(std::to_string(b)));
      EXPECT_TRUE(frag.Contains(table_, k));
      EXPECT_EQ(frag.Contains(table2_, k), k == want[0]);
    }
  }
  EXPECT_EQ(frag.BucketBytes(2), bytes2);
  for (int64_t k : keys[0]) EXPECT_FALSE(frag.Contains(table_, k));

  ASSERT_TRUE(frag.InstallBucket(0, std::move(data)).ok());
  EXPECT_EQ(frag.TotalRowCount(), 12);
  EXPECT_EQ(frag.RowCount(table_), 9);
  EXPECT_EQ(frag.RowCount(table2_), 3);
  EXPECT_EQ(frag.BucketRowCount(0), 4);
  EXPECT_EQ(frag.BucketBytes(0), bytes0);
  for (int64_t k : keys[0]) {
    ASSERT_TRUE(frag.Get(table_, k).ok()) << "key " << k;
    EXPECT_EQ(frag.Get(table_, k)->at(1).as_string(), "b0");
  }
  EXPECT_TRUE(frag.Contains(table2_, keys[0][0]));
}

// The prefetch hints read and change nothing a lookup can see, whatever
// the bucket holds: rows, an emptied map, a never-touched table map, no
// entry at all, or an entry just extracted.
TEST_F(FragmentTest, PrefetchHintsChangeNothing) {
  StorageFragment frag(&catalog_, 4);
  int64_t key = 0;
  while (KeyToBucket(key, 4) != 1) ++key;
  int64_t other = key + 1;
  while (KeyToBucket(other, 4) != 1) ++other;
  auto hint_all = [&frag](int64_t k) {
    for (BucketId b = 0; b < 4; ++b) {
      frag.PrefetchSlots(b, k);
      frag.PrefetchRows(b, k);
    }
  };
  hint_all(key);  // Nothing held.
  ASSERT_TRUE(frag.Insert(table_, MakeRow(key, "v")).ok());
  ASSERT_TRUE(frag.Insert(table_, MakeRow(other, "w")).ok());
  ASSERT_TRUE(frag.Delete(table_, other).ok());
  const int64_t bytes = frag.TotalBytes();
  hint_all(key);    // Present in T; U's map was never allocated.
  hint_all(other);  // Absent, in a held bucket.
  EXPECT_EQ(frag.TotalRowCount(), 1);
  EXPECT_EQ(frag.TotalBytes(), bytes);
  EXPECT_EQ(frag.Get(table_, key)->at(1).as_string(), "v");
  EXPECT_FALSE(frag.Contains(table_, other));
  ASSERT_TRUE(frag.Delete(table_, key).ok());
  hint_all(key);  // Held, every map empty.
  ASSERT_TRUE(frag.Insert(table_, MakeRow(key, "x")).ok());
  auto data = frag.ExtractBucket(1);
  hint_all(key);  // Just extracted.
  EXPECT_EQ(frag.TotalRowCount(), 0);
  EXPECT_EQ(frag.TotalBytes(), 0);
  ASSERT_TRUE(frag.InstallBucket(1, std::move(data)).ok());
  EXPECT_EQ(frag.Get(table_, key)->at(1).as_string(), "x");
}

}  // namespace
}  // namespace pstore
