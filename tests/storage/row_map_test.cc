#include "storage/row_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/murmur.h"
#include "common/rng.h"
#include "storage/fragment.h"

namespace pstore {
namespace {

/// Home slot of `key` in a map of `capacity` slots (row_map.h: the high
/// half of the key's MurmurHash64A, masked).
size_t HomeSlot(int64_t key, size_t capacity) {
  return static_cast<size_t>(MurmurHash64A(key) >> 32) & (capacity - 1);
}

// Every key homes to one of the last two slots of the minimum (8-slot)
// array, so the probe run wraps past the end. Erasing each member in
// turn must leave every other key reachable.
TEST(RowMapTest, EraseInWrappedProbeRun) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < 6; ++k) {
    if (HomeSlot(k, 8) >= 6) keys.push_back(k);
  }
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    RowMap map;
    for (int64_t k : keys) {
      ASSERT_TRUE(map.try_emplace(k, Row({Value(k)})).second);
    }
    map.erase(map.find(keys[victim]));
    EXPECT_EQ(map.size(), keys.size() - 1);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(map.find(keys[i]) != map.end(), i != victim)
          << "victim " << victim << " key " << keys[i];
    }
  }
}

// A row argument naming a slot of the same map must be read before the
// insert that fills the last free slot under the load bound rehashes
// the array out from under it.
TEST(RowMapTest, TryEmplaceFromOwnSlotAcrossRehash) {
  RowMap map;
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(map.try_emplace(k, Row({Value(k), Value(k * 10)})).second);
  }
  // Size 6 of capacity 8: the next insert grows the array.
  auto [it, inserted] = map.try_emplace(100, map.find(3)->second);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(it->first, 100);
  EXPECT_EQ(it->second, Row({Value(int64_t{3}), Value(int64_t{30})}));
  EXPECT_EQ(map.size(), 7u);
  for (int64_t k = 0; k < 6; ++k) {
    auto found = map.find(k);
    ASSERT_NE(found, map.end()) << "key " << k;
    EXPECT_EQ(found->second.at(1).as_int64(), k * 10);
  }
  // A present key returns its slot without building a row.
  auto [again, fresh] = map.try_emplace(100, map.find(5)->second);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(again->second.at(0).as_int64(), 3);
}

// Differential test: two fragments driven by random Insert / Upsert /
// Delete / Get / Contains and bucket moves between them, against a
// std::map reference per (fragment, table, bucket). A small bucket
// universe and key range keep buckets at tens to hundreds of rows with
// heavy delete churn, so slot arrays grow, probe runs wrap past the end
// of the array, and installs grow non-empty destination maps.
class FragmentDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int32_t kBuckets = 8;
  static constexpr int64_t kKeys = 3000;
  static constexpr int kOps = 100000;

  using Rows = std::map<int64_t, Row>;
  // [fragment][table][bucket] -> rows.
  using Reference = std::vector<std::vector<std::vector<Rows>>>;

  FragmentDifferentialTest() {
    tables_.push_back(*catalog_.AddTable(Schema(
        "T", {{"id", ColumnType::kInt64}, {"payload", ColumnType::kString}},
        0)));
    tables_.push_back(*catalog_.AddTable(Schema(
        "U", {{"id", ColumnType::kInt64}, {"v", ColumnType::kDouble}}, 0)));
    for (int f = 0; f < 2; ++f) {
      frags_.push_back(std::make_unique<StorageFragment>(&catalog_, kBuckets));
    }
    ref_.assign(2, std::vector<std::vector<Rows>>(
                       tables_.size(), std::vector<Rows>(kBuckets)));
  }

  Row RandomRow(size_t t, int64_t key) {
    if (t == 0) {
      return Row({Value(key),
                  Value(std::string(rng_.NextBounded(40), 'x'))});
    }
    return Row({Value(key), Value(rng_.NextDouble())});
  }

  static int64_t Bytes(const Rows& rows) {
    int64_t bytes = 0;
    for (const auto& [key, row] : rows) {
      bytes += static_cast<int64_t>(row.ByteSize());
    }
    return bytes;
  }

  void ExpectCountersMatch(int f) {
    const StorageFragment& frag = *frags_[static_cast<size_t>(f)];
    int64_t total_rows = 0;
    int64_t total_bytes = 0;
    for (size_t t = 0; t < tables_.size(); ++t) {
      int64_t rows = 0;
      for (const Rows& r : ref_[f][t]) rows += static_cast<int64_t>(r.size());
      EXPECT_EQ(frag.RowCount(tables_[t]), rows);
      total_rows += rows;
    }
    for (BucketId b = 0; b < kBuckets; ++b) {
      int64_t bytes = 0;
      int64_t rows = 0;
      for (size_t t = 0; t < tables_.size(); ++t) {
        bytes += Bytes(ref_[f][t][static_cast<size_t>(b)]);
        rows += static_cast<int64_t>(ref_[f][t][static_cast<size_t>(b)].size());
      }
      EXPECT_EQ(frag.BucketBytes(b), bytes);
      EXPECT_EQ(frag.BucketRowCount(b), rows);
      total_bytes += bytes;
    }
    EXPECT_EQ(frag.TotalRowCount(), total_rows);
    EXPECT_EQ(frag.TotalBytes(), total_bytes);
  }

  void ExpectContentsMatch(int f) {
    const StorageFragment& frag = *frags_[static_cast<size_t>(f)];
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (BucketId b = 0; b < kBuckets; ++b) {
        const Rows& rows = ref_[f][t][static_cast<size_t>(b)];
        std::vector<int64_t> keys = frag.BucketKeys(tables_[t], b);
        std::sort(keys.begin(), keys.end());
        std::vector<int64_t> want;
        for (const auto& [key, row] : rows) {
          want.push_back(key);
          auto got = frag.Get(tables_[t], key);
          ASSERT_TRUE(got.ok()) << "fragment " << f << " key " << key;
          EXPECT_EQ(*got, row);
        }
        ASSERT_EQ(keys, want) << "fragment " << f << " table " << t
                              << " bucket " << b;
      }
    }
  }

  // Moves bucket b from fragment `from` to the other one. The engine
  // keeps buckets exclusive; here both fragments may hold rows of one
  // bucket, so installs also grow non-empty maps. Keys the destination
  // already holds are deleted there first.
  void MoveBucket(int from, BucketId b) {
    const int to = 1 - from;
    const auto bi = static_cast<size_t>(b);
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (const auto& [key, row] : ref_[from][t][bi]) {
        if (ref_[to][t][bi].erase(key) > 0) {
          EXPECT_TRUE(frags_[static_cast<size_t>(to)]->Delete(tables_[t], key)
                          .ok());
        }
      }
    }
    auto data = frags_[static_cast<size_t>(from)]->ExtractBucket(b);
    for (const auto& [table, rows] : data) {
      EXPECT_FALSE(rows.empty());
      EXPECT_EQ(rows.size(), ref_[from][static_cast<size_t>(table)][bi].size());
    }
    EXPECT_EQ(frags_[static_cast<size_t>(from)]->BucketBytes(b), 0);
    EXPECT_TRUE(
        frags_[static_cast<size_t>(to)]->InstallBucket(b, std::move(data))
            .ok());
    for (size_t t = 0; t < tables_.size(); ++t) {
      ref_[to][t][bi].merge(ref_[from][t][bi]);
      ref_[from][t][bi].clear();
    }
  }

  Catalog catalog_;
  std::vector<TableId> tables_;
  std::vector<std::unique_ptr<StorageFragment>> frags_;
  Reference ref_;
  Rng rng_{2024};
};

TEST_F(FragmentDifferentialTest, MatchesOrderedMapReference) {
  int moves = 0;
  int deletes = 0;
  int hinted_present = 0;  // Prefetch hints on a key the fragment holds,
  int hinted_absent = 0;   // on one it lacks,
  int hinted_bare = 0;     // and on a bucket holding no rows there.
  for (int op = 0; op < kOps; ++op) {
    const int f = static_cast<int>(rng_.NextBounded(2));
    StorageFragment& frag = *frags_[static_cast<size_t>(f)];
    const size_t t = rng_.NextBounded(tables_.size());
    const TableId table = tables_[t];
    const int64_t key = static_cast<int64_t>(rng_.NextBounded(kKeys));
    const BucketId bucket = KeyToBucket(key, kBuckets);
    Rows& rows = ref_[f][t][static_cast<size_t>(bucket)];
    // Hints between operations, on both fragments, draw nothing from
    // rng_ and must change nothing the reference comparison sees.
    for (int g = 0; g < 2; ++g) {
      const StorageFragment& hinted = *frags_[static_cast<size_t>(g)];
      hinted.PrefetchSlots(bucket, key);
      hinted.PrefetchRows(bucket, key);
      if (hinted.BucketRowCount(bucket) == 0) {
        ++hinted_bare;
      } else if (hinted.Contains(table, key)) {
        ++hinted_present;
      } else {
        ++hinted_absent;
      }
    }
    const uint64_t kind = rng_.NextBounded(100);
    if (kind < 25) {  // Insert
      Row row = RandomRow(t, key);
      const Status st = frag.Insert(table, row);
      const bool fresh = rows.emplace(key, row).second;
      EXPECT_EQ(st.ok(), fresh) << "op " << op;
      EXPECT_TRUE(fresh || st.IsAlreadyExists());
    } else if (kind < 45) {  // Upsert
      Row row = RandomRow(t, key);
      EXPECT_TRUE(frag.Upsert(table, row).ok());
      rows.insert_or_assign(key, row);
    } else if (kind < 75) {  // Delete
      const Status st = frag.Delete(table, key);
      const bool present = rows.erase(key) > 0;
      EXPECT_EQ(st.ok(), present) << "op " << op;
      if (present) ++deletes;
    } else if (kind < 85) {  // Get
      auto got = frag.Get(table, key);
      auto it = rows.find(key);
      ASSERT_EQ(got.ok(), it != rows.end()) << "op " << op;
      if (got.ok()) {
        EXPECT_EQ(*got, it->second);
      }
    } else if (kind < 95) {  // Contains
      EXPECT_EQ(frag.Contains(table, key), rows.count(key) > 0);
    } else {  // Move a bucket to the other fragment.
      const auto moved = static_cast<BucketId>(rng_.NextBounded(kBuckets));
      MoveBucket(f, moved);
      ++moves;
      frag.PrefetchSlots(moved, key);  // Just extracted here.
      frag.PrefetchRows(moved, key);
      ExpectCountersMatch(0);
      ExpectCountersMatch(1);
    }
    if (op % 2000 == 0 || HasFailure()) {
      for (int g = 0; g < 2; ++g) {
        ExpectCountersMatch(g);
        ExpectContentsMatch(g);
      }
      ASSERT_FALSE(HasFailure()) << "diverged by op " << op;
    }
  }
  for (int g = 0; g < 2; ++g) {
    ExpectCountersMatch(g);
    ExpectContentsMatch(g);
  }
  EXPECT_GT(moves, 100);
  EXPECT_GT(deletes, 5000);
  EXPECT_GT(hinted_present, 1000);
  EXPECT_GT(hinted_absent, 1000);
  EXPECT_GT(hinted_bare, 1000);
}

}  // namespace
}  // namespace pstore
