#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/partition_map.h"
#include "storage/row_map.h"
#include "storage/schema.h"
#include "storage/value.h"

/// \file fragment.h
/// Per-partition storage. Each partition holds a StorageFragment: for
/// every table, the rows of the buckets this partition currently owns,
/// grouped by bucket so live migration can extract or install a bucket's
/// rows as a unit.

namespace pstore {

/// Rows of one (table, bucket), keyed by partitioning key.
using BucketRows = RowMap;

/// \brief All data a single partition owns.
///
/// Byte sizes are tracked incrementally so migration chunking and the
/// "fraction of database migrated" accounting (Equation 7's f) are O(1).
class StorageFragment {
 public:
  /// \param catalog shared table registry (not owned; must outlive this)
  /// \param num_buckets bucket universe size (matches the PartitionMap)
  StorageFragment(const Catalog* catalog, int32_t num_buckets);

  /// Inserts a row; fails with AlreadyExists if the key is present.
  Status Insert(TableId table, const Row& row);

  /// Inserts or replaces the row for its key.
  Status Upsert(TableId table, const Row& row);

  /// Fetches a row by key; NotFound if absent.
  Result<Row> Get(TableId table, int64_t key) const;

  /// True if the key is present.
  bool Contains(TableId table, int64_t key) const;

  /// Deletes a row by key; NotFound if absent.
  Status Delete(TableId table, int64_t key);

  /// Number of rows stored for a table across all buckets.
  int64_t RowCount(TableId table) const;

  /// Total rows across tables (a running count, O(1)).
  int64_t TotalRowCount() const { return total_rows_; }

  /// Approximate bytes held for one bucket across all tables.
  int64_t BucketBytes(BucketId bucket) const;

  /// Rows held for one bucket across all tables (the invariant checker
  /// uses this to detect rows stranded on a partition that does not own
  /// the bucket).
  int64_t BucketRowCount(BucketId bucket) const;

  /// Approximate total bytes held.
  int64_t TotalBytes() const { return total_bytes_; }

  /// \brief Removes and returns all rows of one bucket (all tables), as
  /// (table, rows) pairs — the unit of data the migration system ships.
  std::vector<std::pair<TableId, BucketRows>> ExtractBucket(BucketId bucket);

  /// \brief Installs rows previously extracted from another fragment.
  /// Keys must not already exist here (buckets are owned exclusively);
  /// if one does, nothing is installed and the call returns Internal.
  Status InstallBucket(BucketId bucket,
                       std::vector<std::pair<TableId, BucketRows>> data);

  /// Keys present for a table in one bucket, in no particular order
  /// (replica rebuilds copy a bucket key by key; the invariant checker
  /// compares primary and backup).
  std::vector<int64_t> BucketKeys(TableId table, BucketId bucket) const;

  int32_t num_buckets() const { return num_buckets_; }

  /// \brief Hints the CPU to load `key`'s home slot in every table map
  /// held for `bucket`. Changes no state and is safe for any pair; it
  /// helps when `bucket` is KeyToBucket(key). A no-op for an unheld
  /// bucket or an empty map.
  void PrefetchSlots(BucketId bucket, int64_t key) const;

  /// \brief Probes `key` in every table map held for `bucket` and hints
  /// the CPU to load each matching row's body. Changes no state; pays
  /// off once PrefetchSlots(bucket, key) has had time to land.
  void PrefetchRows(BucketId bucket, int64_t key) const;

 private:
  /// The rows of (table, bucket), or nullptr if no map is held for them.
  const BucketRows* RowsOf(TableId table, BucketId bucket) const;
  /// The rows of (table, bucket), creating the bucket's maps if needed.
  BucketRows& MutableRowsOf(TableId table, BucketId bucket);
  /// The num_tables_ maps of held entry `h`.
  const BucketRows* MapsOf(int32_t h) const {
    return maps_.data() + static_cast<size_t>(h) * num_tables_;
  }

  const Catalog* catalog_;
  int32_t num_buckets_;
  size_t num_tables_;  ///< The catalog's table count at construction.
  /// bucket -> held entry h, or -1. Dense, so finding a bucket's rows is
  /// one load. Only buckets that got rows here since they last left have
  /// an entry (ExtractBucket drops it, moving the last entry into its
  /// place).
  std::vector<int32_t> held_index_;
  std::vector<BucketId> held_bucket_;  ///< h -> bucket.
  /// The row directory: the map of (held entry h, table t) at
  /// h * num_tables_ + t, one flat array for every held bucket.
  std::vector<BucketRows> maps_;
  std::vector<int64_t> row_counts_;    ///< Per table.
  std::vector<int64_t> bucket_bytes_;  ///< Per bucket.
  int64_t total_rows_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace pstore
