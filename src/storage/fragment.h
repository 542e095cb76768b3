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

  /// Total rows across tables.
  int64_t TotalRowCount() const;

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

 private:
  /// Rows of one held bucket, indexed by table.
  struct HeldBucket {
    BucketId bucket;
    std::vector<BucketRows> tables;
  };

  /// The rows of (table, bucket), or nullptr if no map is held for them.
  const BucketRows* RowsOf(TableId table, BucketId bucket) const;
  /// The rows of (table, bucket), creating an empty map if needed.
  BucketRows& MutableRowsOf(TableId table, BucketId bucket);

  const Catalog* catalog_;
  int32_t num_buckets_;
  /// bucket -> index into held_, or -1. Dense, so finding a bucket's
  /// rows is one load; held_ has an entry only for buckets that got rows
  /// here since they last left (ExtractBucket drops it).
  std::vector<int32_t> held_index_;
  std::vector<HeldBucket> held_;
  std::vector<int64_t> row_counts_;    ///< Per table.
  std::vector<int64_t> bucket_bytes_;  ///< Per bucket.
  int64_t total_bytes_ = 0;
};

}  // namespace pstore
