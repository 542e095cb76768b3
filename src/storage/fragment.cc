#include "storage/fragment.h"

#include <cassert>

namespace pstore {

namespace {

Status InstallCollision(BucketId bucket, int64_t key) {
  return Status::Internal("bucket " + std::to_string(bucket) + " key " +
                          std::to_string(key) +
                          " already present at destination");
}

}  // namespace

StorageFragment::StorageFragment(const Catalog* catalog, int32_t num_buckets)
    : catalog_(catalog),
      num_buckets_(num_buckets),
      num_tables_(catalog->num_tables()) {
  assert(catalog != nullptr);
  assert(num_buckets > 0);
  held_index_.assign(static_cast<size_t>(num_buckets), -1);
  row_counts_.assign(num_tables_, 0);
  bucket_bytes_.assign(static_cast<size_t>(num_buckets), 0);
}

const BucketRows* StorageFragment::RowsOf(TableId table,
                                          BucketId bucket) const {
  const int32_t h = held_index_[static_cast<size_t>(bucket)];
  const auto t = static_cast<size_t>(table);
  if (h < 0 || table < 0 || t >= num_tables_) return nullptr;
  return MapsOf(h) + t;
}

BucketRows& StorageFragment::MutableRowsOf(TableId table, BucketId bucket) {
  const auto t = static_cast<size_t>(table);
  // A table registered after construction has no maps here.
  assert(t < num_tables_);
  int32_t& h = held_index_[static_cast<size_t>(bucket)];
  if (h < 0) {
    h = static_cast<int32_t>(held_bucket_.size());
    held_bucket_.push_back(bucket);
    maps_.resize(maps_.size() + num_tables_);
  }
  return maps_[static_cast<size_t>(h) * num_tables_ + t];
}

Status StorageFragment::Insert(TableId table, const Row& row) {
  const Schema& schema = catalog_->GetSchema(table);
  PSTORE_RETURN_NOT_OK(schema.Validate(row));
  const int64_t key = schema.PartitionKey(row);
  const BucketId bucket = KeyToBucket(key, num_buckets_);
  auto [it, inserted] = MutableRowsOf(table, bucket).try_emplace(key, row);
  if (!inserted) {
    return Status::AlreadyExists("key " + std::to_string(key) +
                                 " already exists in table '" +
                                 schema.name() + "'");
  }
  const int64_t bytes = static_cast<int64_t>(it->second.ByteSize());
  bucket_bytes_[static_cast<size_t>(bucket)] += bytes;
  total_bytes_ += bytes;
  ++row_counts_[static_cast<size_t>(table)];
  ++total_rows_;
  return Status::OK();
}

Status StorageFragment::Upsert(TableId table, const Row& row) {
  const Schema& schema = catalog_->GetSchema(table);
  PSTORE_RETURN_NOT_OK(schema.Validate(row));
  const int64_t key = schema.PartitionKey(row);
  const BucketId bucket = KeyToBucket(key, num_buckets_);
  auto [it, inserted] = MutableRowsOf(table, bucket).try_emplace(key, row);
  int64_t delta = static_cast<int64_t>(row.ByteSize());
  if (inserted) {
    ++row_counts_[static_cast<size_t>(table)];
    ++total_rows_;
  } else {
    delta -= static_cast<int64_t>(it->second.ByteSize());
    it->second = row;
  }
  bucket_bytes_[static_cast<size_t>(bucket)] += delta;
  total_bytes_ += delta;
  return Status::OK();
}

Result<Row> StorageFragment::Get(TableId table, int64_t key) const {
  const BucketRows* rows = RowsOf(table, KeyToBucket(key, num_buckets_));
  if (rows != nullptr) {
    auto it = rows->find(key);
    if (it != rows->end()) return it->second;
  }
  return Status::NotFound("key " + std::to_string(key) + " not found");
}

bool StorageFragment::Contains(TableId table, int64_t key) const {
  const BucketRows* rows = RowsOf(table, KeyToBucket(key, num_buckets_));
  return rows != nullptr && rows->find(key) != rows->end();
}

Status StorageFragment::Delete(TableId table, int64_t key) {
  const BucketId bucket = KeyToBucket(key, num_buckets_);
  auto* rows = const_cast<BucketRows*>(RowsOf(table, bucket));
  if (rows != nullptr) {
    auto it = rows->find(key);
    if (it != rows->end()) {
      const int64_t bytes = static_cast<int64_t>(it->second.ByteSize());
      rows->erase(it);
      bucket_bytes_[static_cast<size_t>(bucket)] -= bytes;
      total_bytes_ -= bytes;
      --row_counts_[static_cast<size_t>(table)];
      --total_rows_;
      return Status::OK();
    }
  }
  return Status::NotFound("key " + std::to_string(key) + " not found");
}

int64_t StorageFragment::RowCount(TableId table) const {
  const auto t = static_cast<size_t>(table);
  return table < 0 || t >= row_counts_.size() ? 0 : row_counts_[t];
}

int64_t StorageFragment::BucketRowCount(BucketId bucket) const {
  const int32_t h = held_index_[static_cast<size_t>(bucket)];
  if (h < 0) return 0;
  const BucketRows* maps = MapsOf(h);
  int64_t rows = 0;
  for (size_t t = 0; t < num_tables_; ++t) {
    rows += static_cast<int64_t>(maps[t].size());
  }
  return rows;
}

int64_t StorageFragment::BucketBytes(BucketId bucket) const {
  return bucket_bytes_[static_cast<size_t>(bucket)];
}

std::vector<std::pair<TableId, BucketRows>> StorageFragment::ExtractBucket(
    BucketId bucket) {
  std::vector<std::pair<TableId, BucketRows>> out;
  total_bytes_ -= bucket_bytes_[static_cast<size_t>(bucket)];
  bucket_bytes_[static_cast<size_t>(bucket)] = 0;
  int32_t& h = held_index_[static_cast<size_t>(bucket)];
  if (h < 0) return out;
  const size_t base = static_cast<size_t>(h) * num_tables_;
  for (size_t t = 0; t < num_tables_; ++t) {
    BucketRows& rows = maps_[base + t];
    if (rows.empty()) continue;
    const auto n = static_cast<int64_t>(rows.size());
    row_counts_[t] -= n;
    total_rows_ -= n;
    out.emplace_back(static_cast<TableId>(t), std::move(rows));
  }
  // Drop the entry: the last one's maps move (never rehash) into its
  // place.
  const size_t last = held_bucket_.size() - 1;
  if (static_cast<size_t>(h) != last) {
    for (size_t t = 0; t < num_tables_; ++t) {
      maps_[base + t] = std::move(maps_[last * num_tables_ + t]);
    }
    const BucketId moved = held_bucket_[last];
    held_bucket_[static_cast<size_t>(h)] = moved;
    held_index_[static_cast<size_t>(moved)] = h;
  }
  held_bucket_.pop_back();
  maps_.resize(last * num_tables_);
  h = -1;
  return out;
}

Status StorageFragment::InstallBucket(
    BucketId bucket, std::vector<std::pair<TableId, BucketRows>> data) {
  // All or nothing: refuse before any row moves if a key is present.
  for (const auto& [table, rows] : data) {
    const BucketRows* dest = RowsOf(table, bucket);
    if (dest == nullptr || dest->empty()) continue;
    for (const auto& [key, row] : rows) {
      if (dest->find(key) != dest->end()) return InstallCollision(bucket, key);
    }
  }
  for (auto& [table, rows] : data) {
    BucketRows& dest = MutableRowsOf(table, bucket);
    for (auto& [key, row] : rows) {
      const int64_t bytes = static_cast<int64_t>(row.ByteSize());
      // Only a key repeated within `data` itself can collide here; the
      // rows already installed stay fully accounted.
      if (!dest.try_emplace(key, std::move(row)).second) {
        return InstallCollision(bucket, key);
      }
      bucket_bytes_[static_cast<size_t>(bucket)] += bytes;
      total_bytes_ += bytes;
      ++row_counts_[static_cast<size_t>(table)];
      ++total_rows_;
    }
  }
  return Status::OK();
}

std::vector<int64_t> StorageFragment::BucketKeys(TableId table,
                                                 BucketId bucket) const {
  std::vector<int64_t> keys;
  const BucketRows* rows = RowsOf(table, bucket);
  if (rows == nullptr) return keys;
  keys.reserve(rows->size());
  for (const auto& [key, row] : *rows) keys.push_back(key);
  return keys;
}

void StorageFragment::PrefetchSlots(BucketId bucket, int64_t key) const {
  const int32_t h = held_index_[static_cast<size_t>(bucket)];
  if (h < 0) return;
  const BucketRows* maps = MapsOf(h);
  for (size_t t = 0; t < num_tables_; ++t) maps[t].PrefetchHome(key);
}

void StorageFragment::PrefetchRows(BucketId bucket, int64_t key) const {
  const int32_t h = held_index_[static_cast<size_t>(bucket)];
  if (h < 0) return;
  const BucketRows* maps = MapsOf(h);
  for (size_t t = 0; t < num_tables_; ++t) maps[t].PrefetchRow(key);
}

}  // namespace pstore
