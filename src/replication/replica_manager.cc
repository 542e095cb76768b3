#include "replication/replica_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pstore {
namespace replication {

namespace {
/// Rate at which a restarting node loads its last checkpoint.
constexpr double kCheckpointLoadKbps = 102400.0;
/// Replay cost per logged command during restart recovery.
constexpr double kReplayUsPerEntry = 100.0;
}  // namespace

ReplicaManager::ReplicaManager(const Catalog* catalog,
                               ReplicationConfig config, int32_t num_buckets,
                               int32_t total_partitions,
                               int32_t partitions_per_node)
    : catalog_(catalog),
      config_(config),
      num_buckets_(num_buckets),
      partitions_per_node_(partitions_per_node) {
  backups_.reserve(static_cast<size_t>(total_partitions));
  for (int32_t p = 0; p < total_partitions; ++p) {
    backups_.push_back(
        std::make_unique<StorageFragment>(catalog_, num_buckets_));
  }
  replicas_.resize(static_cast<size_t>(num_buckets_));
  backup_count_.assign(static_cast<size_t>(total_partitions), 0);
  rebuild_target_.assign(static_cast<size_t>(num_buckets_), -1);
  rebuild_gen_.assign(static_cast<size_t>(num_buckets_), 0);
  int32_t num_nodes = total_partitions / partitions_per_node_;
  if (config_.durability.enabled) {
    auto content =
        std::make_unique<durability::ContentDurableStore>(num_nodes);
    content_ = content.get();
    durable_ = std::move(content);
  } else {
    durable_ = std::make_unique<durability::CountingDurableStore>(num_nodes);
  }
}

int64_t ReplicaManager::degraded_buckets() const {
  int64_t degraded = 0;
  for (BucketId b = 0; b < num_buckets_; ++b) {
    if (IsDegraded(b)) ++degraded;
  }
  return degraded;
}

int64_t ReplicaManager::BackupBucketsOnNode(NodeId n) const {
  int64_t total = 0;
  for (int32_t i = 0; i < partitions_per_node_; ++i) {
    PartitionId q = n * partitions_per_node_ + i;
    if (q < static_cast<PartitionId>(backup_count_.size())) {
      total += backup_count_[static_cast<size_t>(q)];
    }
  }
  return total;
}

bool ReplicaManager::HasReplicaOn(BucketId b, PartitionId q) const {
  const auto& list = replicas_[static_cast<size_t>(b)];
  return std::find(list.begin(), list.end(), q) != list.end();
}

void ReplicaManager::AddReplica(BucketId b, PartitionId q) {
  auto& list = replicas_[static_cast<size_t>(b)];
  list.insert(std::upper_bound(list.begin(), list.end(), q), q);
  ++backup_count_[static_cast<size_t>(q)];
}

bool ReplicaManager::RemoveReplica(BucketId b, PartitionId q) {
  auto& list = replicas_[static_cast<size_t>(b)];
  auto it = std::find(list.begin(), list.end(), q);
  if (it == list.end()) return false;
  list.erase(it);
  --backup_count_[static_cast<size_t>(q)];
  backups_[static_cast<size_t>(q)]->ExtractBucket(b);  // Discard rows.
  ++replicas_dropped_;
  return true;
}

PartitionId ReplicaManager::Promote(BucketId b) {
  auto& list = replicas_[static_cast<size_t>(b)];
  if (list.empty()) return -1;
  PartitionId q = list.front();  // Sorted: lowest id, deterministic.
  list.erase(list.begin());
  --backup_count_[static_cast<size_t>(q)];
  ++promotions_;
  return q;
}

PartitionId ReplicaManager::Promote(
    BucketId b, const std::function<bool(PartitionId)>& eligible) {
  auto& list = replicas_[static_cast<size_t>(b)];
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (!eligible(*it)) continue;
    const PartitionId q = *it;  // Sorted: lowest eligible id wins.
    list.erase(it);
    --backup_count_[static_cast<size_t>(q)];
    ++promotions_;
    return q;
  }
  return -1;
}

Status ReplicaManager::MoveReplica(BucketId b, PartitionId from,
                                   PartitionId to) {
  auto& list = replicas_[static_cast<size_t>(b)];
  auto it = std::find(list.begin(), list.end(), from);
  if (it == list.end()) {
    return Status::FailedPrecondition("no replica of bucket on partition");
  }
  list.erase(it);
  --backup_count_[static_cast<size_t>(from)];
  auto data = backups_[static_cast<size_t>(from)]->ExtractBucket(b);
  Status s =
      backups_[static_cast<size_t>(to)]->InstallBucket(b, std::move(data));
  if (!s.ok()) return s;
  list.insert(std::upper_bound(list.begin(), list.end(), to), to);
  ++backup_count_[static_cast<size_t>(to)];
  ++replica_relocations_;
  return Status::OK();
}

int64_t ReplicaManager::DropReplicasOnNode(NodeId n) {
  int64_t dropped = 0;
  for (BucketId b = 0; b < num_buckets_; ++b) {
    auto& list = replicas_[static_cast<size_t>(b)];
    for (size_t i = 0; i < list.size();) {
      if (node_of(list[i]) == n) {
        PartitionId q = list[i];
        list.erase(list.begin() + static_cast<int64_t>(i));
        --backup_count_[static_cast<size_t>(q)];
        backups_[static_cast<size_t>(q)]->ExtractBucket(b);
        ++replicas_dropped_;
        ++dropped;
      } else {
        ++i;
      }
    }
  }
  return dropped;
}

bool ReplicaManager::IsDomainDiverse(BucketId b, NodeId primary_node) const {
  if (policy_ == nullptr) return true;
  const auto& list = replicas_[static_cast<size_t>(b)];
  if (list.empty()) return true;
  for (PartitionId r : list) {
    if (!policy_->SameDomain(primary_node, node_of(r))) return true;
  }
  return false;
}

int64_t ReplicaManager::TotalBackupRowCount() const {
  int64_t total = 0;
  for (const auto& frag : backups_) total += frag->TotalRowCount();
  return total;
}

double ReplicaManager::kb_per_bucket() const {
  return config_.db_size_mb * 1024.0 / static_cast<double>(num_buckets_);
}

int32_t ReplicaManager::chunks_per_rebuild() const {
  int32_t chunks =
      static_cast<int32_t>(std::ceil(kb_per_bucket() / config_.rebuild_chunk_kb));
  return chunks < 1 ? 1 : chunks;
}

int64_t ReplicaManager::BeginRebuild(BucketId b, PartitionId target) {
  rebuild_target_[static_cast<size_t>(b)] = target;
  ++rebuilds_in_flight_;
  ++rebuilds_started_;
  return ++rebuild_gen_[static_cast<size_t>(b)];
}

void ReplicaManager::CancelRebuild(BucketId b) {
  if (rebuild_target_[static_cast<size_t>(b)] < 0) return;
  rebuild_target_[static_cast<size_t>(b)] = -1;
  ++rebuild_gen_[static_cast<size_t>(b)];  // Invalidate pending chunks.
  --rebuilds_in_flight_;
}

int64_t ReplicaManager::CancelRebuildsTargeting(NodeId n) {
  int64_t cancelled = 0;
  for (BucketId b = 0; b < num_buckets_; ++b) {
    PartitionId t = rebuild_target_[static_cast<size_t>(b)];
    if (t >= 0 && node_of(t) == n) {
      CancelRebuild(b);
      ++cancelled;
    }
  }
  return cancelled;
}

Status ReplicaManager::InstallReplica(BucketId b, PartitionId target,
                                      const StorageFragment& primary) {
  // Snapshot the primary's current rows for the bucket into the target's
  // backup fragment. Iteration is over BucketKeys, whose order only
  // affects insertion order into another hash map — no observable output
  // depends on it.
  StorageFragment* frag = backups_[static_cast<size_t>(target)].get();
  for (TableId t = 0; t < static_cast<TableId>(catalog_->num_tables()); ++t) {
    for (int64_t key : primary.BucketKeys(t, b)) {
      Result<Row> row = primary.Get(t, key);
      if (!row.ok()) return row.status();
      Status s = frag->Insert(t, *row);
      if (!s.ok()) return s;
    }
  }
  AddReplica(b, target);
  return Status::OK();
}

Status ReplicaManager::FinishRebuild(BucketId b,
                                     const StorageFragment& primary) {
  PartitionId target = rebuild_target_[static_cast<size_t>(b)];
  if (target < 0) {
    return Status::FailedPrecondition("no rebuild in flight for bucket");
  }
  rebuild_target_[static_cast<size_t>(b)] = -1;
  ++rebuild_gen_[static_cast<size_t>(b)];
  --rebuilds_in_flight_;
  PSTORE_RETURN_NOT_OK(InstallReplica(b, target, primary));
  ++rebuilds_completed_;
  return Status::OK();
}

void ReplicaManager::TakeCheckpoint(
    NodeId n, double hosted_kb,
    std::vector<durability::CheckpointRecord> records) {
  durable_->TakeCheckpoint(n, hosted_kb, std::move(records));
}

void ReplicaManager::ResetNode(NodeId n) { durable_->Reset(n); }

durability::RecoveryPlan ReplicaManager::PlanRecovery(NodeId n) {
  if (content_ != nullptr) return content_->PlanRecovery(n);
  durability::RecoveryPlan plan;
  plan.load_kb = durable_->checkpoint_kb(n);
  plan.replay_entries = durable_->log_entries(n);
  return plan;
}

SimDuration ReplicaManager::PlanDuration(
    const durability::RecoveryPlan& plan) const {
  // checkpoint kB / (kB/s) gives seconds; convert to microseconds.
  double load_us = plan.load_kb / kCheckpointLoadKbps * 1e6;
  double replay_us =
      static_cast<double>(plan.replay_entries) * kReplayUsPerEntry;
  auto total = static_cast<SimDuration>(load_us + replay_us);
  return total < 1 ? 1 : total;
}

SimDuration ReplicaManager::RecoveryDuration(NodeId n) const {
  double load_us =
      durable_->checkpoint_kb(n) / kCheckpointLoadKbps * 1e6;
  double replay_us =
      static_cast<double>(durable_->log_entries(n)) * kReplayUsPerEntry;
  auto total = static_cast<SimDuration>(load_us + replay_us);
  return total < 1 ? 1 : total;
}

}  // namespace replication
}  // namespace pstore
