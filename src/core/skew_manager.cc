#include "core/skew_manager.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "cluster/chunk_transfer.h"
#include "common/logging.h"

namespace pstore {

namespace {
/// Windows with fewer accesses than this never act (noise floor).
constexpr int64_t kMinWindowAccesses = 200;
}  // namespace

Status SkewManagerConfig::Validate() const {
  if (monitor_period <= 0) {
    return Status::InvalidArgument("monitor_period <= 0");
  }
  if (imbalance_threshold <= 1.0) {
    return Status::InvalidArgument("imbalance_threshold must be > 1");
  }
  if (max_buckets_per_cycle < 1) {
    return Status::InvalidArgument("max_buckets_per_cycle < 1");
  }
  return Status::OK();
}

SkewManager::SkewManager(ClusterEngine* engine, MigrationExecutor* migrator,
                         SkewManagerConfig config)
    : engine_(engine),
      migrator_(migrator),
      config_(config),
      transfer_(engine) {
  assert(engine != nullptr);
  assert(migrator != nullptr);
  assert(config_.Validate().ok());
}

void SkewManager::Start() {
  running_ = true;
  engine_->ResetBucketAccessCounts();
  engine_->simulator()->Schedule(config_.monitor_period,
                                 [this]() { Tick(); });
}

bool SkewManager::PlanRelocations(std::vector<BucketMove>* moves) const {
  const PartitionMap& map = engine_->partition_map();
  const auto& bucket_counts = engine_->bucket_access_counts();
  const int32_t active = engine_->active_partitions();

  // Aggregate bucket accesses by owning partition.
  std::vector<int64_t> partition_load(static_cast<size_t>(active), 0);
  int64_t total = 0;
  for (BucketId b = 0; b < map.num_buckets(); ++b) {
    const PartitionId p = map.PartitionOfBucket(b);
    if (p < active) {
      partition_load[static_cast<size_t>(p)] +=
          bucket_counts[static_cast<size_t>(b)];
      total += bucket_counts[static_cast<size_t>(b)];
    }
  }
  if (total < kMinWindowAccesses || active < 2) return false;

  const double mean = static_cast<double>(total) / active;
  const auto hottest_it =
      std::max_element(partition_load.begin(), partition_load.end());
  const PartitionId hottest = static_cast<PartitionId>(
      hottest_it - partition_load.begin());
  if (static_cast<double>(*hottest_it) <
      config_.imbalance_threshold * mean) {
    return false;
  }

  // Hottest buckets of the hottest partition, by access count.
  std::vector<BucketId> owned = map.BucketsOfPartition(hottest);
  std::sort(owned.begin(), owned.end(), [&](BucketId a, BucketId b) {
    return bucket_counts[static_cast<size_t>(a)] >
           bucket_counts[static_cast<size_t>(b)];
  });

  // Greedily hand them to the currently coldest partition (updating
  // loads as we go), stopping once the donor would drop below mean or
  // the per-cycle cap is hit. Moving a bucket hotter than the gap it
  // fills would just relocate the hot spot, so cap each move at the
  // receiving partition's deficit.
  double donor_load = static_cast<double>(*hottest_it);
  for (BucketId b : owned) {
    if (static_cast<int32_t>(moves->size()) >=
        config_.max_buckets_per_cycle) {
      break;
    }
    if (donor_load <= mean) break;
    const int64_t heat = bucket_counts[static_cast<size_t>(b)];
    if (heat == 0) break;
    // Coldest *live* partition: a crashed node's partitions report zero
    // load but must never receive data.
    PartitionId coldest = -1;
    for (PartitionId c = 0; c < active; ++c) {
      if (!engine_->IsNodeUp(engine_->NodeOfPartition(c))) continue;
      if (coldest < 0 || partition_load[static_cast<size_t>(c)] <
                             partition_load[static_cast<size_t>(coldest)]) {
        coldest = c;
      }
    }
    if (coldest < 0 || coldest == hottest) break;
    const auto coldest_it = partition_load.begin() + coldest;
    // Move only if it strictly improves balance: the receiver must end
    // up cooler than the donor currently is. A single scorching bucket
    // always satisfies this (better to host it on the idlest node),
    // while a bucket hotter than the imbalance it fixes does not.
    if (static_cast<double>(*coldest_it) + heat >=
        partition_load[static_cast<size_t>(hottest)]) {
      continue;
    }
    moves->push_back(BucketMove{b, hottest, coldest});
    partition_load[static_cast<size_t>(hottest)] -= heat;
    partition_load[static_cast<size_t>(coldest)] += heat;
    donor_load -= static_cast<double>(heat);
  }
  return !moves->empty();
}

void SkewManager::ExecuteRelocation(const BucketMove& move) {
  // One bucket = one chunk: occupy both executors for the burst, then
  // flip ownership when the later side finishes. With overload on each
  // side is background work in the bounded queue; a side refused or
  // evicted never finishes, so the bucket stays put.
  const SimDuration busy = SecondsToDuration(
      migrator_->kb_per_bucket() / migrator_->options().wire_kbps);
  auto landed = ChunkTransfer::BothSides([this, move]() {
    Status st = engine_->ApplyBucketMove(move);
    if (st.ok()) {
      ++buckets_moved_;
    } else {
      // The bucket may have been moved by a concurrent reconfiguration
      // between planning and transfer completion; that is benign.
      PSTORE_LOG(Info) << "skew relocation skipped: " << st.ToString();
    }
  });
  transfer_.Burst(move.from, move.to, busy, ChunkGuard(epoch_), landed,
                  landed, [move](const char* why) {
                    PSTORE_LOG(Info) << "skew relocation of bucket "
                                     << move.bucket << " skipped: " << why;
                  });
}

void SkewManager::Tick() {
  if (!running_) return;
  // Defer to an in-flight elastic reconfiguration: it will rebalance
  // everything anyway, and competing bucket moves would race it.
  if (!migrator_->InProgress()) {
    std::vector<BucketMove> moves;
    if (PlanRelocations(&moves)) {
      ++rebalances_;
      for (const auto& move : moves) ExecuteRelocation(move);
    }
  }
  engine_->ResetBucketAccessCounts();
  engine_->simulator()->Schedule(config_.monitor_period,
                                 [this]() { Tick(); });
}

}  // namespace pstore
