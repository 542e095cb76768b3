#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "storage/fragment.h"
#include "storage/schema.h"
#include "storage/value.h"

/// \file procedure.h
/// H-Store-style stored procedures. Every transaction is a pre-declared
/// procedure invoked with a partitioning key and arguments, routed to the
/// single partition owning that key, and executed there to completion
/// (the B2W workload is single-partition-key by construction — that is
/// why the paper compares against E-Store rather than Clay, Section 8.2).

namespace pstore {

using ProcedureId = int32_t;

/// Priority classes consulted by the overload-control layer when a
/// partition queue is full or a circuit breaker is open. Higher values
/// outrank lower ones: under the priority-shed admission policy an
/// arriving transaction may evict queued work of strictly lower
/// priority, and only kPriorityCritical work is admitted past an open
/// breaker. Migration chunk (de)serialization runs at
/// kPriorityBackground, so foreground transactions always outrank it.
enum TxnPriority : int8_t {
  kPriorityBackground = 0,  ///< Migration chunk work; first to shed.
  kPriorityLow = 1,         ///< Browse/read-only traffic (cart reads).
  kPriorityNormal = 2,      ///< Default transaction priority.
  kPriorityCritical = 3,    ///< Revenue path (checkouts); never deferred.
};

/// \brief One transaction request submitted by a client.
struct TxnRequest {
  ProcedureId proc = -1;      ///< Which stored procedure to run.
  int64_t key = 0;            ///< Partitioning key the txn accesses.
  std::vector<Value> args;    ///< Procedure-specific arguments.
  int64_t txn_id = 0;         ///< Client-assigned id (for bookkeeping).
  /// Overload priority; negative (default) inherits the registered
  /// procedure's priority.
  int8_t priority = -1;
};

/// \brief Outcome of a transaction.
struct TxnResult {
  Status status;            ///< OK on commit; error status on user abort.
  std::vector<Row> rows;    ///< Rows returned by the procedure, if any.
  /// True when the transaction never executed because overload control
  /// shed it (queue full, deadline expired, or breaker open). The
  /// status is kUnavailable; clients with a retry budget may resubmit.
  bool shed = false;
};

/// \brief One successful write a procedure made: an Insert or Upsert of
/// `row` (sharing the body the fragment now holds), or, when `row` is
/// empty, a Delete of `key`.
struct WriteOp {
  TableId table = -1;
  int64_t key = 0;  ///< The deleted key; unused for inserts and upserts.
  Row row;
};

/// The writes of one procedure execution, in the order they happened.
using WriteSet = std::vector<WriteOp>;

/// \brief Storage operations a procedure may perform, bound to the
/// partition fragment owning the transaction's key.
///
/// All reads and writes go through the context so procedures cannot
/// accidentally touch data outside their partition (the single-partition
/// execution model). Every successful write is also appended to the
/// write-set buffer, which the replication layer applies to backups.
class ExecutionContext {
 public:
  /// \param writes the buffer that receives this execution's write-set;
  /// it is cleared here, so one buffer serves every execution in turn.
  ExecutionContext(StorageFragment* fragment, WriteSet* writes)
      : fragment_(fragment), writes_(writes) {
    writes_->clear();
  }

  Result<Row> Get(TableId table, int64_t key) const {
    return fragment_->Get(table, key);
  }
  bool Contains(TableId table, int64_t key) const {
    return fragment_->Contains(table, key);
  }
  Status Insert(TableId table, const Row& row) {
    Status s = fragment_->Insert(table, row);
    if (s.ok()) writes_->push_back(WriteOp{table, 0, row});
    return s;
  }
  Status Upsert(TableId table, const Row& row) {
    Status s = fragment_->Upsert(table, row);
    if (s.ok()) writes_->push_back(WriteOp{table, 0, row});
    return s;
  }
  Status Delete(TableId table, int64_t key) {
    Status s = fragment_->Delete(table, key);
    if (s.ok()) writes_->push_back(WriteOp{table, key, Row()});
    return s;
  }

  /// Successful writes performed through this context: the size of its
  /// write-set. The replication layer applies the write-set of every
  /// execution that mutated the primary to the backups; read-only
  /// transactions (mutations() == 0) are never shipped.
  int64_t mutations() const { return static_cast<int64_t>(writes_->size()); }

  /// This execution's write-set.
  const WriteSet& writes() const { return *writes_; }

 private:
  StorageFragment* fragment_;
  WriteSet* writes_;
};

/// Body of a stored procedure.
using ProcedureFn =
    std::function<TxnResult(ExecutionContext&, const TxnRequest&)>;

/// \brief A registered stored procedure.
struct ProcedureDef {
  std::string name;
  ProcedureFn body;
  /// Relative CPU weight; the engine multiplies its base service time by
  /// this, letting heavier procedures (e.g. ReserveCart touching many
  /// lines) cost more than a point read.
  double service_weight = 1.0;
  /// Default overload priority of transactions invoking this procedure
  /// (a TxnRequest may override per call).
  int8_t priority = kPriorityNormal;
};

/// \brief Name -> id registry of the procedures a database exposes.
class ProcedureRegistry {
 public:
  /// Registers a procedure; AlreadyExists if the name is taken.
  Result<ProcedureId> Register(ProcedureDef def);

  /// Id lookup by name.
  Result<ProcedureId> IdByName(const std::string& name) const;

  /// Definition lookup. Precondition: valid id.
  const ProcedureDef& Get(ProcedureId id) const {
    return procedures_[static_cast<size_t>(id)];
  }

  size_t size() const { return procedures_.size(); }

 private:
  std::vector<ProcedureDef> procedures_;
};

}  // namespace pstore
