#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/engine.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/slot_arrivals.h"
#include "workload/b2w_procedures.h"
#include "workload/b2w_schema.h"

/// \file b2w_client.h
/// Replays a B2W load trace against the engine: the benchmark driver of
/// Section 7. The trace gives requests per (trace-)minute; the client
/// compresses time by `speedup` (the paper replays at 10x so a full day
/// fits in 2.4 hours) and scales rates so the trace peak hits a chosen
/// transactions-per-second target. Arrivals are Poisson within each
/// slot. The transaction mix follows realistic shopping sessions: carts
/// are created, browsed, edited, reserved, checked out, and deleted,
/// with keys drawn uniformly (B2W cart/checkout keys are random, so the
/// workload is near-uniform across partitions — Section 8.1).

namespace pstore {

/// Client configuration (the active key pools hold 60,000 keys each).
struct B2wClientConfig {
  double speedup = 10.0;          ///< Trace-time compression factor.
  double peak_txn_rate = 2800.0;  ///< txn/s (sim time) at the trace max.
  /// If > 0, overrides the peak-based scale with an absolute factor
  /// from requests/min to txn/s.
  double absolute_scale = 0.0;
  int64_t initial_carts = 20000;      ///< Pre-loaded cart rows.
  int64_t initial_checkouts = 8000;   ///< Pre-loaded checkout rows.
  int64_t initial_stock = 5000;       ///< Pre-loaded stock rows.
  uint64_t seed = 7;

  Status Validate() const;
};

/// \brief Trace-driven workload generator.
class B2wClient {
 public:
  /// \param engine target engine (not owned)
  /// \param tables ids returned by RegisterB2wTables on engine's catalog
  /// \param procs ids returned by RegisterB2wProcedures
  /// \param trace_rpm per-minute request counts (the load curve)
  B2wClient(ClusterEngine* engine, const B2wTables& tables,
            const B2wProcedures& procs, std::vector<double> trace_rpm,
            B2wClientConfig config);

  /// Bulk-loads the initial cart/checkout/stock population.
  Status PreloadData();

  /// Schedules the replay of trace slots [begin_slot, end_slot) starting
  /// at the current virtual time. Call before Simulator::RunUntil.
  void Start(int64_t begin_slot, int64_t end_slot);

  /// Requests/min -> txn/s conversion factor in effect.
  double scale() const { return scale_; }

  /// Virtual duration of one trace slot (one trace minute compressed).
  SimDuration slot_duration() const { return slot_duration_; }

  /// Offered load of a slot in txn/s of virtual time.
  double SlotRate(int64_t slot) const;

  /// The whole trace converted to txn/s of virtual time (for oracle
  /// predictors and offline SPAR training).
  std::vector<double> ScaledTrace() const;

  /// Transactions submitted so far.
  int64_t submitted() const { return submitted_; }

 private:
  void ScheduleSlot(int64_t slot, int64_t end_slot, SimTime slot_start);
  void SubmitOne();

  /// Key pools for coherent sessions.
  int64_t NewKey();
  int64_t PickCart();
  int64_t PickCheckout();
  int64_t PickStock();

  ClusterEngine* engine_;
  B2wTables tables_;
  B2wProcedures procs_;
  std::vector<double> trace_;
  B2wClientConfig config_;
  double scale_ = 1.0;
  SimDuration slot_duration_ = 0;
  Rng rng_;
  /// Each slot's arrivals, armed one at a time (SubmitOne each).
  SlotArrivals arrivals_;
  std::deque<int64_t> carts_;
  std::deque<int64_t> checkouts_;
  std::vector<int64_t> stock_;
  int64_t submitted_ = 0;
};

}  // namespace pstore
