#pragma once

#include <cstdint>
#include <vector>

#include "cluster/engine.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/slot_arrivals.h"
#include "txn/procedure.h"

/// \file wiki_workload.h
/// A second engine workload, modeled on the paper's other trace family
/// (Section 5's Wikipedia page-view statistics): a page-serving store
/// with Zipf-distributed page popularity. Unlike the B2W workload —
/// whose random cart keys make partition load near-uniform — page
/// popularity is heavily skewed, which is exactly the regime where the
/// SkewManager extension earns its keep while P-Store handles the
/// aggregate diurnal wave.
///
/// Schema: PAGE(page_id, title, content, views)
/// Procedures:
///   GetPage(page_id)           — read (the overwhelming majority)
///   RecordView(page_id)        — bump the view counter
///   EditPage(page_id, content) — replace the content
///   CreatePage(page_id, title, content) — insert

namespace pstore {

/// Table/procedure handles of the wiki database.
struct WikiWorkload {
  TableId page = -1;
  ProcedureId get_page = -1;
  ProcedureId record_view = -1;
  ProcedureId edit_page = -1;
  ProcedureId create_page = -1;
};

namespace wiki_cols {
inline constexpr size_t kPageId = 0;
inline constexpr size_t kPageTitle = 1;
inline constexpr size_t kPageContent = 2;
inline constexpr size_t kPageViews = 3;
}  // namespace wiki_cols

/// Registers the PAGE table and the four procedures.
Result<WikiWorkload> RegisterWikiWorkload(Catalog* catalog,
                                          ProcedureRegistry* registry);

/// Client configuration. The mix is fixed: 90% GetPage, 7% RecordView,
/// 2.5% EditPage, the rest CreatePage; page popularity is Zipf(0.99),
/// and one hourly trace slot replays in 30 virtual seconds.
struct WikiClientConfig {
  int64_t num_pages = 60000;  ///< Pre-loaded page population.
  uint64_t seed = 99;

  Status Validate() const;
};

/// \brief Replays an hourly Wikipedia-style trace against the engine.
class WikiClient {
 public:
  WikiClient(ClusterEngine* engine, const WikiWorkload& workload,
             std::vector<double> trace_per_hour, WikiClientConfig config);

  /// Bulk-loads the page population.
  Status PreloadData();

  /// Schedules replay of trace slots [begin, end), with the trace peak
  /// mapped to `peak_txn_rate` transactions/second of virtual time.
  void Start(int64_t begin_slot, int64_t end_slot, double peak_txn_rate);

  int64_t submitted() const { return submitted_; }

  /// The trace scaled to txn/s under the given peak (for predictors).
  std::vector<double> ScaledTrace(double peak_txn_rate) const;

 private:
  void ScheduleSlot(int64_t slot, int64_t end_slot, SimTime at,
                    double scale);
  void SubmitOne();
  int64_t PageKey(uint64_t rank) const;

  ClusterEngine* engine_;
  WikiWorkload workload_;
  std::vector<double> trace_;
  WikiClientConfig config_;
  Rng rng_;
  ZipfGenerator zipf_;
  SimDuration slot_duration_;
  /// Each slot's arrivals, armed one at a time (SubmitOne each).
  SlotArrivals arrivals_;
  int64_t submitted_ = 0;
};

}  // namespace pstore
