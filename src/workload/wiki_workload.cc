#include "workload/wiki_workload.h"

#include <algorithm>
#include <cassert>

#include "common/murmur.h"

namespace pstore {

namespace {
using wiki_cols::kPageContent;
using wiki_cols::kPageTitle;
using wiki_cols::kPageViews;

// The client's operation mix; the rest of the draws create pages.
constexpr double kReadFraction = 0.90;   ///< GetPage share.
constexpr double kViewFraction = 0.07;   ///< RecordView share.
constexpr double kEditFraction = 0.025;  ///< EditPage share.
constexpr double kZipfS = 0.99;  ///< Page popularity skew exponent.
/// Trace compression: one hourly trace slot replays in this many
/// virtual seconds.
constexpr double kSecondsPerSlot = 30.0;
}  // namespace

Result<WikiWorkload> RegisterWikiWorkload(Catalog* catalog,
                                          ProcedureRegistry* registry) {
  WikiWorkload workload;
  {
    auto id = catalog->AddTable(Schema("PAGE",
                                       {{"page_id", ColumnType::kInt64},
                                        {"title", ColumnType::kString},
                                        {"content", ColumnType::kString},
                                        {"views", ColumnType::kInt64}},
                                       /*partition_key_column=*/0));
    if (!id.ok()) return id.status();
    workload.page = *id;
  }
  const TableId page = workload.page;

  {
    auto id = registry->Register(ProcedureDef{
        "GetPage",
        [page](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          auto row = ctx.Get(page, req.key);
          if (!row.ok()) {
            r.status = row.status();
          } else {
            r.rows.push_back(std::move(row).MoveValueUnsafe());
          }
          return r;
        },
        0.8});
    if (!id.ok()) return id.status();
    workload.get_page = *id;
  }
  {
    auto id = registry->Register(ProcedureDef{
        "RecordView",
        [page](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          auto row = ctx.Get(page, req.key);
          if (!row.ok()) {
            r.status = row.status();
            return r;
          }
          Row updated = std::move(row).MoveValueUnsafe();
          updated.Set(kPageViews,
                      Value(updated.at(kPageViews).as_int64() + 1));
          r.status = ctx.Upsert(page, updated);
          return r;
        },
        1.0});
    if (!id.ok()) return id.status();
    workload.record_view = *id;
  }
  {
    auto id = registry->Register(ProcedureDef{
        "EditPage",
        [page](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          if (req.args.size() != 1) {
            r.status = Status::InvalidArgument("EditPage needs 1 arg");
            return r;
          }
          auto row = ctx.Get(page, req.key);
          if (!row.ok()) {
            r.status = row.status();
            return r;
          }
          Row updated = std::move(row).MoveValueUnsafe();
          updated.Set(kPageContent, req.args[0]);
          r.status = ctx.Upsert(page, updated);
          return r;
        },
        1.3});
    if (!id.ok()) return id.status();
    workload.edit_page = *id;
  }
  {
    auto id = registry->Register(ProcedureDef{
        "CreatePage",
        [page](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          if (req.args.size() != 2) {
            r.status = Status::InvalidArgument("CreatePage needs 2 args");
            return r;
          }
          r.status = ctx.Insert(
              page, Row({Value(req.key), req.args[0], req.args[1],
                         Value(int64_t{0})}));
          return r;
        },
        1.2});
    if (!id.ok()) return id.status();
    workload.create_page = *id;
  }
  return workload;
}

Status WikiClientConfig::Validate() const {
  if (num_pages < 1) return Status::InvalidArgument("num_pages < 1");
  return Status::OK();
}

WikiClient::WikiClient(ClusterEngine* engine, const WikiWorkload& workload,
                       std::vector<double> trace_per_hour,
                       WikiClientConfig config)
    : engine_(engine),
      workload_(workload),
      trace_(std::move(trace_per_hour)),
      config_(config),
      rng_(config.seed),
      zipf_(static_cast<uint64_t>(config.num_pages), kZipfS),
      slot_duration_(SecondsToDuration(kSecondsPerSlot)),
      arrivals_(engine->simulator(), [this]() { SubmitOne(); }) {
  assert(config_.Validate().ok());
  assert(!trace_.empty());
}

int64_t WikiClient::PageKey(uint64_t rank) const {
  // Scramble ranks into key space so popular pages land on arbitrary
  // buckets (popularity skew, not key-space skew).
  return static_cast<int64_t>(
      MurmurHash64A(static_cast<int64_t>(rank), /*seed=*/17) >> 1);
}

Status WikiClient::PreloadData() {
  for (int64_t rank = 0; rank < config_.num_pages; ++rank) {
    Row row({Value(PageKey(static_cast<uint64_t>(rank))),
             Value("Page_" + std::to_string(rank)),
             Value(std::string(64, 'w')), Value(int64_t{0})});
    PSTORE_RETURN_NOT_OK(engine_->LoadRow(workload_.page, row));
  }
  return Status::OK();
}

std::vector<double> WikiClient::ScaledTrace(double peak_txn_rate) const {
  const double peak = *std::max_element(trace_.begin(), trace_.end());
  std::vector<double> out(trace_.size());
  for (size_t i = 0; i < trace_.size(); ++i) {
    out[i] = trace_[i] / peak * peak_txn_rate;
  }
  return out;
}

void WikiClient::Start(int64_t begin_slot, int64_t end_slot,
                       double peak_txn_rate) {
  end_slot = std::min(end_slot, static_cast<int64_t>(trace_.size()));
  if (begin_slot >= end_slot) return;
  const double peak = *std::max_element(trace_.begin(), trace_.end());
  ScheduleSlot(begin_slot, end_slot, engine_->simulator()->Now(),
               peak_txn_rate / peak);
}

void WikiClient::ScheduleSlot(int64_t slot, int64_t end_slot, SimTime at,
                              double scale) {
  Simulator* sim = engine_->simulator();
  const double rate = trace_[static_cast<size_t>(slot)] * scale;
  arrivals_.Draw(&rng_, rate * kSecondsPerSlot, at, slot_duration_);
  if (slot + 1 < end_slot) {
    sim->ScheduleAt(at + slot_duration_, [this, slot, end_slot, at,
                                          scale]() {
      ScheduleSlot(slot + 1, end_slot, at + slot_duration_, scale);
    });
  }
}

void WikiClient::SubmitOne() {
  ++submitted_;
  TxnRequest req;
  const double u = rng_.NextDouble();
  if (u < kReadFraction) {
    req.proc = workload_.get_page;
    req.key = PageKey(zipf_.Next(&rng_));
  } else if (u < kReadFraction + kViewFraction) {
    req.proc = workload_.record_view;
    req.key = PageKey(zipf_.Next(&rng_));
  } else if (u < kReadFraction + kViewFraction + kEditFraction) {
    req.proc = workload_.edit_page;
    req.key = PageKey(zipf_.Next(&rng_));
    req.args = {Value(std::string(80, 'e'))};
  } else {
    req.proc = workload_.create_page;
    req.key = PageKey(static_cast<uint64_t>(config_.num_pages) +
                      (rng_.Next() >> 40));
    req.args = {Value("NewPage"), Value(std::string(48, 'n'))};
  }
  engine_->Submit(std::move(req));
}

}  // namespace pstore
