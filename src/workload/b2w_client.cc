#include "workload/b2w_client.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pstore {

namespace {
/// Bound on the active cart and checkout key pools.
constexpr size_t kMaxPool = 60000;
}  // namespace

Status B2wClientConfig::Validate() const {
  if (speedup <= 0) return Status::InvalidArgument("speedup <= 0");
  if (peak_txn_rate <= 0 && absolute_scale <= 0) {
    return Status::InvalidArgument("need peak_txn_rate or absolute_scale");
  }
  return Status::OK();
}

B2wClient::B2wClient(ClusterEngine* engine, const B2wTables& tables,
                     const B2wProcedures& procs,
                     std::vector<double> trace_rpm, B2wClientConfig config)
    : engine_(engine),
      tables_(tables),
      procs_(procs),
      trace_(std::move(trace_rpm)),
      config_(config),
      rng_(config.seed),
      arrivals_(engine->simulator(), [this]() { SubmitOne(); }) {
  assert(config_.Validate().ok());
  assert(!trace_.empty());
  slot_duration_ = SecondsToDuration(60.0 / config_.speedup);
  if (config_.absolute_scale > 0) {
    scale_ = config_.absolute_scale;
  } else {
    const double peak = *std::max_element(trace_.begin(), trace_.end());
    // requests/min -> txn/s such that the trace peak offers
    // peak_txn_rate transactions per second of virtual time.
    scale_ = config_.peak_txn_rate / peak;
  }
}

double B2wClient::SlotRate(int64_t slot) const {
  if (slot < 0 || slot >= static_cast<int64_t>(trace_.size())) return 0;
  return trace_[static_cast<size_t>(slot)] * scale_;
}

std::vector<double> B2wClient::ScaledTrace() const {
  std::vector<double> out(trace_.size());
  for (size_t i = 0; i < trace_.size(); ++i) out[i] = trace_[i] * scale_;
  return out;
}

int64_t B2wClient::NewKey() {
  // Random 64-bit keys, like B2W's cart/checkout identifiers; keep them
  // positive for readability.
  return static_cast<int64_t>(rng_.Next() >> 1) | 1;
}

int64_t B2wClient::PickCart() {
  if (carts_.empty()) return NewKey();
  return carts_[static_cast<size_t>(
      rng_.NextBounded(carts_.size()))];
}

int64_t B2wClient::PickCheckout() {
  if (checkouts_.empty()) return NewKey();
  return checkouts_[static_cast<size_t>(
      rng_.NextBounded(checkouts_.size()))];
}

int64_t B2wClient::PickStock() {
  if (stock_.empty()) return NewKey();
  return stock_[static_cast<size_t>(rng_.NextBounded(stock_.size()))];
}

Status B2wClient::PreloadData() {
  for (int64_t i = 0; i < config_.initial_carts; ++i) {
    const int64_t key = NewKey();
    std::vector<LineItem> lines;
    const int64_t n = rng_.NextInt(1, 4);
    for (int64_t j = 0; j < n; ++j) {
      lines.push_back(LineItem{PickStock(), rng_.NextInt(1, 3),
                               5.0 + rng_.NextDouble() * 200.0});
    }
    Row row({Value(key), Value(NewKey()), Value("ACTIVE"),
             Value(LinesTotal(lines)), Value(EncodeLines(lines))});
    PSTORE_RETURN_NOT_OK(engine_->LoadRow(tables_.cart, row));
    carts_.push_back(key);
  }
  for (int64_t i = 0; i < config_.initial_checkouts; ++i) {
    const int64_t key = NewKey();
    Row row({Value(key), Value(PickCart()), Value("OPEN"),
             Value(50.0 + rng_.NextDouble() * 300.0), Value("CC"),
             Value(EncodeLines({LineItem{PickStock(), 1, 25.0}}))});
    PSTORE_RETURN_NOT_OK(engine_->LoadRow(tables_.checkout, row));
    checkouts_.push_back(key);
  }
  for (int64_t i = 0; i < config_.initial_stock; ++i) {
    const int64_t key = NewKey();
    Row row({Value(key), Value(rng_.NextInt(100, 100000)), Value(int64_t{0}),
             Value(int64_t{0})});
    PSTORE_RETURN_NOT_OK(engine_->LoadRow(tables_.stock, row));
    stock_.push_back(key);
  }
  return Status::OK();
}

void B2wClient::Start(int64_t begin_slot, int64_t end_slot) {
  end_slot = std::min(end_slot, static_cast<int64_t>(trace_.size()));
  if (begin_slot >= end_slot) return;
  ScheduleSlot(begin_slot, end_slot, engine_->simulator()->Now());
}

void B2wClient::ScheduleSlot(int64_t slot, int64_t end_slot,
                             SimTime slot_start) {
  Simulator* sim = engine_->simulator();
  const double rate = SlotRate(slot);  // txn/s of virtual time
  const double slot_seconds = DurationToSeconds(slot_duration_);
  arrivals_.Draw(&rng_, rate * slot_seconds, slot_start, slot_duration_);
  if (slot + 1 < end_slot) {
    sim->ScheduleAt(slot_start + slot_duration_,
                    [this, slot, end_slot, slot_start]() {
                      ScheduleSlot(slot + 1, end_slot,
                                   slot_start + slot_duration_);
                    });
  }
}

void B2wClient::SubmitOne() {
  ++submitted_;
  const double u = rng_.NextDouble();
  TxnRequest req;

  if (u < 0.22) {
    // AddLineToCart; ~1/3 start a brand new cart.
    const bool fresh = rng_.NextBernoulli(0.33) || carts_.empty();
    const int64_t cart = fresh ? NewKey() : PickCart();
    if (fresh) {
      carts_.push_back(cart);
      if (carts_.size() > kMaxPool) carts_.pop_front();
    }
    req.proc = procs_.add_line_to_cart;
    req.key = cart;
    req.args = {Value(NewKey()), Value(PickStock()), Value(rng_.NextInt(1, 3)),
                Value(5.0 + rng_.NextDouble() * 200.0)};
  } else if (u < 0.42) {
    req.proc = procs_.get_cart;
    req.key = PickCart();
  } else if (u < 0.47) {
    req.proc = procs_.delete_line_from_cart;
    req.key = PickCart();
    req.args = {Value(PickStock())};
  } else if (u < 0.55) {
    req.proc = procs_.reserve_cart;
    req.key = PickCart();
  } else if (u < 0.63) {
    // CreateCheckout for some cart.
    const int64_t checkout = NewKey();
    checkouts_.push_back(checkout);
    if (checkouts_.size() > kMaxPool) checkouts_.pop_front();
    req.proc = procs_.create_checkout;
    req.key = checkout;
    req.args = {Value(PickCart())};
  } else if (u < 0.70) {
    req.proc = procs_.add_line_to_checkout;
    req.key = PickCheckout();
    req.args = {Value(PickStock()), Value(rng_.NextInt(1, 3)),
                Value(5.0 + rng_.NextDouble() * 200.0)};
  } else if (u < 0.80) {
    req.proc = procs_.get_checkout;
    req.key = PickCheckout();
  } else if (u < 0.86) {
    req.proc = procs_.create_checkout_payment;
    req.key = PickCheckout();
    req.args = {Value("CARD-" + std::to_string(rng_.NextInt(1000, 9999)))};
  } else if (u < 0.90) {
    // DeleteCheckout; retire the key from the pool (swap-and-pop keeps
    // retirement O(1)).
    if (!checkouts_.empty()) {
      const size_t idx =
          static_cast<size_t>(rng_.NextBounded(checkouts_.size()));
      req.key = checkouts_[idx];
      checkouts_[idx] = checkouts_.back();
      checkouts_.pop_back();
    } else {
      req.key = NewKey();
    }
    req.proc = procs_.delete_checkout;
  } else if (u < 0.94) {
    // DeleteCart; retire the key from the pool.
    if (!carts_.empty()) {
      const size_t idx = static_cast<size_t>(rng_.NextBounded(carts_.size()));
      req.key = carts_[idx];
      carts_[idx] = carts_.back();
      carts_.pop_back();
    } else {
      req.key = NewKey();
    }
    req.proc = procs_.delete_cart;
  } else if (u < 0.97) {
    req.proc = procs_.get_stock_quantity;
    req.key = PickStock();
  } else {
    req.proc = procs_.reserve_stock;
    req.key = PickStock();
    req.args = {Value(int64_t{1})};
  }

  engine_->Submit(std::move(req));
}

}  // namespace pstore
