#include "workload/b2w_procedures.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace pstore {

namespace {

using b2w_cols::kCartCustomerId;
using b2w_cols::kCartLines;
using b2w_cols::kCartStatus;
using b2w_cols::kCartTotal;
using b2w_cols::kCheckoutAmountDue;
using b2w_cols::kCheckoutLines;
using b2w_cols::kCheckoutPayment;
using b2w_cols::kCheckoutStatus;
using b2w_cols::kStockAvailable;
using b2w_cols::kStockPurchased;
using b2w_cols::kStockReserved;
using b2w_cols::kStockTxStatus;

TxnResult Fail(Status status) {
  TxnResult result;
  result.status = std::move(status);
  return result;
}

TxnResult OkWith(Row row) {
  TxnResult result;
  result.rows.push_back(std::move(row));
  return result;
}

TxnResult OkEmpty() { return TxnResult{}; }

/// BIGINT column `i` of `row`. Reads take the row const: the non-const
/// Row::at clones a shared body, long strings included, before anything
/// is written.
int64_t IntAt(const Row& row, size_t i) { return row.at(i).as_int64(); }

/// Rewrites the line items in column `lines_col` of `row` through `edit`
/// and stores their total in `total_col`. `edit` gets the decoded items
/// and returns a Status; non-OK leaves the row untouched. The items and
/// their encoding live in reused per-thread buffers (not static: runs on
/// separate threads each get their own), so past the row's own clone the
/// edit allocates only the new `lines` value.
template <typename EditFn>
Status EditLines(Row* row, size_t lines_col, size_t total_col,
                 const EditFn& edit) {
  thread_local std::vector<LineItem> items;
  thread_local std::string encoded;
  PSTORE_RETURN_NOT_OK(
      DecodeLinesTo(std::as_const(*row).at(lines_col).as_string(), &items));
  PSTORE_RETURN_NOT_OK(edit(&items));
  EncodeLinesTo(items, &encoded);
  row->Set(lines_col, Value(encoded));
  row->Set(total_col, Value(LinesTotal(items)));
  return Status::OK();
}

/// Removes the line with `sku` from `items`; NotFound(`not_found`) if it
/// has none.
Status EraseSku(std::vector<LineItem>* items, int64_t sku,
                const char* not_found) {
  auto it = std::find_if(items->begin(), items->end(),
                         [&](const LineItem& item) { return item.sku == sku; });
  if (it == items->end()) return Status::NotFound(not_found);
  items->erase(it);
  return Status::OK();
}

/// Fetches, mutates via `edit`, and writes back a row. `edit` returns a
/// Status; non-OK aborts the transaction without writing.
template <typename EditFn>
TxnResult Update(ExecutionContext& ctx, TableId table, int64_t key,
                 const EditFn& edit) {
  auto row = ctx.Get(table, key);
  if (!row.ok()) return Fail(row.status());
  Row updated = std::move(row).MoveValueUnsafe();
  Status st = edit(&updated);
  if (!st.ok()) return Fail(std::move(st));
  st = ctx.Upsert(table, updated);
  if (!st.ok()) return Fail(std::move(st));
  return OkWith(std::move(updated));
}

}  // namespace

Result<B2wProcedures> RegisterB2wProcedures(ProcedureRegistry* registry,
                                            const B2wTables& tables) {
  B2wProcedures procs;

  // Priorities drive overload shedding: the checkout path (revenue) is
  // critical and survives breakers; browse reads are first to go.
  auto reg = [&](const std::string& name, double weight, ProcedureFn fn,
                 int8_t priority = kPriorityNormal) -> Result<ProcedureId> {
    return registry->Register(
        ProcedureDef{name, std::move(fn), weight, priority});
  };

  // --- Cart -------------------------------------------------------------

  {
    auto id = reg(
        "AddLineToCart", 1.2,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 4) {
            return Fail(Status::InvalidArgument("AddLineToCart needs 4 args"));
          }
          LineItem line{req.args[1].as_int64(), req.args[2].as_int64(),
                        req.args[3].as_double()};
          auto existing = ctx.Get(tables.cart, req.key);
          if (!existing.ok()) {
            // First touch creates the cart ("create the cart if it
            // doesn't exist yet", Table 4).
            Row row({Value(req.key), req.args[0], Value("ACTIVE"),
                     Value(line.unit_price * line.quantity),
                     Value(EncodeLines({line}))});
            Status st = ctx.Insert(tables.cart, row);
            if (!st.ok()) return Fail(std::move(st));
            return OkWith(std::move(row));
          }
          Row row = std::move(existing).MoveValueUnsafe();
          Status st = EditLines(&row, kCartLines, kCartTotal,
                                [&](std::vector<LineItem>* items) {
                                  items->push_back(line);
                                  return Status::OK();
                                });
          if (!st.ok()) return Fail(std::move(st));
          st = ctx.Upsert(tables.cart, row);
          if (!st.ok()) return Fail(std::move(st));
          return OkWith(std::move(row));
        });
    if (!id.ok()) return id.status();
    procs.add_line_to_cart = *id;
  }
  {
    auto id = reg(
        "DeleteLineFromCart", 1.1,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(
                Status::InvalidArgument("DeleteLineFromCart needs 1 arg"));
          }
          const int64_t sku = req.args[0].as_int64();
          return Update(ctx, tables.cart, req.key, [&](Row* row) {
            return EditLines(row, kCartLines, kCartTotal,
                             [&](std::vector<LineItem>* items) {
                               return EraseSku(items, sku, "sku not in cart");
                             });
          });
        });
    if (!id.ok()) return id.status();
    procs.delete_line_from_cart = *id;
  }
  {
    auto id = reg(
        "GetCart", 0.7,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          auto row = ctx.Get(tables.cart, req.key);
          if (!row.ok()) return Fail(row.status());
          return OkWith(std::move(row).MoveValueUnsafe());
        },
        kPriorityLow);
    if (!id.ok()) return id.status();
    procs.get_cart = *id;
  }
  {
    auto id = reg(
        "DeleteCart", 0.9,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          Status st = ctx.Delete(tables.cart, req.key);
          if (!st.ok()) return Fail(std::move(st));
          return OkEmpty();
        });
    if (!id.ok()) return id.status();
    procs.delete_cart = *id;
  }
  {
    auto id = reg(
        "ReserveCart", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          return Update(ctx, tables.cart, req.key, [&](Row* row) {
            row->Set(kCartStatus, Value("RESERVED"));
            return Status::OK();
          });
        });
    if (!id.ok()) return id.status();
    procs.reserve_cart = *id;
  }

  // --- Stock ------------------------------------------------------------

  {
    auto id = reg(
        "GetStock", 0.7,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          auto row = ctx.Get(tables.stock, req.key);
          if (!row.ok()) return Fail(row.status());
          return OkWith(std::move(row).MoveValueUnsafe());
        });
    if (!id.ok()) return id.status();
    procs.get_stock = *id;
  }
  {
    auto id = reg(
        "GetStockQuantity", 0.7,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          auto row = ctx.Get(tables.stock, req.key);
          if (!row.ok()) return Fail(row.status());
          TxnResult result;
          result.rows.push_back(
              Row({Value(req.key), std::as_const(*row).at(kStockAvailable)}));
          return result;
        },
        kPriorityLow);
    if (!id.ok()) return id.status();
    procs.get_stock_quantity = *id;
  }
  {
    auto id = reg(
        "ReserveStock", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(Status::InvalidArgument("ReserveStock needs 1 arg"));
          }
          const int64_t qty = req.args[0].as_int64();
          return Update(ctx, tables.stock, req.key, [&](Row* row) {
            const int64_t available = IntAt(*row, kStockAvailable);
            if (available < qty) {
              return Status::FailedPrecondition("insufficient stock");
            }
            row->Set(kStockAvailable, Value(available - qty));
            row->Set(kStockReserved, Value(IntAt(*row, kStockReserved) + qty));
            return Status::OK();
          });
        },
        kPriorityCritical);
    if (!id.ok()) return id.status();
    procs.reserve_stock = *id;
  }
  {
    auto id = reg(
        "PurchaseStock", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(Status::InvalidArgument("PurchaseStock needs 1 arg"));
          }
          const int64_t qty = req.args[0].as_int64();
          return Update(ctx, tables.stock, req.key, [&](Row* row) {
            const int64_t reserved = IntAt(*row, kStockReserved);
            if (reserved < qty) {
              return Status::FailedPrecondition("not reserved");
            }
            row->Set(kStockReserved, Value(reserved - qty));
            row->Set(kStockPurchased,
                     Value(IntAt(*row, kStockPurchased) + qty));
            return Status::OK();
          });
        });
    if (!id.ok()) return id.status();
    procs.purchase_stock = *id;
  }
  {
    auto id = reg(
        "CancelStockReservation", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(
                Status::InvalidArgument("CancelStockReservation needs 1 arg"));
          }
          const int64_t qty = req.args[0].as_int64();
          return Update(ctx, tables.stock, req.key, [&](Row* row) {
            const int64_t reserved = IntAt(*row, kStockReserved);
            if (reserved < qty) {
              return Status::FailedPrecondition("not reserved");
            }
            row->Set(kStockReserved, Value(reserved - qty));
            row->Set(kStockAvailable,
                     Value(IntAt(*row, kStockAvailable) + qty));
            return Status::OK();
          });
        });
    if (!id.ok()) return id.status();
    procs.cancel_stock_reservation = *id;
  }

  // --- Stock transactions ------------------------------------------------

  {
    auto id = reg(
        "CreateStockTransaction", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 3) {
            return Fail(
                Status::InvalidArgument("CreateStockTransaction needs 3 args"));
          }
          Row row({Value(req.key), req.args[0], req.args[1], req.args[2],
                   Value("RESERVED")});
          Status st = ctx.Insert(tables.stock_transaction, row);
          if (!st.ok()) return Fail(std::move(st));
          return OkWith(std::move(row));
        });
    if (!id.ok()) return id.status();
    procs.create_stock_transaction = *id;
  }
  {
    auto id = reg(
        "GetStockTransaction", 0.7,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          auto row = ctx.Get(tables.stock_transaction, req.key);
          if (!row.ok()) return Fail(row.status());
          return OkWith(std::move(row).MoveValueUnsafe());
        });
    if (!id.ok()) return id.status();
    procs.get_stock_transaction = *id;
  }
  {
    auto id = reg(
        "UpdateStockTransaction", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(
                Status::InvalidArgument("UpdateStockTransaction needs 1 arg"));
          }
          return Update(ctx, tables.stock_transaction, req.key,
                        [&](Row* row) {
                          row->Set(kStockTxStatus, req.args[0]);
                          return Status::OK();
                        });
        });
    if (!id.ok()) return id.status();
    procs.update_stock_transaction = *id;
  }

  // --- Checkout -----------------------------------------------------------

  {
    auto id = reg(
        "CreateCheckout", 1.1,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(Status::InvalidArgument("CreateCheckout needs 1 arg"));
          }
          Row row({Value(req.key), req.args[0], Value("OPEN"), Value(0.0),
                   Value(""), Value("")});
          Status st = ctx.Insert(tables.checkout, row);
          if (!st.ok()) return Fail(std::move(st));
          return OkWith(std::move(row));
        },
        kPriorityCritical);
    if (!id.ok()) return id.status();
    procs.create_checkout = *id;
  }
  {
    auto id = reg(
        "CreateCheckoutPayment", 1.0,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(
                Status::InvalidArgument("CreateCheckoutPayment needs 1 arg"));
          }
          return Update(ctx, tables.checkout, req.key, [&](Row* row) {
            row->Set(kCheckoutPayment, req.args[0]);
            row->Set(kCheckoutStatus, Value("PAYMENT"));
            return Status::OK();
          });
        },
        kPriorityCritical);
    if (!id.ok()) return id.status();
    procs.create_checkout_payment = *id;
  }
  {
    auto id = reg(
        "AddLineToCheckout", 1.2,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 3) {
            return Fail(
                Status::InvalidArgument("AddLineToCheckout needs 3 args"));
          }
          LineItem line{req.args[0].as_int64(), req.args[1].as_int64(),
                        req.args[2].as_double()};
          return Update(ctx, tables.checkout, req.key, [&](Row* row) {
            return EditLines(row, kCheckoutLines, kCheckoutAmountDue,
                             [&](std::vector<LineItem>* items) {
                               items->push_back(line);
                               return Status::OK();
                             });
          });
        },
        kPriorityCritical);
    if (!id.ok()) return id.status();
    procs.add_line_to_checkout = *id;
  }
  {
    auto id = reg(
        "DeleteLineFromCheckout", 1.1,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          if (req.args.size() != 1) {
            return Fail(
                Status::InvalidArgument("DeleteLineFromCheckout needs 1 arg"));
          }
          const int64_t sku = req.args[0].as_int64();
          return Update(ctx, tables.checkout, req.key, [&](Row* row) {
            return EditLines(row, kCheckoutLines, kCheckoutAmountDue,
                             [&](std::vector<LineItem>* items) {
                               return EraseSku(items, sku,
                                               "sku not in checkout");
                             });
          });
        });
    if (!id.ok()) return id.status();
    procs.delete_line_from_checkout = *id;
  }
  {
    auto id = reg(
        "GetCheckout", 0.7,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          auto row = ctx.Get(tables.checkout, req.key);
          if (!row.ok()) return Fail(row.status());
          return OkWith(std::move(row).MoveValueUnsafe());
        });
    if (!id.ok()) return id.status();
    procs.get_checkout = *id;
  }
  {
    auto id = reg(
        "DeleteCheckout", 0.9,
        [tables](ExecutionContext& ctx, const TxnRequest& req) -> TxnResult {
          Status st = ctx.Delete(tables.checkout, req.key);
          if (!st.ok()) return Fail(std::move(st));
          return OkEmpty();
        },
        kPriorityCritical);
    if (!id.ok()) return id.status();
    procs.delete_checkout = *id;
  }

  return procs;
}

}  // namespace pstore
