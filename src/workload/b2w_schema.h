#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

/// \file b2w_schema.h
/// The B2W online-retail database (Figure 14 of the paper, Appendix C):
/// shopping carts, checkouts, stock inventory, and stock transactions.
/// Cart lines are embedded in the cart row (B2W's production store is a
/// document store accessed by GET/PUT/DELETE on the cart/checkout key),
/// which keeps every transaction single-partition-key — the property the
/// paper relies on when choosing E-Store as the reactive baseline.

namespace pstore {

/// Table ids of the B2W database within its catalog.
struct B2wTables {
  TableId cart = -1;
  TableId checkout = -1;
  TableId stock = -1;
  TableId stock_transaction = -1;
};

/// Column indexes, for readable procedure code.
namespace b2w_cols {
// CART(cart_id, customer_id, status, total, lines)
inline constexpr size_t kCartId = 0;
inline constexpr size_t kCartCustomerId = 1;
inline constexpr size_t kCartStatus = 2;
inline constexpr size_t kCartTotal = 3;
inline constexpr size_t kCartLines = 4;
// CHECKOUT(checkout_id, cart_id, status, amount_due, payment, lines)
inline constexpr size_t kCheckoutId = 0;
inline constexpr size_t kCheckoutCartId = 1;
inline constexpr size_t kCheckoutStatus = 2;
inline constexpr size_t kCheckoutAmountDue = 3;
inline constexpr size_t kCheckoutPayment = 4;
inline constexpr size_t kCheckoutLines = 5;
// STOCK(stock_id, available, reserved, purchased)
inline constexpr size_t kStockId = 0;
inline constexpr size_t kStockAvailable = 1;
inline constexpr size_t kStockReserved = 2;
inline constexpr size_t kStockPurchased = 3;
// STOCK_TRANSACTION(stock_tx_id, checkout_id, stock_id, qty, status)
inline constexpr size_t kStockTxId = 0;
inline constexpr size_t kStockTxCheckoutId = 1;
inline constexpr size_t kStockTxStockId = 2;
inline constexpr size_t kStockTxQty = 3;
inline constexpr size_t kStockTxStatus = 4;
}  // namespace b2w_cols

/// Registers the four B2W tables in `catalog`; returns their ids.
Result<B2wTables> RegisterB2wTables(Catalog* catalog);

/// \brief One line item of a cart or checkout.
struct LineItem {
  int64_t sku = 0;
  int64_t quantity = 0;
  double unit_price = 0;

  bool operator==(const LineItem& other) const {
    return sku == other.sku && quantity == other.quantity &&
           unit_price == other.unit_price;
  }
};

/// Serializes line items as "sku:qty:price;..." for the embedded
/// `lines` column.
std::string EncodeLines(const std::vector<LineItem>& lines);

/// EncodeLines into `*out`, replacing its contents and reusing its
/// capacity.
void EncodeLinesTo(const std::vector<LineItem>& lines, std::string* out);

/// Parses the embedded representation; malformed input yields
/// InvalidArgument.
Result<std::vector<LineItem>> DecodeLines(std::string_view encoded);

/// DecodeLines into `*out`, replacing its contents and reusing its
/// capacity. On malformed input returns InvalidArgument, and `*out`
/// holds the items parsed before the bad one.
Status DecodeLinesTo(std::string_view encoded, std::vector<LineItem>* out);

/// Sum of quantity * unit_price over the lines.
double LinesTotal(const std::vector<LineItem>& lines);

}  // namespace pstore
