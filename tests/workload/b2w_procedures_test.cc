#include "workload/b2w_procedures.h"

#include <gtest/gtest.h>

#include "storage/fragment.h"

namespace pstore {
namespace {

/// Fixture with one fragment acting as the owning partition of all keys.
class B2wProceduresTest : public ::testing::Test {
 protected:
  B2wProceduresTest() {
    tables_ = *RegisterB2wTables(&catalog_);
    procs_ = *RegisterB2wProcedures(&registry_, tables_);
    fragment_ = std::make_unique<StorageFragment>(&catalog_, 64);
    ctx_ = std::make_unique<ExecutionContext>(fragment_.get(), &writes_);
  }

  TxnResult Run(ProcedureId proc, int64_t key,
                std::vector<Value> args = {}) {
    TxnRequest req;
    req.proc = proc;
    req.key = key;
    req.args = std::move(args);
    return registry_.Get(proc).body(*ctx_, req);
  }

  Catalog catalog_;
  ProcedureRegistry registry_;
  B2wTables tables_;
  B2wProcedures procs_;
  std::unique_ptr<StorageFragment> fragment_;
  WriteSet writes_;
  std::unique_ptr<ExecutionContext> ctx_;
};

TEST_F(B2wProceduresTest, RegistersAll19Procedures) {
  EXPECT_EQ(registry_.size(), 19u);
}

TEST_F(B2wProceduresTest, AddLineToCartCreatesCart) {
  TxnResult r = Run(procs_.add_line_to_cart, 1,
                    {Value(int64_t{500}), Value(int64_t{101}),
                     Value(int64_t{2}), Value(10.0)});
  ASSERT_TRUE(r.status.ok());
  auto cart = fragment_->Get(tables_.cart, 1);
  ASSERT_TRUE(cart.ok());
  EXPECT_EQ(cart->at(b2w_cols::kCartStatus).as_string(), "ACTIVE");
  EXPECT_DOUBLE_EQ(cart->at(b2w_cols::kCartTotal).as_double(), 20.0);
}

TEST_F(B2wProceduresTest, AddLineToCartAppendsAndUpdatesTotal) {
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 1,
                  {Value(int64_t{500}), Value(int64_t{101}),
                   Value(int64_t{1}), Value(10.0)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 1,
                  {Value(int64_t{500}), Value(int64_t{102}),
                   Value(int64_t{3}), Value(5.0)})
                  .status.ok());
  auto cart = fragment_->Get(tables_.cart, 1);
  ASSERT_TRUE(cart.ok());
  EXPECT_DOUBLE_EQ(cart->at(b2w_cols::kCartTotal).as_double(), 25.0);
  auto lines = DecodeLines(cart->at(b2w_cols::kCartLines).as_string());
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);
}

TEST_F(B2wProceduresTest, AddLineToCartRejectsBadArity) {
  EXPECT_TRUE(Run(procs_.add_line_to_cart, 1, {Value(int64_t{1})})
                  .status.IsInvalidArgument());
}

TEST_F(B2wProceduresTest, DeleteLineFromCart) {
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 1,
                  {Value(int64_t{500}), Value(int64_t{101}),
                   Value(int64_t{1}), Value(10.0)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 1,
                  {Value(int64_t{500}), Value(int64_t{102}),
                   Value(int64_t{1}), Value(4.0)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.delete_line_from_cart, 1, {Value(int64_t{101})})
                  .status.ok());
  auto cart = fragment_->Get(tables_.cart, 1);
  EXPECT_DOUBLE_EQ(cart->at(b2w_cols::kCartTotal).as_double(), 4.0);
  // Deleting an absent sku aborts.
  EXPECT_TRUE(Run(procs_.delete_line_from_cart, 1, {Value(int64_t{999})})
                  .status.IsNotFound());
}

TEST_F(B2wProceduresTest, GetCartReturnsRowOrAborts) {
  EXPECT_TRUE(Run(procs_.get_cart, 77).status.IsNotFound());
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 77,
                  {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1}),
                   Value(1.0)})
                  .status.ok());
  TxnResult r = Run(procs_.get_cart, 77);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(B2wProceduresTest, DeleteCart) {
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 5,
                  {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1}),
                   Value(1.0)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.delete_cart, 5).status.ok());
  EXPECT_FALSE(fragment_->Contains(tables_.cart, 5));
  EXPECT_TRUE(Run(procs_.delete_cart, 5).status.IsNotFound());
}

TEST_F(B2wProceduresTest, ReserveCartSetsStatus) {
  ASSERT_TRUE(Run(procs_.add_line_to_cart, 9,
                  {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1}),
                   Value(1.0)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.reserve_cart, 9).status.ok());
  EXPECT_EQ(fragment_->Get(tables_.cart, 9)
                ->at(b2w_cols::kCartStatus)
                .as_string(),
            "RESERVED");
}

TEST_F(B2wProceduresTest, StockLifecycle) {
  // Seed stock of 10 units.
  ASSERT_TRUE(fragment_
                  ->Insert(tables_.stock,
                           Row({Value(int64_t{42}), Value(int64_t{10}),
                                Value(int64_t{0}), Value(int64_t{0})}))
                  .ok());
  // GetStockQuantity returns availability.
  TxnResult q = Run(procs_.get_stock_quantity, 42);
  ASSERT_TRUE(q.status.ok());
  EXPECT_EQ(q.rows[0].at(1).as_int64(), 10);

  // Reserve 4.
  ASSERT_TRUE(Run(procs_.reserve_stock, 42, {Value(int64_t{4})}).status.ok());
  auto stock = fragment_->Get(tables_.stock, 42);
  EXPECT_EQ(stock->at(b2w_cols::kStockAvailable).as_int64(), 6);
  EXPECT_EQ(stock->at(b2w_cols::kStockReserved).as_int64(), 4);

  // Purchase 3 of the reserved.
  ASSERT_TRUE(Run(procs_.purchase_stock, 42, {Value(int64_t{3})}).status.ok());
  stock = fragment_->Get(tables_.stock, 42);
  EXPECT_EQ(stock->at(b2w_cols::kStockReserved).as_int64(), 1);
  EXPECT_EQ(stock->at(b2w_cols::kStockPurchased).as_int64(), 3);

  // Cancel the remaining reservation.
  ASSERT_TRUE(Run(procs_.cancel_stock_reservation, 42, {Value(int64_t{1})})
                  .status.ok());
  stock = fragment_->Get(tables_.stock, 42);
  EXPECT_EQ(stock->at(b2w_cols::kStockAvailable).as_int64(), 7);
  EXPECT_EQ(stock->at(b2w_cols::kStockReserved).as_int64(), 0);
}

TEST_F(B2wProceduresTest, ReserveStockInsufficientAborts) {
  ASSERT_TRUE(fragment_
                  ->Insert(tables_.stock,
                           Row({Value(int64_t{1}), Value(int64_t{2}),
                                Value(int64_t{0}), Value(int64_t{0})}))
                  .ok());
  EXPECT_TRUE(Run(procs_.reserve_stock, 1, {Value(int64_t{5})})
                  .status.IsFailedPrecondition());
  // Unchanged on abort.
  EXPECT_EQ(fragment_->Get(tables_.stock, 1)
                ->at(b2w_cols::kStockAvailable)
                .as_int64(),
            2);
}

TEST_F(B2wProceduresTest, PurchaseUnreservedAborts) {
  ASSERT_TRUE(fragment_
                  ->Insert(tables_.stock,
                           Row({Value(int64_t{1}), Value(int64_t{5}),
                                Value(int64_t{0}), Value(int64_t{0})}))
                  .ok());
  EXPECT_TRUE(Run(procs_.purchase_stock, 1, {Value(int64_t{1})})
                  .status.IsFailedPrecondition());
  EXPECT_TRUE(Run(procs_.cancel_stock_reservation, 1, {Value(int64_t{1})})
                  .status.IsFailedPrecondition());
}

TEST_F(B2wProceduresTest, StockTransactionLifecycle) {
  ASSERT_TRUE(Run(procs_.create_stock_transaction, 900,
                  {Value(int64_t{77}), Value(int64_t{42}), Value(int64_t{2})})
                  .status.ok());
  TxnResult got = Run(procs_.get_stock_transaction, 900);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.rows[0].at(b2w_cols::kStockTxStatus).as_string(), "RESERVED");

  ASSERT_TRUE(Run(procs_.update_stock_transaction, 900, {Value("PURCHASED")})
                  .status.ok());
  EXPECT_EQ(fragment_->Get(tables_.stock_transaction, 900)
                ->at(b2w_cols::kStockTxStatus)
                .as_string(),
            "PURCHASED");
  // Duplicate creation aborts.
  EXPECT_TRUE(Run(procs_.create_stock_transaction, 900,
                  {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1})})
                  .status.IsAlreadyExists());
}

TEST_F(B2wProceduresTest, CheckoutLifecycle) {
  ASSERT_TRUE(
      Run(procs_.create_checkout, 300, {Value(int64_t{1})}).status.ok());
  ASSERT_TRUE(Run(procs_.add_line_to_checkout, 300,
                  {Value(int64_t{101}), Value(int64_t{2}), Value(7.5)})
                  .status.ok());
  ASSERT_TRUE(Run(procs_.add_line_to_checkout, 300,
                  {Value(int64_t{102}), Value(int64_t{1}), Value(5.0)})
                  .status.ok());
  auto checkout = fragment_->Get(tables_.checkout, 300);
  EXPECT_DOUBLE_EQ(checkout->at(b2w_cols::kCheckoutAmountDue).as_double(),
                   20.0);

  ASSERT_TRUE(Run(procs_.create_checkout_payment, 300, {Value("VISA-1")})
                  .status.ok());
  checkout = fragment_->Get(tables_.checkout, 300);
  EXPECT_EQ(checkout->at(b2w_cols::kCheckoutPayment).as_string(), "VISA-1");
  EXPECT_EQ(checkout->at(b2w_cols::kCheckoutStatus).as_string(), "PAYMENT");

  ASSERT_TRUE(Run(procs_.delete_line_from_checkout, 300,
                  {Value(int64_t{101})})
                  .status.ok());
  checkout = fragment_->Get(tables_.checkout, 300);
  EXPECT_DOUBLE_EQ(checkout->at(b2w_cols::kCheckoutAmountDue).as_double(),
                   5.0);

  TxnResult got = Run(procs_.get_checkout, 300);
  ASSERT_TRUE(got.status.ok());
  ASSERT_TRUE(Run(procs_.delete_checkout, 300).status.ok());
  EXPECT_TRUE(Run(procs_.get_checkout, 300).status.IsNotFound());
}

TEST_F(B2wProceduresTest, CreateCheckoutDuplicateAborts) {
  ASSERT_TRUE(
      Run(procs_.create_checkout, 1, {Value(int64_t{2})}).status.ok());
  EXPECT_TRUE(Run(procs_.create_checkout, 1, {Value(int64_t{2})})
                  .status.IsAlreadyExists());
}

TEST_F(B2wProceduresTest, OperationsOnMissingKeysAbort) {
  EXPECT_TRUE(Run(procs_.get_stock, 404).status.IsNotFound());
  EXPECT_TRUE(Run(procs_.get_checkout, 404).status.IsNotFound());
  EXPECT_TRUE(Run(procs_.get_stock_transaction, 404).status.IsNotFound());
  EXPECT_TRUE(Run(procs_.reserve_cart, 404).status.IsNotFound());
  EXPECT_TRUE(Run(procs_.add_line_to_checkout, 404,
                  {Value(int64_t{1}), Value(int64_t{1}), Value(1.0)})
                  .status.IsNotFound());
  EXPECT_TRUE(Run(procs_.create_checkout_payment, 404, {Value("X")})
                  .status.IsNotFound());
  EXPECT_TRUE(Run(procs_.update_stock_transaction, 404, {Value("X")})
                  .status.IsNotFound());
}

TEST_F(B2wProceduresTest, ReadProceduresAreLighterThanWrites) {
  EXPECT_LT(registry_.Get(procs_.get_cart).service_weight,
            registry_.Get(procs_.add_line_to_cart).service_weight);
}

}  // namespace
}  // namespace pstore
