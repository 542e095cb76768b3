#include "txn/procedure.h"

#include <gtest/gtest.h>

namespace pstore {
namespace {

class ProcedureTest : public ::testing::Test {
 protected:
  ProcedureTest() {
    table_ = *catalog_.AddTable(Schema(
        "T", {{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
  }

  Catalog catalog_;
  TableId table_;
};

TEST_F(ProcedureTest, RegistryAssignsSequentialIds) {
  ProcedureRegistry reg;
  auto a = reg.Register(ProcedureDef{
      "A", [](ExecutionContext&, const TxnRequest&) { return TxnResult{}; },
      1.0});
  auto b = reg.Register(ProcedureDef{
      "B", [](ExecutionContext&, const TxnRequest&) { return TxnResult{}; },
      1.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  EXPECT_EQ(reg.size(), 2u);
}

TEST_F(ProcedureTest, RegistryRejectsDuplicates) {
  ProcedureRegistry reg;
  ASSERT_TRUE(reg.Register(ProcedureDef{"A", nullptr, 1.0}).ok());
  EXPECT_TRUE(
      reg.Register(ProcedureDef{"A", nullptr, 1.0}).status().IsAlreadyExists());
}

TEST_F(ProcedureTest, IdByName) {
  ProcedureRegistry reg;
  ASSERT_TRUE(reg.Register(ProcedureDef{"X", nullptr, 1.0}).ok());
  auto id = reg.IdByName("X");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  EXPECT_EQ(reg.Get(*id).name, "X");
  EXPECT_TRUE(reg.IdByName("Y").status().IsNotFound());
}

TEST_F(ProcedureTest, ExecutionContextReadsAndWrites) {
  StorageFragment frag(&catalog_, 8);
  WriteSet writes;
  ExecutionContext ctx(&frag, &writes);
  const Row row({Value(int64_t{1}), Value(int64_t{10})});
  ASSERT_TRUE(ctx.Insert(table_, row).ok());
  EXPECT_TRUE(ctx.Contains(table_, 1));
  auto got = ctx.Get(table_, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->at(1).as_int64(), 10);
  ASSERT_TRUE(ctx.Upsert(
                     table_, Row({Value(int64_t{1}), Value(int64_t{20})}))
                  .ok());
  EXPECT_EQ(ctx.Get(table_, 1)->at(1).as_int64(), 20);
  ASSERT_TRUE(ctx.Delete(table_, 1).ok());
  EXPECT_FALSE(ctx.Contains(table_, 1));
}

TEST_F(ProcedureTest, ExecutionContextRecordsSuccessfulWrites) {
  StorageFragment frag(&catalog_, 8);
  WriteSet writes;
  writes.push_back(WriteOp{table_, 99, Row()});  // Stale: cleared below.
  ExecutionContext ctx(&frag, &writes);
  EXPECT_EQ(ctx.mutations(), 0);
  const Row row({Value(int64_t{1}), Value(int64_t{10})});
  ASSERT_TRUE(ctx.Insert(table_, row).ok());
  EXPECT_TRUE(ctx.Insert(table_, row).IsAlreadyExists());  // Not recorded.
  const Row updated({Value(int64_t{1}), Value(int64_t{20})});
  ASSERT_TRUE(ctx.Upsert(table_, updated).ok());
  EXPECT_TRUE(ctx.Delete(table_, 7).IsNotFound());  // Not recorded.
  ASSERT_TRUE(ctx.Delete(table_, 1).ok());
  ASSERT_EQ(ctx.mutations(), 3);
  ASSERT_EQ(&ctx.writes(), &writes);
  EXPECT_EQ(writes[0].table, table_);
  EXPECT_EQ(writes[0].row, row);
  EXPECT_EQ(writes[1].row, updated);
  EXPECT_EQ(writes[2].row.size(), 0u);  // A delete...
  EXPECT_EQ(writes[2].key, 1);          // ...of key 1.
}

TEST_F(ProcedureTest, ProcedureBodyRunsAgainstContext) {
  StorageFragment frag(&catalog_, 8);
  ProcedureRegistry reg;
  TableId table = table_;
  auto id = reg.Register(ProcedureDef{
      "Incr",
      [table](ExecutionContext& ctx, const TxnRequest& req) {
        TxnResult result;
        auto row = ctx.Get(table, req.key);
        if (!row.ok()) {
          result.status = ctx.Insert(
              table, Row({Value(req.key), Value(int64_t{1})}));
          return result;
        }
        Row updated = std::move(row).MoveValueUnsafe();
        updated.Set(1, Value(updated.at(1).as_int64() + 1));
        result.status = ctx.Upsert(table, updated);
        result.rows.push_back(updated);
        return result;
      },
      1.0});
  ASSERT_TRUE(id.ok());

  WriteSet writes;
  ExecutionContext ctx(&frag, &writes);
  TxnRequest req;
  req.proc = *id;
  req.key = 42;
  // First call inserts, second increments.
  EXPECT_TRUE(reg.Get(*id).body(ctx, req).status.ok());
  TxnResult second = reg.Get(*id).body(ctx, req);
  EXPECT_TRUE(second.status.ok());
  ASSERT_EQ(second.rows.size(), 1u);
  EXPECT_EQ(second.rows[0].at(1).as_int64(), 2);
}

TEST_F(ProcedureTest, ServiceWeightDefaultsToOne) {
  ProcedureDef def{"W", nullptr, 1.0};
  EXPECT_DOUBLE_EQ(def.service_weight, 1.0);
}

}  // namespace
}  // namespace pstore
