#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.h"
#include "sim/simulator.h"
#include "storage/value.h"
#include "workload/b2w_procedures.h"
#include "workload/b2w_schema.h"

/// \file engine_alloc_test.cc
/// Allocation budget of the steady-state transaction path. This
/// translation unit replaces the global operator new / delete with a
/// counting pass-through to malloc / free, so a test can count the heap
/// allocations a stretch of code makes. Only allocations made while a
/// CountAllocations scope is open are counted.

namespace {

bool g_counting = false;
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pstore {
namespace {

/// Counts the allocations made while it is alive.
class CountAllocations {
 public:
  CountAllocations() : start_(g_allocations) { g_counting = true; }
  ~CountAllocations() { g_counting = false; }
  int64_t count() const { return g_allocations - start_; }

 private:
  int64_t start_;
};

/// An engine over one table whose one procedure does nothing: what is
/// left to allocate is the engine, executor and simulator path itself.
struct NoopEngine {
  Simulator sim;
  ProcedureId noop = -1;
  std::unique_ptr<ClusterEngine> engine;

  explicit NoopEngine(bool overload) {
    Catalog catalog;
    (void)*catalog.AddTable(Schema(
        "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
    ProcedureRegistry registry;
    noop = *registry.Register(ProcedureDef{
        "Noop",
        [](ExecutionContext&, const TxnRequest&) { return TxnResult{}; },
        1.0});
    EngineConfig config;
    config.num_buckets = 64;
    config.partitions_per_node = 2;
    config.max_nodes = 2;
    config.initial_nodes = 2;
    config.txn_service_us_mean = 100.0;
    config.txn_service_cv = 0.25;  // exercise the service-time draws
    // One latency and one throughput window for the whole run: their
    // per-window appends are amortized over a window's transactions.
    config.latency_window = 1000 * kSecond;
    config.throughput_window = 1000 * kSecond;
    if (overload) {
      config.overload.enabled = true;
      config.overload.max_queue_depth = 8;
      config.overload.queue_deadline = 2 * kMillisecond;
    }
    engine = std::make_unique<ClusterEngine>(&sim, catalog, registry, config);
  }

  /// Submits `count` transactions in bursts of 16 arriving together
  /// (deep enough to queue, and with overload on to shed).
  void Drive(int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      TxnRequest req;
      req.proc = noop;
      req.key = i;
      engine->Submit(std::move(req));
      if (i % 16 == 15) sim.RunUntil(sim.Now() + 2 * kMillisecond);
    }
    sim.RunAll();
  }
};

void ExpectAllocationFreeTxnPath(bool overload) {
  NoopEngine fx(overload);
  fx.Drive(10000);  // warm-up: txn pool, queues and event heap grow
  int64_t allocations = 0;
  {
    CountAllocations counter;
    fx.Drive(10000);
    allocations = counter.count();
  }
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(fx.engine->txns_in_flight(), 0);
  EXPECT_EQ(fx.engine->txns_committed() + fx.engine->txns_shed(), 20000);
  if (overload) {
    EXPECT_GT(fx.engine->txns_shed(), 0);
  }
}

TEST(EngineAllocTest, SteadyStateTxnPathAllocatesNothing) {
  ExpectAllocationFreeTxnPath(/*overload=*/false);
}

TEST(EngineAllocTest, SteadyStateTxnPathAllocatesNothingUnderOverload) {
  ExpectAllocationFreeTxnPath(/*overload=*/true);
}

TEST(EngineAllocTest, AddLineToCartUpdateAllocatesAtMostThree) {
  Simulator sim;
  Catalog catalog;
  ProcedureRegistry registry;
  const B2wTables tables = *RegisterB2wTables(&catalog);
  const B2wProcedures procs = *RegisterB2wProcedures(&registry, tables);
  EngineConfig config;
  config.num_buckets = 64;
  config.partitions_per_node = 1;
  config.max_nodes = 1;
  config.initial_nodes = 1;
  config.latency_window = 1000 * kSecond;
  config.throughput_window = 1000 * kSecond;
  ClusterEngine engine(&sim, catalog, registry, config);
  int64_t sku = 1000;
  const auto add_line = [&](int64_t cart) {
    TxnRequest req;
    req.proc = procs.add_line_to_cart;
    req.key = cart;
    req.args = {Value(int64_t{7}), Value(++sku), Value(int64_t{2}),
                Value(19.99)};
    return req;
  };
  // Warm-up: cart 1 grows to 40 lines, so the codec buffers outgrow
  // every later edit; cart 2 exists with one line.
  for (int i = 0; i < 40; ++i) engine.Submit(add_line(1));
  engine.Submit(add_line(2));
  sim.RunAll();
  for (int i = 0; i < 20; ++i) {
    TxnRequest req = add_line(2);  // the client's allocations
    int64_t allocations = 0;
    {
      CountAllocations counter;
      engine.Submit(std::move(req));
      sim.RunAll();
      allocations = counter.count();
    }
    // The cloned cart body, the new `lines` value and the result's
    // `rows` vector.
    EXPECT_LE(allocations, 3) << "update " << i;
  }
  EXPECT_EQ(engine.txns_committed(), 61);
  const Row cart = *engine.fragment(0)->Get(tables.cart, 2);
  EXPECT_EQ(DecodeLines(cart.at(b2w_cols::kCartLines).as_string())->size(),
            21u);
}

TEST(RowTest, SharedSetClonesAllButTheReplacedColumn) {
  const std::string long_a(40, 'a');
  const std::string long_b(50, 'b');
  Row row({Value(int64_t{1}), Value(long_a), Value(long_b)});
  const Row other = row;  // shares the body
  Value replacement(std::string(60, 'c'));
  int64_t allocations = 0;
  {
    CountAllocations counter;
    row.Set(2, std::move(replacement));
    allocations = counter.count();
  }
  // The new body and column 1's long string; column 2's old string is
  // not copied, and the replacement is moved in.
  EXPECT_EQ(allocations, 2);
  EXPECT_EQ(row.at(0).as_int64(), 1);
  EXPECT_EQ(row.at(1).as_string(), long_a);
  EXPECT_EQ(row.at(2).as_string(), std::string(60, 'c'));
  EXPECT_EQ(other.at(1).as_string(), long_a);
  EXPECT_EQ(other.at(2).as_string(), long_b);
  // The clone is this handle's own: a second Set allocates nothing.
  {
    CountAllocations counter;
    row.Set(0, Value(int64_t{2}));
    allocations = counter.count();
  }
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(other.at(0).as_int64(), 1);
}

}  // namespace
}  // namespace pstore
