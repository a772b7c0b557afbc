// Memory tests of the serving engine's request records, lifecycle, batch
// executor and load generator, of the TPC-H table generator and of the
// wide tree adder. A counting global allocator tracks live and peak heap
// bytes, live blocks and the number of allocations, so a test can check
// what a drained Server still holds, how much a run or a trace allocates,
// and how many blocks one dispatch or one make_tables call allocates. Its
// own binary: the allocator replaces operator new/delete for the whole
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/tpch.hpp"
#include "arith/fast_units.hpp"
#include "serve/executor.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace {

// Every block carries its size in a header that keeps the default new
// alignment, so operator delete can subtract it.
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_live_blocks{0};

}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  const std::size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(block),
                         std::memory_order_relaxed);
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace apim::serve {
namespace {

using Operand = std::pair<std::uint64_t, std::uint64_t>;

std::size_t live_bytes() { return g_live_bytes.load(); }

/// Restart peak tracking from the current live bytes; returns them.
std::size_t restart_peak() {
  const std::size_t live = live_bytes();
  g_peak_bytes.store(live);
  return live;
}

/// One host thread, so no pool worker allocates behind the counts.
class SingleThread : public ::testing::Test {
 protected:
  SingleThread() { util::set_thread_count(1); }
  ~SingleThread() override { util::set_thread_count(0); }
};

Request make_request(std::size_t i, std::size_t ops, util::Cycles arrival) {
  Request r;
  r.app = "tenant";
  r.width = 16;
  r.arrival = arrival;
  r.operands.resize(ops);
  for (std::size_t j = 0; j < ops; ++j)
    r.operands[j] = {(i + j) & 0xFFFFu, (3 * j + 1) & 0xFFFFu};
  return r;
}

void drain(Server& server) {
  while (const auto at = server.next_event_at()) server.step_until(*at);
}

using ServeMemory = SingleThread;

TEST_F(ServeMemory, ReleasedServerHoldsNoStagedOperands) {
  constexpr std::size_t kRequests = 256;
  constexpr std::size_t kOps = 32;
  constexpr std::size_t kOperandBytes = kRequests * kOps * sizeof(Operand);
  constexpr std::size_t kValueBytes = kRequests * kOps * sizeof(std::uint64_t);

  Server server(ServerConfig{});
  // Warm-up request: lazily built tables and first-use buffers are not
  // what this test measures.
  server.stage_request(make_request(0, kOps, 0));
  drain(server);

  std::vector<std::uint64_t> ids;
  ids.reserve(kRequests);
  const std::size_t before = live_bytes();
  {
    std::vector<Request> requests;
    for (std::size_t i = 0; i < kRequests; ++i)
      requests.push_back(make_request(i, kOps, server.virtual_now() + i));
    for (Request& r : requests)
      ids.push_back(server.stage_request(std::move(r)));
  }
  drain(server);
  server.release_finished();
  for (const std::uint64_t id : ids) {
    ASSERT_EQ(server.response(id).status, RequestStatus::kOk);
    ASSERT_EQ(server.response(id).values.size(), kOps);
  }
  const std::size_t retained = live_bytes() - before;

  // A drained server keeps every response's values. Were it still holding
  // the operands as well, it would retain at least both payloads (an
  // engine that keeps them retains about 290 kB here).
  EXPECT_LT(retained, kOperandBytes + kValueBytes)
      << "retained " << retained << " bytes for " << kRequests
      << " requests; their operands are " << kOperandBytes << " bytes";
}

TEST_F(ServeMemory, RunTracePeaksBelowItsInputOperands) {
  constexpr std::size_t kRequests = 2000;
  constexpr std::size_t kOps = 32;
  constexpr std::size_t kOperandBytes = kRequests * kOps * sizeof(Operand);

  {
    // Warm-up run on another server, as above.
    Server warm(ServerConfig{});
    (void)warm.run_trace({make_request(0, kOps, 0)});
  }
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    trace.push_back(make_request(i, kOps, 40 * i));

  Server server(ServerConfig{});
  const std::size_t base = restart_peak();
  const std::vector<Response> responses = server.run_trace(std::move(trace));
  const std::size_t peak = g_peak_bytes.load() - base;
  ASSERT_EQ(responses.size(), kRequests);
  for (const Response& r : responses) ASSERT_EQ(r.status, RequestStatus::kOk);

  // Bytes allocated on top of the caller's trace at the run's peak. The
  // bound sits between an engine that keeps a heap node per request,
  // copies each response out and keeps the trace's shells to the end
  // (about 1.97 MB here) and one that does none of that (about 0.88 MB).
  EXPECT_LT(peak, kOperandBytes)
      << "run_trace peaked " << peak << " bytes above its input; the "
      << "trace's operands are " << kOperandBytes << " bytes";
}

// The engine holds one Request and one Response per staged request, so
// their padding is paid once per request. Each packs its narrow fields
// into its last word; a Request that also carries a QoS spec takes 120,
// a Response with a full QoS evaluation and word-sized counters 112, and
// one with 32-bit counters and relax level 96.
TEST(ServeLayout, RequestAndResponsePackTheirNarrowFields) {
  EXPECT_LE(sizeof(Request), 80u);
  EXPECT_LE(sizeof(Response), 88u);
}

// The engine builds each record in place in a chunk of 512, so staging
// allocates the chunks, the chunk list and the arrival heap, and nothing
// per request. A std::deque of 176-byte records allocates a node every
// two requests: 518 and 2 022 allocations here.
TEST_F(ServeMemory, StagingAllocatesChunksNotRecords) {
  for (const std::size_t requests : {1000u, 4000u}) {
    std::vector<Request> trace;
    trace.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i)
      trace.push_back(make_request(i, 1, i));
    Server server(ServerConfig{});
    const std::size_t before = g_allocations.load();
    for (Request& r : trace) server.stage_request(std::move(r));
    const std::size_t allocations = g_allocations.load() - before;
    const std::size_t chunks = (requests + 511) / 512;
    EXPECT_LE(allocations, chunks + 32)
        << "allocations to stage " << requests << " one-op requests";
  }
}

// A staged record never moves, so a response read by address (the
// engine's own PendingReq& while later requests stage) stays valid.
TEST_F(ServeMemory, StagedRecordsNeverMove) {
  Server server(ServerConfig{});
  const std::uint64_t first = server.stage_request(make_request(0, 1, 0));
  const Response* record = &server.response(first);
  for (std::size_t i = 1; i <= 10000; ++i)
    server.stage_request(make_request(i, 1, i));
  EXPECT_EQ(&server.response(first), record);
  drain(server);
  EXPECT_EQ(&server.response(first), record);
  EXPECT_EQ(record->status, RequestStatus::kOk);
}

/// A one-op trace like the serve-engine benchmark's (16 tenants, width 8):
/// the records, not the operand pairs, set the footprint.
LoadGenConfig one_op_trace_config() {
  LoadGenConfig gen;
  gen.requests = 20000;
  gen.rate_per_kcycle = 50.0;
  for (int t = 0; t < 16; ++t) gen.apps.push_back("t" + std::to_string(t));
  gen.min_ops = 1;
  gen.max_ops = 1;
  gen.width = 8;
  return gen;
}

// Each request keeps its one operand pair inside its 80 bytes, so the
// trace array is the only allocation. A Request whose pair has its own
// block needs one more allocation and 96 bytes per request.
TEST_F(ServeMemory, OneOpTraceAllocatesOnlyTheTraceArray) {
  const LoadGenConfig gen = one_op_trace_config();
  const std::size_t before = g_allocations.load();
  const std::size_t base = restart_peak();
  const std::vector<Request> trace = make_open_loop_trace(gen);
  const std::size_t peak = g_peak_bytes.load() - base;
  ASSERT_EQ(trace.size(), gen.requests);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(peak, sizeof(Request) * gen.requests)
      << peak / gen.requests << " bytes per request";
}

// A request of 32 ops owns one operand block, sized once and filled in
// place, so a trace of serve-kernel's shape makes one allocation per
// request beside the trace array, at any length.
TEST_F(ServeMemory, WideTraceAllocatesOneBlockPerRequest) {
  for (const std::size_t requests : {1000u, 4000u}) {
    LoadGenConfig gen;
    gen.requests = requests;
    gen.rate_per_kcycle = 10.0;
    gen.apps = {"Sobel", "FFT"};
    gen.min_ops = 32;
    gen.max_ops = 32;
    gen.width = 32;
    gen.add_fraction = 0.25;
    const std::size_t before = g_allocations.load();
    const std::vector<Request> trace = make_open_loop_trace(gen);
    ASSERT_EQ(trace.size(), requests);
    EXPECT_EQ(g_allocations.load() - before, requests + 1)
        << "allocations for " << requests << " 32-op requests";
  }
}

// The same trace through run_trace, bytes at the run's peak on top of its
// input. The engine's record per request (a Request and a Response), the
// responses it returns and its arrival heap and finished list set it: an
// engine whose record also keeps its relax level and two flags beside a
// 112-byte Response needs about 285 bytes per request, one with a 96-byte
// Response in a std::deque about 253, this one about 233.
TEST_F(ServeMemory, OneOpRunTraceNeedsAtMost264BytesPerRequest) {
  const LoadGenConfig gen = one_op_trace_config();
  {
    // Warm-up run on another server: lazily built tables and first-use
    // buffers are not what this test measures.
    Server warm(ServerConfig{});
    (void)warm.run_trace({make_request(0, 1, 0)});
  }
  std::vector<Request> trace = make_open_loop_trace(gen);
  Server server(ServerConfig{});
  const std::size_t base = restart_peak();
  const std::vector<Response> responses = server.run_trace(std::move(trace));
  const double per_request =
      static_cast<double>(g_peak_bytes.load() - base) /
      static_cast<double>(gen.requests);
  ASSERT_EQ(responses.size(), gen.requests);
  EXPECT_LE(per_request, 264.0) << "bytes per request above the input";
}

// A whole one-op run, trace generation included, leaves only the returned
// responses array: no request owned a block that outlives it. An engine
// whose responses keep their values in heap blocks leaves one more block
// per request, so the count would grow with the trace.
TEST_F(ServeMemory, OneOpRunLeavesTheSameBlocksAtAnyTraceLength) {
  {
    // Warm-up run, as above.
    Server warm(ServerConfig{});
    (void)warm.run_trace({make_request(0, 1, 0)});
  }
  for (const std::size_t requests : {5000u, 20000u}) {
    LoadGenConfig gen = one_op_trace_config();
    gen.requests = requests;
    const std::size_t before = g_live_blocks.load();
    std::vector<Response> responses;
    {
      Server server(ServerConfig{});
      responses = server.run_trace(make_open_loop_trace(gen));
    }
    ASSERT_EQ(responses.size(), requests);
    for (const Response& r : responses) ASSERT_EQ(r.values.size(), 1u);
    EXPECT_EQ(g_live_blocks.load() - before, 1u)
        << "blocks left by a run of " << requests << " one-op requests";
  }
}

/// Allocations of one fault-free dispatch of three members of `ops`
/// width-16 multiplies each, after an identical warm-up dispatch.
std::size_t execute_batch_allocations(std::size_t ops) {
  std::vector<std::vector<Operand>> operands;
  for (std::size_t m = 0; m < 3; ++m) {
    const Request r = make_request(m, ops, 0);
    operands.emplace_back(r.operands.begin(), r.operands.end());
  }
  std::vector<std::span<const Operand>> members(operands.begin(),
                                                operands.end());
  BatchKey key;
  key.width = 16;
  const core::ApimConfig base;
  EXPECT_TRUE(base.reliability.faults.empty());

  const BatchExecution warm = execute_batch(members, key, 64, base);
  const std::size_t before = g_allocations.load();
  const BatchExecution exec = execute_batch(members, key, 64, base);
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(exec.values.size(), 3u);
  EXPECT_EQ(exec.values, warm.values);
  for (const auto& values : exec.values) EXPECT_EQ(values.size(), ops);
  return allocations;
}

TEST_F(ServeMemory, ExecuteBatchAllocatesOnlyItsResults) {
  // Eight ops per member: the outer values vector, one block per member's
  // values, and the per-lane cycle sums. An executor that flattens the
  // operands and stages per-op values, per-op cycles and per-chunk stats
  // before a thread-pool call makes 10.
  EXPECT_LE(execute_batch_allocations(8), 5u);
  // One op per member: each member's value stays inline, so the outer
  // values vector and the cycle sums are all. A block per member makes 5.
  EXPECT_LE(execute_batch_allocations(1), 2u);
}

// The analytics-tpch benchmark's set-up is two make_tables calls at this
// size; each column is built inside its table and allocated once.
TEST(AnalyticsMemory, MakeTablesAllocatesEachColumnOnce) {
  analytics::TpchConfig cfg;
  cfg.orders = 16384;
  cfg.seed = 2017;
  const std::size_t before = g_allocations.load();
  const analytics::TpchTables t = analytics::make_tables(cfg);
  const std::size_t allocations = g_allocations.load() - before;

  // Nine columns and the two tables' column vectors. Columns that grow by
  // doubling and are then copied into the tables make 158.
  EXPECT_LE(allocations, 11u);
  for (const analytics::Table* table : {&t.orders, &t.lineitem}) {
    for (const analytics::Column& c : table->columns) {
      EXPECT_LE(c.values.capacity() * 5, c.values.size() * 6)
          << c.name << ": capacity " << c.values.capacity() << " for "
          << c.values.size() << " rows";
    }
  }
}

// Past 64 operands fast_tree_add carves its values, widths and blocks
// arrays from one heap block; three vectors make 3 allocations.
TEST(ArithMemory, WideTreeAddAllocatesOneBlock) {
  constexpr std::size_t kOperands = 100;
  std::vector<std::uint64_t> values(kOperands);
  const std::vector<unsigned> widths(kOperands, 16);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kOperands; ++i) {
    values[i] = (i * 40503u) & 0xFFFFu;
    total += values[i];
  }
  const std::size_t before = g_allocations.load();
  const arith::AddOutcome r =
      arith::fast_tree_add(values, widths, 23, device::EnergyModel{});
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(r.sum, total);
}

}  // namespace
}  // namespace apim::serve
