// Golden-result tests for the TPC-H-style queries (src/analytics/tpch.*):
// fixed seeds, committed expected values, exact integer compares — any
// drift in the generator, the operators, the micro-kernels, or the serving
// path that perturbs a query result fails here. A metamorphic companion
// checks row-permutation invariance: shuffling the base tables' rows must
// leave every aggregate-level result untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "analytics/runner.hpp"
#include "analytics/tpch.hpp"
#include "core/config.hpp"
#include "snapshot_digest.hpp"
#include "util/rng.hpp"

namespace {

using apim::analytics::AggRow;
using apim::analytics::Q3Result;
using apim::analytics::Q6Result;
using apim::analytics::Runner;
using apim::analytics::RunnerConfig;
using apim::analytics::Table;
using apim::analytics::TpchConfig;
using apim::analytics::TpchTables;

RunnerConfig runner_config(apim::core::Backend backend) {
  RunnerConfig cfg;
  cfg.server.streams = 2;
  cfg.server.lanes_per_stream = 16;
  cfg.server.queue_capacity = 64;
  cfg.server.batch_window = 500;
  cfg.server.device.backend = backend;
  return cfg;
}

Runner make_runner(apim::core::Backend backend) {
  return Runner(runner_config(backend));
}

/// FNV-1a digest over a stream of words: the committed fingerprint of the
/// full structured results (per-group rows, sorted revenues).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_rows(const std::vector<AggRow>& rows) {
    add(rows.size());
    for (const AggRow& r : rows) {
      add(r.key);
      add(r.count);
      add(r.sum);
      add(r.min);
      add(r.max);
      add(r.avg_q);
      add(r.avg_r);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct QueryResults {
  Q6Result q6;
  std::vector<AggRow> q1;
  Q3Result q3;
};

QueryResults run_queries(Runner& runner, const TpchTables& t) {
  QueryResults r;
  r.q6 = apim::analytics::q6_revenue(runner, t);
  r.q1 = apim::analytics::q1_pricing_summary(runner, t);
  r.q3 = apim::analytics::q3_shipping_priority(runner, t);
  return r;
}

std::uint64_t digest_of(const QueryResults& r) {
  Digest d;
  d.add(r.q6.matching_rows);
  d.add(r.q6.revenue);
  d.add_rows(r.q1);
  d.add(r.q3.qualifying_orders);
  d.add(r.q3.join_pairs);
  d.add_rows(r.q3.by_cust);
  d.add(r.q3.revenue_sorted.size());
  for (const std::uint64_t v : r.q3.revenue_sorted) d.add(v);
  return d.value();
}

/// Committed goldens: captured from the seed-pinned generator and the
/// exact operators; all three backends must reproduce them bit for bit.
struct Golden {
  std::uint64_t seed;
  std::uint64_t lineitem_rows;
  std::uint64_t q6_matching;
  std::uint64_t q6_revenue;
  std::uint64_t q1_groups;
  std::uint64_t q3_orders;
  std::uint64_t q3_pairs;
  std::uint64_t digest;
};

constexpr Golden kGoldens[] = {
    {1, 122, 39, 64835, 7, 28, 70, 12963465657971113130ull},
    {2, 102, 28, 48004, 7, 32, 81, 10130348949340463822ull},
};

TpchConfig config_for(std::uint64_t seed) {
  TpchConfig cfg;
  cfg.orders = 48;
  cfg.lines_per_order_max = 5;
  cfg.seed = seed;
  return cfg;
}

TEST(AnalyticsGolden, FixedSeedResults) {
  for (const auto backend :
       {apim::core::Backend::kFast, apim::core::Backend::kBitsliced}) {
    for (const Golden& g : kGoldens) {
      const TpchTables t = apim::analytics::make_tables(config_for(g.seed));
      Runner runner = make_runner(backend);
      const QueryResults r = run_queries(runner, t);
      EXPECT_EQ(t.lineitem.rows(), g.lineitem_rows) << "seed " << g.seed;
      EXPECT_EQ(r.q6.matching_rows, g.q6_matching) << "seed " << g.seed;
      EXPECT_EQ(r.q6.revenue, g.q6_revenue) << "seed " << g.seed;
      EXPECT_EQ(r.q1.size(), g.q1_groups) << "seed " << g.seed;
      EXPECT_EQ(r.q3.qualifying_orders, g.q3_orders) << "seed " << g.seed;
      EXPECT_EQ(r.q3.join_pairs, g.q3_pairs) << "seed " << g.seed;
      EXPECT_EQ(digest_of(r), g.digest) << "seed " << g.seed;
    }
  }
}

/// FNV-1a over both tables: each column's name, width, row count and
/// values, in column order.
std::uint64_t tables_digest(const TpchTables& t) {
  Digest d;
  for (const Table* table : {&t.orders, &t.lineitem}) {
    d.add(table->columns.size());
    for (const apim::analytics::Column& c : table->columns) {
      d.add(c.name.size());
      for (const char ch : c.name) d.add(static_cast<unsigned char>(ch));
      d.add(c.width);
      d.add(c.values.size());
      for (const std::uint64_t v : c.values) d.add(v);
    }
  }
  return d.value();
}

// The generated tables themselves, at the benchmark's seed and at its
// smoke and full sizes: any change to a draw, its order or a column
// fails here before it reaches a query result.
TEST(AnalyticsGolden, TablesDigestIsPinned) {
  struct TablesGolden {
    std::size_t orders;
    std::uint64_t lineitem_rows;
    std::uint64_t digest;
  };
  constexpr TablesGolden kTables[] = {
      {1024, 2984, 13919638301458495717ull},
      {16384, 49261, 9163806637401333374ull},
  };
  for (const TablesGolden& g : kTables) {
    TpchConfig cfg;
    cfg.orders = g.orders;
    cfg.seed = 2017;
    const TpchTables t = apim::analytics::make_tables(cfg);
    EXPECT_EQ(t.orders.rows(), g.orders);
    EXPECT_EQ(t.lineitem.rows(), g.lineitem_rows) << "orders " << g.orders;
    EXPECT_EQ(tables_digest(t), g.digest) << "orders " << g.orders;
  }
}

// Every MetricsSnapshot field of the Runner's server after Q6, Q1 and Q3,
// pinned by digest (tests/snapshot_digest.hpp). The COUNT reductions run
// under the Runner's exact tenant, so its per-app entry is in the digest.
TEST(AnalyticsGolden, RunnerSnapshotDigestIsPinned) {
  RunnerConfig cfg = runner_config(apim::core::Backend::kFast);
  cfg.server.device.energy = apim::digest::kDigestEnergy;
  Runner runner(cfg);
  (void)run_queries(runner, apim::analytics::make_tables(config_for(1)));
  const apim::serve::MetricsSnapshot snap = runner.snapshot();
  EXPECT_EQ(snap.per_app.count("analytics#exact"), 1u);
  constexpr std::uint64_t kDigest = 6240104365041565961ull;
  EXPECT_EQ(apim::digest::of(snap), kDigest)
      << "digest=" << apim::digest::of(snap);
}

// Every Response field of the same run: the Runner's server keeps each
// staged request's response, and ids are dense from 0.
TEST(AnalyticsGolden, RunnerResponseDigestIsPinned) {
  RunnerConfig cfg = runner_config(apim::core::Backend::kFast);
  cfg.server.device.energy = apim::digest::kDigestEnergy;
  Runner runner(cfg);
  (void)run_queries(runner, apim::analytics::make_tables(config_for(1)));
  std::vector<apim::serve::Response> responses;
  for (std::uint64_t id = 0; id < runner.requests(); ++id)
    responses.push_back(runner.server().response(id));
  constexpr std::uint64_t kDigest = 16702705702982855401ull;
  EXPECT_EQ(apim::digest::of(responses), kDigest)
      << "digest=" << apim::digest::of(responses);
}

// -- Metamorphic: row-permutation invariance ---------------------------------

Table permute_rows(const Table& in, apim::util::Xoshiro256& rng) {
  std::vector<std::size_t> perm(in.rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  Table out;
  for (const auto& col : in.columns) {
    apim::analytics::Column c;
    c.name = col.name;
    c.width = col.width;
    c.values.reserve(col.values.size());
    for (const std::size_t src : perm) c.values.push_back(col.values[src]);
    out.columns.push_back(std::move(c));
  }
  return out;
}

void expect_rows_equal(const std::vector<AggRow>& a,
                       const std::vector<AggRow>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << what << " group " << i;
    EXPECT_EQ(a[i].count, b[i].count) << what << " group " << i;
    EXPECT_EQ(a[i].sum, b[i].sum) << what << " group " << i;
    EXPECT_EQ(a[i].min, b[i].min) << what << " group " << i;
    EXPECT_EQ(a[i].max, b[i].max) << what << " group " << i;
    EXPECT_EQ(a[i].avg_q, b[i].avg_q) << what << " group " << i;
    EXPECT_EQ(a[i].avg_r, b[i].avg_r) << what << " group " << i;
  }
}

TEST(AnalyticsGolden, RowPermutationInvariance) {
  const TpchTables base = apim::analytics::make_tables(config_for(1));
  Runner ref_runner = make_runner(apim::core::Backend::kBitsliced);
  const QueryResults ref = run_queries(ref_runner, base);

  apim::util::Xoshiro256 rng(0x5e1ec7);
  for (int round = 0; round < 3; ++round) {
    TpchTables shuffled;
    shuffled.orders = permute_rows(base.orders, rng);
    shuffled.lineitem = permute_rows(base.lineitem, rng);
    Runner runner = make_runner(apim::core::Backend::kBitsliced);
    const QueryResults got = run_queries(runner, shuffled);

    EXPECT_EQ(got.q6.matching_rows, ref.q6.matching_rows);
    EXPECT_EQ(got.q6.revenue, ref.q6.revenue);
    expect_rows_equal(got.q1, ref.q1, "q1");
    EXPECT_EQ(got.q3.qualifying_orders, ref.q3.qualifying_orders);
    EXPECT_EQ(got.q3.join_pairs, ref.q3.join_pairs);
    expect_rows_equal(got.q3.by_cust, ref.q3.by_cust, "q3.by_cust");
    EXPECT_EQ(got.q3.revenue_sorted, ref.q3.revenue_sorted);
  }
}

}  // namespace
