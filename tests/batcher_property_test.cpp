// Property test for the dynamic batcher: under seeded random
// offer/close_due interleavings, no request is ever lost or duplicated,
// the pending-request count stays conserved, sealed batches respect the
// op budget (oversized requests ship alone), members keep admission
// order, and every batch is shape-homogeneous.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/batcher.hpp"
#include "util/rng.hpp"

namespace {

using namespace apim;
using serve::BatchKey;
using serve::ClosedBatch;
using serve::DynamicBatcher;
using serve::OpKind;

struct Admitted {
  BatchKey key;
  std::size_t ops = 0;
};

/// Check invariants of one sealed batch against what was admitted.
void check_batch(const ClosedBatch& batch, std::size_t max_ops,
                 util::Cycles now,
                 const std::map<std::uint64_t, Admitted>& admitted,
                 std::set<std::uint64_t>& sealed_ids) {
  ASSERT_FALSE(batch.members.empty());
  EXPECT_LE(batch.closed_at, now);
  std::size_t ops_sum = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t id : batch.members) {
    EXPECT_TRUE(sealed_ids.insert(id).second) << "request " << id
                                              << " sealed twice";
    const auto it = admitted.find(id);
    ASSERT_NE(it, admitted.end()) << "request " << id << " never offered";
    EXPECT_EQ(it->second.key, batch.key) << "request " << id
                                         << " sealed under a foreign shape";
    ops_sum += it->second.ops;
    if (!first) EXPECT_LT(prev, id) << "admission order broken";
    prev = id;
    first = false;
  }
  EXPECT_EQ(batch.ops, ops_sum);
  // The lane budget binds every multi-request batch; a single oversized
  // request is allowed to ship alone.
  if (batch.members.size() > 1) EXPECT_LE(batch.ops, max_ops);
}

TEST(BatcherProperty, RandomInterleavingsConserveRequests) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Xoshiro256 rng(seed);
    const util::Cycles window = 100 + 100 * rng.next_below(8);
    const std::size_t max_ops = 4 + rng.next_below(29);
    DynamicBatcher batcher(window, max_ops);

    // A small shape pool so coalescing actually happens.
    const std::vector<BatchKey> shapes = {
        {OpKind::kMultiply, 8, 0, reliability::ReliabilityPolicy::kOff, "a"},
        {OpKind::kMultiply, 8, 2, reliability::ReliabilityPolicy::kOff, "a"},
        {OpKind::kMultiply, 8, 0, reliability::ReliabilityPolicy::kOff, "b"},
        {OpKind::kVectorAdd, 16, 0, reliability::ReliabilityPolicy::kOff,
         "b"},
    };

    std::map<std::uint64_t, Admitted> admitted;
    std::set<std::uint64_t> sealed_ids;
    std::uint64_t next_id = 0;
    util::Cycles now = 0;

    for (int step = 0; step < 400; ++step) {
      now += rng.next_below(window);
      if (rng.next_below(4) != 0) {
        const BatchKey& key = shapes[rng.next_below(shapes.size())];
        // Up to max_ops + 2 exercises the oversized ship-alone path.
        const std::size_t ops = 1 + rng.next_below(max_ops + 2);
        const std::uint64_t id = next_id++;
        admitted[id] = Admitted{key, ops};
        if (auto closed = batcher.add(id, key, ops, now))
          check_batch(*closed, max_ops, now, admitted, sealed_ids);
      } else {
        for (const ClosedBatch& b : batcher.close_due(now))
          check_batch(b, max_ops, now, admitted, sealed_ids);
      }
      EXPECT_EQ(batcher.pending_requests(),
                admitted.size() - sealed_ids.size())
          << "seed " << seed << " step " << step;
      // Open batches and a pending close time exist together or not at all.
      EXPECT_EQ(batcher.pending_requests() > 0,
                batcher.next_close().has_value())
          << "seed " << seed << " step " << step;
    }

    // Drain by advancing to each pending close time, as the engine does:
    // afterwards every offered request was sealed exactly once.
    while (const auto next = batcher.next_close()) {
      now = std::max(now, *next);
      for (const ClosedBatch& b : batcher.close_due(now))
        check_batch(b, max_ops, now, admitted, sealed_ids);
    }
    EXPECT_EQ(batcher.pending_requests(), 0u) << "seed " << seed;
    EXPECT_FALSE(batcher.next_close().has_value()) << "seed " << seed;
    EXPECT_EQ(sealed_ids.size(), admitted.size()) << "seed " << seed;
  }
}

TEST(BatcherProperty, ZeroWindowSealsEveryRequestAlone) {
  util::Xoshiro256 rng(9);
  DynamicBatcher batcher(0, 16);
  for (std::uint64_t id = 0; id < 50; ++id) {
    const BatchKey key{OpKind::kMultiply, 8, 0,
                       reliability::ReliabilityPolicy::kOff, "a"};
    auto closed = batcher.add(id, key, 1 + rng.next_below(16), id);
    ASSERT_TRUE(closed.has_value());
    EXPECT_EQ(closed->members, std::vector<std::uint64_t>{id});
    EXPECT_EQ(batcher.pending_requests(), 0u);
  }
}

}  // namespace
