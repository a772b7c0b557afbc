// Tests of util::InlineVec, the vector behind serve::Request::operands,
// serve::Response::values and serve::BatchExecution::values: elements kept
// in place up to its inline capacity and in one heap block past it, every
// copy and move between the two, growth, equality, spans and the 32-bit
// size limit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/inline_vec.hpp"

namespace apim::util {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;
using Words = InlineVec<std::uint64_t>;
using Pairs = InlineVec<Pair>;
using WordList = std::vector<std::uint64_t>;

/// True when the elements sit inside the object, not in a heap block.
template <class T>
bool is_inline(const InlineVec<T>& v) {
  const auto at = reinterpret_cast<std::uintptr_t>(v.data());
  const auto self = reinterpret_cast<std::uintptr_t>(&v);
  return at >= self && at < self + sizeof(v);
}

/// first, first + 1, ..., n words.
WordList sequence(std::uint64_t first, std::size_t n) {
  WordList out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(first + i);
  return out;
}

/// An InlineVec holding sequence(first, n), grown by push_back.
Words words(std::uint64_t first, std::size_t n) {
  Words out;
  for (const std::uint64_t w : sequence(first, n)) out.push_back(w);
  return out;
}

TEST(InlineVec, LayoutMatchesStdVector) {
  static_assert(sizeof(Words) == sizeof(std::vector<std::uint64_t>));
  static_assert(sizeof(Pairs) == sizeof(std::vector<Pair>));
  static_assert(Words::kInlineCapacity == 2);
  static_assert(Pairs::kInlineCapacity == 1);
  const Words empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(is_inline(empty));
}

TEST(InlineVec, PushBackGrowsPastTheInlineCapacity) {
  Words w;
  w.push_back(10);
  w.push_back(11);
  EXPECT_TRUE(is_inline(w));
  for (std::uint64_t x = 12; x < 19; ++x) w.push_back(x);
  EXPECT_FALSE(is_inline(w));
  EXPECT_EQ(w, sequence(10, 9));

  // An element of its own, pushed as the vector leaves its inline storage.
  Words self = {1, 2};
  self.push_back(self[0]);
  EXPECT_EQ(self, (WordList{1, 2, 1}));

  Pairs p;
  p.push_back({1, 2});
  EXPECT_TRUE(is_inline(p));
  p.push_back({3, 4});
  EXPECT_FALSE(is_inline(p));
  EXPECT_EQ(p, (std::vector<Pair>{{1, 2}, {3, 4}}));
}

TEST(InlineVec, ResizeGrowsAndValueInitializes) {
  Words w = {7};
  w.resize(2);
  EXPECT_TRUE(is_inline(w));
  EXPECT_EQ(w, (WordList{7, 0}));
  w.resize(5);
  EXPECT_FALSE(is_inline(w));
  EXPECT_EQ(w, (WordList{7, 0, 0, 0, 0}));
  w.resize(1);
  EXPECT_EQ(w, (WordList{7}));

  Pairs p;
  p.resize(1);
  EXPECT_TRUE(is_inline(p));
  EXPECT_EQ(p[0], (Pair{0, 0}));
  p[0] = {3, 4};
  p.resize(3);
  EXPECT_FALSE(is_inline(p));
  EXPECT_EQ(p, (std::vector<Pair>{{3, 4}, {0, 0}, {0, 0}}));
}

TEST(InlineVec, AssignGrowsAndReplaces) {
  const WordList five = sequence(1, 5);
  Words w = {9};
  w.assign(five.begin(), five.end());
  EXPECT_FALSE(is_inline(w));
  EXPECT_EQ(w, five);
  w.assign(five.begin() + 3, five.end());
  EXPECT_EQ(w, (WordList{4, 5}));

  // From a span's iterators, as analytics::Runner fills its requests.
  const std::vector<Pair> ops = {{1, 2}, {3, 4}, {5, 6}};
  const std::span<const Pair> view(ops);
  Pairs p;
  p.assign(view.begin() + 1, view.begin() + 2);
  EXPECT_TRUE(is_inline(p));
  EXPECT_EQ(p, (std::vector<Pair>{{3, 4}}));
  p.assign(view.begin(), view.end());
  EXPECT_FALSE(is_inline(p));
  EXPECT_EQ(p, ops);
}

// The load generator's fill: element i comes from the i-th call, each call
// made once, in place and then on the heap; a shorter fill keeps the block.
TEST(InlineVec, AssignGeneratedConstructsEachElementInOrder) {
  std::uint64_t calls = 0;
  const auto next_pair = [&calls] {
    ++calls;
    return Pair{2 * calls, 2 * calls + 1};
  };
  Pairs p = {{7, 7}};
  p.assign_generated(1, next_pair);
  EXPECT_TRUE(is_inline(p));
  EXPECT_EQ(p, (std::vector<Pair>{{2, 3}}));

  calls = 0;
  p.assign_generated(32, next_pair);
  EXPECT_FALSE(is_inline(p));
  ASSERT_EQ(p.size(), 32u);
  EXPECT_EQ(calls, 32u);
  for (std::uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(p[i], (Pair{2 * i + 2, 2 * i + 3})) << "element " << i;

  const Pair* block = p.data();
  calls = 0;
  p.assign_generated(3, next_pair);
  EXPECT_EQ(p.data(), block);
  EXPECT_EQ(p, (std::vector<Pair>{{2, 3}, {4, 5}, {6, 7}}));
  p.assign_generated(0, next_pair);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(calls, 3u);
}

TEST(InlineVec, ReserveKeepsTheElements) {
  Words w = {4, 5};
  w.reserve(16);
  EXPECT_FALSE(is_inline(w));
  EXPECT_EQ(w, (WordList{4, 5}));
  const std::uint64_t* block = w.data();
  w.reserve(8);
  EXPECT_EQ(w.data(), block);
  for (std::uint64_t x = 6; x < 20; ++x) w.push_back(x);
  EXPECT_EQ(w.data(), block) << "grew inside its reserved capacity";
  EXPECT_EQ(w, sequence(4, 16));

  Words more = words(1, 3);
  more.reserve(40);
  EXPECT_EQ(more, sequence(1, 3));
}

TEST(InlineVec, ClearKeepsTheStorageAndRegrows) {
  Words w = words(0, 6);
  const std::uint64_t* block = w.data();
  w.clear();
  EXPECT_TRUE(w.empty());
  w.push_back(42);
  EXPECT_EQ(w.data(), block);
  EXPECT_EQ(w, (WordList{42}));
  for (std::uint64_t x = 43; x < 60; ++x) w.push_back(x);
  EXPECT_EQ(w, sequence(42, 18));

  Words small = {1, 2};
  small.clear();
  EXPECT_TRUE(small.empty());
  small.push_back(3);
  EXPECT_TRUE(is_inline(small));
  EXPECT_EQ(small, (WordList{3}));
}

TEST(InlineVec, CopyConstructionBetweenInlineAndHeap) {
  const Words inline_source = {1, 2};
  const Words a(inline_source);
  EXPECT_TRUE(is_inline(a));
  EXPECT_EQ(a, (WordList{1, 2}));
  EXPECT_EQ(inline_source, (WordList{1, 2}));

  const Words heap_source = words(1, 5);
  const Words b(heap_source);
  EXPECT_FALSE(is_inline(b));
  EXPECT_NE(b.data(), heap_source.data());
  EXPECT_EQ(b, sequence(1, 5));
  EXPECT_EQ(heap_source, sequence(1, 5));

  // A heap source whose elements fit inline copies into an inline vector.
  Words shrunk = words(1, 5);
  shrunk.resize(2);
  const Words c(shrunk);
  EXPECT_TRUE(is_inline(c));
  EXPECT_EQ(c, (WordList{1, 2}));

  const Pairs pair_source = {{5, 6}};
  const Pairs d(pair_source);
  EXPECT_TRUE(is_inline(d));
  EXPECT_EQ(d, pair_source);
}

TEST(InlineVec, CopyAssignmentBetweenInlineAndHeap) {
  const Words big = words(1, 6);
  const Words small = {8, 9};

  Words inline_target = {1};
  inline_target = big;
  EXPECT_FALSE(is_inline(inline_target));
  EXPECT_EQ(inline_target, sequence(1, 6));
  EXPECT_EQ(big, sequence(1, 6));

  // The target keeps its block but takes the source's size.
  Words heap_target = words(20, 6);
  heap_target = small;
  EXPECT_EQ(heap_target.size(), 2u);
  EXPECT_EQ(heap_target, (WordList{8, 9}));

  Words inline_to_inline = {5};
  inline_to_inline = small;
  EXPECT_EQ(inline_to_inline, (WordList{8, 9}));

  Words heap_to_larger = words(1, 3);
  const Words twelve = words(30, 12);
  heap_to_larger = twelve;
  EXPECT_EQ(heap_to_larger, sequence(30, 12));
  heap_to_larger = big;
  EXPECT_EQ(heap_to_larger, sequence(1, 6));

  Words self_inline = {3, 4};
  const Words& self_inline_ref = self_inline;
  self_inline = self_inline_ref;
  EXPECT_EQ(self_inline, (WordList{3, 4}));
  Words self_heap = words(1, 7);
  const Words& self_heap_ref = self_heap;
  self_heap = self_heap_ref;
  EXPECT_EQ(self_heap, sequence(1, 7));
}

TEST(InlineVec, MoveConstructionLeavesTheSourceEmpty) {
  Words inline_source = {1, 2};
  const Words a(std::move(inline_source));
  EXPECT_TRUE(is_inline(a));
  EXPECT_EQ(a, (WordList{1, 2}));
  EXPECT_TRUE(inline_source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(is_inline(inline_source));

  Words heap_source = words(1, 5);
  const std::uint64_t* block = heap_source.data();
  const Words b(std::move(heap_source));
  EXPECT_EQ(b.data(), block) << "a move takes the block";
  EXPECT_EQ(b, sequence(1, 5));
  EXPECT_TRUE(heap_source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(is_inline(heap_source));
  heap_source.push_back(3);
  EXPECT_EQ(heap_source, (WordList{3}));

  Pairs pair_source = {{1, 2}};
  const Pairs c(std::move(pair_source));
  EXPECT_EQ(c, (std::vector<Pair>{{1, 2}}));
  EXPECT_TRUE(pair_source.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(InlineVec, MoveAssignmentBetweenInlineAndHeap) {
  Words inline_target = {1};
  Words big = words(1, 6);
  const std::uint64_t* block = big.data();
  inline_target = std::move(big);
  EXPECT_EQ(inline_target.data(), block);
  EXPECT_EQ(inline_target, sequence(1, 6));
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(is_inline(big));

  // The target frees its block and takes the elements in place.
  Words heap_target = words(1, 6);
  Words small = {8, 9};
  heap_target = std::move(small);
  EXPECT_TRUE(is_inline(heap_target));
  EXPECT_EQ(heap_target, (WordList{8, 9}));
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)

  // What Server::release_finished does to a finished request's operands.
  Words released = words(1, 6);
  released = Words();
  EXPECT_TRUE(released.empty());
  EXPECT_TRUE(is_inline(released));

  Words heap_to_heap = words(1, 3);
  Words ten = words(50, 10);
  block = ten.data();
  heap_to_heap = std::move(ten);
  EXPECT_EQ(heap_to_heap.data(), block);
  EXPECT_EQ(heap_to_heap, sequence(50, 10));
  EXPECT_TRUE(ten.empty());  // NOLINT(bugprone-use-after-move)

  Words inline_to_inline = {1};
  Words two = {2, 3};
  inline_to_inline = std::move(two);
  EXPECT_EQ(inline_to_inline, (WordList{2, 3}));
  EXPECT_TRUE(two.empty());  // NOLINT(bugprone-use-after-move)

  Words self_heap = words(1, 5);
  Words& self_heap_ref = self_heap;
  self_heap = std::move(self_heap_ref);
  EXPECT_EQ(self_heap, sequence(1, 5));
  Words self_inline = {1, 2};
  Words& self_inline_ref = self_inline;
  self_inline = std::move(self_inline_ref);
  EXPECT_EQ(self_inline, (WordList{1, 2}));
}

TEST(InlineVec, EqualityComparesElements) {
  const Words a = {1, 2, 3};
  EXPECT_TRUE(a == words(1, 3));
  EXPECT_FALSE(a != words(1, 3));
  EXPECT_TRUE(a == (WordList{1, 2, 3}));
  EXPECT_FALSE(a == (WordList{1, 2}));
  EXPECT_TRUE(a != (Words{1, 2, 4}));
  EXPECT_TRUE(Words() == WordList());

  // Inline and heap storage compare by their elements alone.
  Words heap = words(1, 5);
  heap.resize(2);
  EXPECT_TRUE(heap == (Words{1, 2}));

  EXPECT_TRUE((Pairs{{1, 2}}) == (Pairs{{1, 2}}));
  EXPECT_FALSE((Pairs{{1, 2}}) == (Pairs{{2, 1}}));
}

TEST(InlineVec, SpansViewTheElements) {
  Words w = {1, 2};
  const std::span<const std::uint64_t> inline_view(w);
  EXPECT_EQ(inline_view.data(), w.data());
  EXPECT_EQ(inline_view.size(), 2u);
  w.push_back(3);
  const std::span<const std::uint64_t> heap_view(w);
  EXPECT_EQ(heap_view.data(), w.data());
  EXPECT_EQ(heap_view[2], 3u);

  // As serve::Server builds the members of a dispatch.
  const Pairs one = {{4, 5}};
  std::vector<std::span<const Pair>> members;
  members.emplace_back(one);
  EXPECT_EQ(members[0].size(), 1u);
  EXPECT_EQ(members[0][0], (Pair{4, 5}));
}

TEST(InlineVec, InitializerListConstructionAndAssignment) {
  Words w = {1, 2, 3};
  EXPECT_FALSE(is_inline(w));
  EXPECT_EQ(w, sequence(1, 3));
  w = {4};
  EXPECT_EQ(w, (WordList{4}));
  w = {};
  EXPECT_TRUE(w.empty());

  Pairs p = {{1, 2}, {3, 4}};
  EXPECT_EQ(p.size(), 2u);
  p = {{5, 6}};
  EXPECT_EQ(p, (std::vector<Pair>{{5, 6}}));
}

TEST(InlineVec, SizesPast32BitsThrowLengthError) {
  constexpr std::size_t kTooMany = std::size_t{1} << 32;
  Words w = {1, 2};
  EXPECT_THROW(w.reserve(kTooMany), std::length_error);
  EXPECT_THROW(w.resize(kTooMany), std::length_error);
  EXPECT_TRUE(is_inline(w));
  EXPECT_EQ(w, (WordList{1, 2}));

  Pairs p;
  EXPECT_THROW(p.resize(kTooMany), std::length_error);
  EXPECT_TRUE(p.empty());
}

}  // namespace
}  // namespace apim::util
