// A contiguous vector that keeps a small payload inside itself: the
// operand pairs of a serve::Request and the result words of a
// serve::Response and of each member of a serve::BatchExecution.
//
// It is as large as a std::vector (24 bytes), and 16 of those bytes hold
// elements in place: up to 16 / sizeof(T) of them, one operand pair or two
// result words, so a one-op request and its response need no heap block.
// Past that it keeps its elements in one heap block, as std::vector does.
// The inline capacity follows from sizeof(T) alone; there is no knob.
//
// Elements are copied by construction and never destroyed, so T must be
// trivially copy-constructible and trivially destructible (std::pair of
// integers is both, though not trivially copyable). Sizes are 32-bit: a
// size above 2^32 - 1 throws std::length_error. A moved-from InlineVec is
// empty, and a move into one frees the block it held.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace apim::util {

template <class T>
class InlineVec {
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVec copies its elements by construction and never "
                "destroys them");

 public:
  using const_iterator = const T*;  // gtest prints the elements on failure.

  /// Elements held in place before the first heap block.
  static constexpr std::size_t kInlineCapacity = 16 / sizeof(T);

  // User-provided, so a const InlineVec, or a const Request, can be
  // default-initialized as with std::vector.
  InlineVec() noexcept {}
  InlineVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  InlineVec(const InlineVec& other) { assign(other.begin(), other.end()); }
  InlineVec(InlineVec&& other) noexcept { take(other); }
  ~InlineVec() { release(); }

  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  InlineVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept {
    return on_heap() ? heap_ : reinterpret_cast<T*>(inline_);
  }
  [[nodiscard]] const T* data() const noexcept {
    return on_heap() ? heap_ : reinterpret_cast<const T*>(inline_);
  }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow_to(n, size_);
  }

  /// New elements are value-initialized, as std::vector's are.
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::uninitialized_value_construct(end(), data() + n);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Replaces the elements with `n` new ones, the i-th constructed from
  /// the i-th call of `make()`, in order: each is written once, with no
  /// value-initialization before it (a generator filling a large block
  /// would otherwise write it twice).
  template <class Make>
  void assign_generated(std::size_t n, Make make) {
    size_ = 0;  // Trivially destructible: nothing to destroy.
    if (n > capacity_) grow_to(n, 0);
    T* out = data();
    for (std::size_t i = 0; i < n; ++i) std::construct_at(out + i, make());
    size_ = static_cast<std::uint32_t>(n);
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > capacity_) grow_to(n, 0);
    std::uninitialized_copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may be an element that growing moves.
    if (size_ == capacity_) {
      grow_to(std::max(size() + 1, std::min(2 * size(), kMaxSize)), size_);
    }
    std::construct_at(end(), copy);
    ++size_;
  }

  /// Keeps the storage, as std::vector does; a move-assignment from an
  /// empty InlineVec frees it.
  void clear() noexcept { size_ = 0; }

  /// Element-wise; compares with any contiguous range of T, a std::vector
  /// or another InlineVec.
  friend bool operator==(const InlineVec& a, std::span<const T> b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr std::size_t kMaxSize =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool on_heap() const noexcept {
    return capacity_ > kInlineCapacity;
  }

  /// Moves the elements to a new heap block of `capacity` elements,
  /// keeping the first `keep` of them.
  void grow_to(std::size_t capacity, std::size_t keep) {
    if (capacity > kMaxSize)
      throw std::length_error("InlineVec: more than 2^32 - 1 elements");
    T* block = std::allocator<T>().allocate(capacity);
    std::uninitialized_copy_n(data(), keep, block);
    release();
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(capacity);
    size_ = static_cast<std::uint32_t>(keep);
  }

  /// Frees the heap block, if any, leaving this empty and inline.
  void release() noexcept {
    if (on_heap()) std::allocator<T>().deallocate(heap_, capacity_);
    size_ = 0;
    capacity_ = kInlineCapacity;
  }

  /// Takes `other`'s elements into this empty, inline InlineVec: its heap
  /// block, or a copy of its inline elements. Leaves `other` empty.
  void take(InlineVec& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::uninitialized_copy_n(other.data(), other.size_,
                                reinterpret_cast<T*>(inline_));
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  union {
    T* heap_ = nullptr;
    alignas(T) std::byte inline_[16];
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
};

}  // namespace apim::util
