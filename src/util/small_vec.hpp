// SmallVec<T, N>: a fixed-length array that stores up to N elements
// inline and spills to the heap beyond that.
//
// The QA universal construction keeps one (uid, result) pair per process
// in every StateRec, and a proposer copies the frontier's StateRec to
// build each fresh state. At the process counts the explorer and most
// tests run (n <= N) that copy then allocates nothing for the arrays;
// larger n keeps working, with one heap buffer per array as std::vector
// would have.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace tbwf::util {

template <class T, std::size_t N>
class SmallVec {
 public:
  SmallVec() = default;

  /// Resize to `n` elements, every one equal to `value`.
  void assign(std::size_t n, const T& value) {
    size_ = n;
    if (n <= N) {
      heap_ = {};
      std::fill_n(inline_.begin(), n, value);
    } else {
      heap_.assign(n, value);
    }
  }

  std::size_t size() const { return size_; }

  T* data() { return size_ <= N ? inline_.data() : heap_.data(); }
  const T* data() const { return size_ <= N ? inline_.data() : heap_.data(); }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  /// Element-wise equality; where the elements live does not matter.
  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::size_t size_ = 0;
  std::array<T, N> inline_{};
  std::vector<T> heap_;  ///< holds the elements iff size_ > N
};

}  // namespace tbwf::util
