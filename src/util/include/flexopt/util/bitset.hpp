#pragma once

/// \file bitset.hpp
/// Resizable fixed-width bitset over a dense index space.  The holistic
/// analysis uses one for its dirty tracking: membership tests and inserts
/// become single-word bit operations, and
/// clearing between evaluations is a memset over n/64 words instead of a
/// byte-per-element pass — with the backing storage reused across
/// evaluations (reset() only reallocates when the universe grows).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexopt {

class IndexBitset {
 public:
  /// Resize to a universe of `bits` indices and clear every bit.  Reuses
  /// the existing words when the capacity suffices (the steady-state,
  /// allocation-free path).
  void reset(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }
  /// Clear all bits, keeping the current size.
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset_bit(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace flexopt
