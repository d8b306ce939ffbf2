// Elias–Fano encoding of a monotone sequence, the compact-index backbone of
// the KV store (store/kv_store.hpp).
//
// A sorted log's fence keys are a non-decreasing sequence of n values; the
// store quantizes them to a universe of 2^c (c ≈ log2(n) + headroom bits)
// and encodes the quantized sequence here.  Elias–Fano splits each value
// into l = c - ceil(log2 n) low bits, stored verbatim, and a high part
// encoded in a unary bit vector of n ones spread over at most n + 2^(c-l)
// positions — in total n*(2 + l) + O(1) bits, the textbook 2 + log2(U/n)
// bits per value.  That is how a PaCHash-style page index reaches
// O(small-constant) bits per page where explicit fence keys pay 64.
//
// Queries are host-side computation (free in the AEM cost model; see
// docs/MODEL.md section 14), so select is a plain popcount scan and
// predecessor a binary search over access() — O(n/w) word operations per
// access, ample for the page counts the simulator sweeps.  All structure
// words are expected to be charged to the MemoryLedger by the owner
// (words() is the allocation to charge).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/math.hpp"

namespace aem::store {

class EliasFano {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  EliasFano() = default;

  /// Encodes `values` (non-decreasing, each < 2^universe_bits).  Throws
  /// std::invalid_argument on a decreasing pair, an out-of-universe value,
  /// or universe_bits outside [1, 64].
  EliasFano(const std::vector<std::uint64_t>& values, unsigned universe_bits) {
    if (universe_bits < 1 || universe_bits > 64)
      throw std::invalid_argument("EliasFano: universe_bits must be in [1,64]");
    n_ = values.size();
    universe_bits_ = universe_bits;
    if (n_ == 0) return;
    const unsigned hb = util::ilog2_ceil(n_);
    l_ = universe_bits > hb ? universe_bits - hb : 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (i > 0 && values[i] < values[i - 1])
        throw std::invalid_argument("EliasFano: sequence not monotone");
      if (universe_bits < 64 && values[i] >> universe_bits != 0)
        throw std::invalid_argument("EliasFano: value outside the universe");
    }
    upper_bit_count_ = (values[n_ - 1] >> l_) + n_;
    upper_.assign(util::ceil_div(upper_bit_count_, 64), 0);
    lower_.assign(util::ceil_div(n_ * static_cast<std::uint64_t>(l_), 64), 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t high = values[i] >> l_;
      set_bit(high + i);
      if (l_ > 0) set_low(i, values[i] & low_mask());
    }
  }

  std::size_t size() const { return n_; }

  /// The i-th encoded value (i < size()).
  std::uint64_t access(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("EliasFano::access");
    const std::uint64_t high = select1(i) - i;
    return (high << l_) | (l_ > 0 ? get_low(i) : 0);
  }

  /// Largest i with access(i) <= v, or npos when access(0) > v.
  std::size_t predecessor(std::uint64_t v) const {
    if (n_ == 0 || access(0) > v) return npos;
    std::size_t lo = 0, hi = n_ - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      if (access(mid) <= v) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  /// Logical structure size in bits: the unary upper vector plus the packed
  /// low halves.  This is the number the bits-per-page guard measures.
  std::uint64_t bits() const {
    return upper_bit_count_ + n_ * static_cast<std::uint64_t>(l_);
  }

  /// 64-bit words actually allocated — what the owner's MemoryReservation
  /// must charge to the ledger.
  std::size_t words() const { return upper_.size() + lower_.size(); }

 private:
  std::uint64_t low_mask() const {
    return l_ >= 64 ? ~0ull : (1ull << l_) - 1;
  }

  void set_bit(std::uint64_t p) { upper_[p / 64] |= 1ull << (p % 64); }

  void set_low(std::size_t i, std::uint64_t v) {
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * l_;
    const std::size_t w = static_cast<std::size_t>(bit / 64);
    const unsigned off = static_cast<unsigned>(bit % 64);
    lower_[w] |= v << off;
    if (off + l_ > 64) lower_[w + 1] |= v >> (64 - off);
  }

  std::uint64_t get_low(std::size_t i) const {
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * l_;
    const std::size_t w = static_cast<std::size_t>(bit / 64);
    const unsigned off = static_cast<unsigned>(bit % 64);
    std::uint64_t v = lower_[w] >> off;
    if (off + l_ > 64) v |= lower_[w + 1] << (64 - off);
    return v & low_mask();
  }

  /// Bit position of the i-th (0-based) set bit of the upper vector.
  std::uint64_t select1(std::size_t i) const {
    std::size_t remaining = i;
    for (std::size_t w = 0; w < upper_.size(); ++w) {
      const unsigned pop = static_cast<unsigned>(std::popcount(upper_[w]));
      if (remaining >= pop) {
        remaining -= pop;
        continue;
      }
      std::uint64_t word = upper_[w];
      for (std::size_t skip = remaining; skip > 0; --skip) word &= word - 1;
      return static_cast<std::uint64_t>(w) * 64 +
             static_cast<unsigned>(std::countr_zero(word));
    }
    throw std::logic_error("EliasFano::select1: rank out of range");
  }

  std::size_t n_ = 0;
  unsigned universe_bits_ = 0;
  unsigned l_ = 0;
  std::uint64_t upper_bit_count_ = 0;
  std::vector<std::uint64_t> upper_;  // unary high parts: bit (v_i >> l) + i
  std::vector<std::uint64_t> lower_;  // packed l-bit low parts
};

}  // namespace aem::store
