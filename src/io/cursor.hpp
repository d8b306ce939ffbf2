// Random-access block reading with single-block caching.
//
// BlockCursor keeps the most recently read block resident (B elements of
// internal memory) and only charges a read when the requested block differs
// from the cached one.  This is exactly the access pattern of the naive
// permutation program: consecutive gathers from the same source block cost
// one I/O, not one per element.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>

#include "core/ext_array.hpp"

namespace aem {

template <class T>
class BlockCursor {
 public:
  explicit BlockCursor(const ExtArray<T>& arr)
      : arr_(&arr), buf_(arr.machine(), arr.machine().B()) {}

  /// Loads (if necessary) the block containing element index `elem` and
  /// returns a view of the block's elements.
  std::span<const T> load_block_of(std::size_t elem) {
    const std::size_t B = arr_->machine().B();
    return load(elem / B);
  }

  /// Loads (if necessary) block `bi` and returns a view of its elements.
  std::span<const T> load(std::uint64_t bi) {
    if (!valid_ || bi != cached_block_) {
      BlockIo io = arr_->read_block(bi, buf_.span());
      count_ = io.count;
      ticket_ = io.ticket;
      cached_block_ = bi;
      valid_ = true;
    }
    return std::span<const T>(buf_.data(), count_);
  }

  /// The element at global index `elem` (loads its block if needed).
  const T& at(std::size_t elem) {
    const std::size_t B = arr_->machine().B();
    auto view = load_block_of(elem);
    assert(elem % B < view.size());
    return view[elem % B];
  }

  /// Invalidate the cache, forcing the next access to re-read.  Used when
  /// the underlying array may have been written through another path.
  void invalidate() { valid_ = false; }

  /// Ticket of the most recent charged read.
  IoTicket last_ticket() const { return ticket_; }

 private:
  const ExtArray<T>* arr_;
  Buffer<T> buf_;
  std::size_t count_ = 0;
  std::uint64_t cached_block_ = 0;
  bool valid_ = false;
  IoTicket ticket_;
};

}  // namespace aem
