#include "core/cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace aem {

const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kClock: return "clock";
    case CachePolicy::kCleanFirst: return "clean-first";
  }
  return "?";
}

void CacheConfig::validate() const {
  if (clean_window > capacity_blocks)
    throw std::invalid_argument(
        "CacheConfig: clean_window exceeds capacity_blocks");
}

BlockCache::BlockCache(CacheConfig cfg, std::uint64_t omega) : cfg_(cfg) {
  cfg_.validate();
  if (cfg_.capacity_blocks == 0)
    throw std::invalid_argument(
        "BlockCache: capacity 0 is bypass mode — install no cache instead");
  if (cfg_.capacity_blocks >= kNil)
    throw std::invalid_argument("BlockCache: capacity too large");
  frames_.resize(cfg_.capacity_blocks);
  // Free slots popped back-to-front, so frame 0 is used first (stable,
  // deterministic layout for tests and the CLOCK hand).
  free_.resize(cfg_.capacity_blocks);
  for (std::size_t i = 0; i < free_.size(); ++i)
    free_[i] = static_cast<std::uint32_t>(free_.size() - 1 - i);
  if (cfg_.policy == CachePolicy::kCleanFirst) {
    if (cfg_.clean_window != 0) {
      window_ = cfg_.clean_window;
    } else if (omega > 1) {
      const std::size_t cap = cfg_.capacity_blocks;
      window_ = cap - std::max<std::size_t>(
                          1, cap / static_cast<std::size_t>(
                                 std::min<std::uint64_t>(omega, cap)));
    }
    // omega == 1: window stays 0 and the policy is exact LRU.
  }
}

template <BlockCache::Links BlockCache::Frame::*L>
void BlockCache::link_front(List& list, std::uint32_t frame) {
  Links& l = frames_[frame].*L;
  l.prev = kNil;
  l.next = list.head;
  if (list.head != kNil) (frames_[list.head].*L).prev = frame;
  list.head = frame;
  if (list.tail == kNil) list.tail = frame;
}

template <BlockCache::Links BlockCache::Frame::*L>
void BlockCache::link_remove(List& list, std::uint32_t frame) {
  Links& l = frames_[frame].*L;
  if (l.prev != kNil) {
    (frames_[l.prev].*L).next = l.next;
  } else {
    list.head = l.next;
  }
  if (l.next != kNil) {
    (frames_[l.next].*L).prev = l.prev;
  } else {
    list.tail = l.prev;
  }
  l.prev = l.next = kNil;
}

// `inline` (both are used only in this file) keeps touch(), the hit path,
// free of calls.
inline void BlockCache::list_push_front(std::uint32_t frame) {
  Frame& f = frames_[frame];
  link_front<&Frame::lru>(lru_, frame);
  // Without a window (kLru, omega = 1) the victim is always the LRU
  // frame, so the clean list and the window go unkept.
  if (window_ == 0) return;
  if (!f.dirty) link_front<&Frame::clean>(clean_, frame);
  // While the window still covers the whole list, a new head joins it.
  if (win_size_ < window_) {
    f.in_win = true;
    bnd_ = frame;
    ++win_size_;
    if (!f.dirty) ++clean_in_win_;
  }
}

inline void BlockCache::list_unlink(std::uint32_t frame) {
  Frame& f = frames_[frame];
  if (f.in_win) {
    // Leaving the window: the frame just hotter than the boundary takes
    // the freed place.  With none (the window is the whole list), the
    // window shrinks, and loses its boundary if that was this frame.
    f.in_win = false;
    if (!f.dirty) --clean_in_win_;
    const std::uint32_t in = frames_[bnd_].lru.prev;
    if (in != kNil) {
      frames_[in].in_win = true;
      if (!frames_[in].dirty) ++clean_in_win_;
      bnd_ = in;
    } else {
      --win_size_;
      if (bnd_ == frame) bnd_ = f.lru.next;
    }
  }
  if (window_ != 0 && !f.dirty) link_remove<&Frame::clean>(clean_, frame);
  link_remove<&Frame::lru>(lru_, frame);
}

void BlockCache::mark_dirty(std::uint32_t frame) {
  Frame& f = frames_[frame];
  if (window_ != 0) link_remove<&Frame::clean>(clean_, frame);
  if (f.in_win) --clean_in_win_;
  f.dirty = true;
  ++resident_dirty_;
}

void BlockCache::rebuild_clean_list() {
  if (window_ == 0) return;
  clean_ = List{};
  clean_in_win_ = 0;
  for (std::uint32_t v = lru_.tail; v != kNil; v = frames_[v].lru.prev) {
    if (frames_[v].dirty) continue;
    link_front<&Frame::clean>(clean_, v);
    if (frames_[v].in_win) ++clean_in_win_;
  }
}

void BlockCache::touch(std::uint32_t frame) {
  switch (cfg_.policy) {
    case CachePolicy::kClock:
      frames_[frame].ref = true;
      break;
    case CachePolicy::kLru:
    case CachePolicy::kCleanFirst:
      if (lru_.head != frame) {
        list_unlink(frame);
        list_push_front(frame);
      }
      break;
  }
}

std::uint32_t BlockCache::pick_victim() {
  switch (cfg_.policy) {
    case CachePolicy::kClock: {
      // Second chance: sweep the frame table circularly, clearing
      // reference bits; the first unreferenced valid frame is the victim.
      // Terminates: one full sweep clears every bit.
      for (;;) {
        Frame& f = frames_[clock_hand_];
        const std::size_t here = clock_hand_;
        clock_hand_ = (clock_hand_ + 1) % frames_.size();
        if (!f.valid) continue;
        if (f.ref) {
          f.ref = false;
          continue;
        }
        return static_cast<std::uint32_t>(here);
      }
    }
    case CachePolicy::kCleanFirst:
    case CachePolicy::kLru:
      // The coldest clean frame, if the window of coldest frames holds a
      // clean one: a clean eviction costs at most one future read, a dirty
      // one a certain omega-priced write-back.  Otherwise (and always for
      // kLru and the omega = 1 degeneration, whose window is empty) the
      // LRU frame.  The coldest clean frame is in the window exactly when
      // any clean frame is, since the window is a cold suffix of the list.
      return clean_in_win_ > 0 ? clean_.tail : lru_.tail;
  }
  return lru_.tail;
}

void BlockCache::evict_one() {
  const std::uint32_t v = pick_victim();
  Frame& f = frames_[v];
  if (f.dirty) {
    if (sinks_[f.array] == nullptr)
      throw std::logic_error(
          "BlockCache::evict_one: dirty block " + std::to_string(f.block) +
          " of array " + std::to_string(f.array) +
          " has no write-back sink (array destroyed or never registered)");
    // May throw (BudgetExceeded, FaultError): nothing has been mutated
    // yet, so the victim simply stays resident and dirty.
    const std::uint64_t block = f.block;
    std::size_t done = 0;
    sinks_[f.array]->write_back(std::span<const std::uint64_t>(&block, 1),
                                done);
    ++stats_.write_backs;
    ++stats_.evictions_dirty;
    --resident_dirty_;
  } else {
    ++stats_.evictions_clean;
  }
  index_[f.array].erase(f.block);
  list_unlink(v);
  f.valid = false;
  f.dirty = false;
  f.ref = false;
  --resident_;
  free_.push_back(v);
}

void BlockCache::insert(std::uint32_t array, std::uint64_t block, bool dirty,
                        Sink* sink) {
  if (array >= index_.size()) {
    index_.resize(array + 1);
    sinks_.resize(array + 1, nullptr);
  }
  sinks_[array] = sink;
  if (free_.empty()) evict_one();
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Frame& f = frames_[slot];
  f.array = array;
  f.block = block;
  f.valid = true;
  f.dirty = dirty;
  f.ref = true;
  list_push_front(slot);
  index_[array].emplace(block, Entry{slot});
  ++resident_;
  if (dirty) ++resident_dirty_;
}

std::size_t BlockCache::flush() {
  ++stats_.flushes;
  // Deterministic order regardless of hash-map iteration: collect and sort.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dirty_blocks;
  dirty_blocks.reserve(resident_dirty_);
  for (const Frame& f : frames_)
    if (f.valid && f.dirty) dirty_blocks.emplace_back(f.array, f.block);
  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  std::size_t written = 0;
  // Frames are cleaned in place, without a touch; the clean list is
  // re-derived once on the way out, normal or exceptional (flush is rare).
  struct Rebuild {
    BlockCache* cache;
    ~Rebuild() { cache->rebuild_clean_list(); }
  } rebuild{this};
  auto mark_clean = [&](std::uint32_t array, std::uint64_t block) {
    Frame& f = frames_[lookup(array, block)->frame];
    f.dirty = false;
    --resident_dirty_;
    ++stats_.write_backs;
    ++written;
  };
  // Group the sorted dirty list into per-array runs and hand each run to
  // its sink.  `done` counts the blocks the sink completed, so an exception
  // mid-run marks exactly the written-back prefix clean and leaves the
  // failing block (and everything after it) dirty.
  std::vector<std::uint64_t> run;
  std::size_t i = 0;
  while (i < dirty_blocks.size()) {
    const std::uint32_t array = dirty_blocks[i].first;
    if (sinks_[array] == nullptr)
      throw std::logic_error(
          "BlockCache::flush: dirty block " +
          std::to_string(dirty_blocks[i].second) + " of array " +
          std::to_string(array) +
          " has no write-back sink (array destroyed or never registered)");
    run.clear();
    std::size_t j = i;
    while (j < dirty_blocks.size() && dirty_blocks[j].first == array)
      run.push_back(dirty_blocks[j++].second);
    std::size_t done = 0;
    try {
      sinks_[array]->write_back(run, done);
    } catch (...) {
      for (std::size_t k = 0; k < done; ++k) mark_clean(array, run[k]);
      throw;
    }
    for (std::uint64_t block : run) mark_clean(array, block);
    i = j;
  }
  return written;
}

void BlockCache::invalidate_array(std::uint32_t array) {
  // The array's storage — and with it the Sink its BlockStore implements —
  // is going away.  Forget the sink FIRST, even when no blocks are resident:
  // leaving the pointer in sinks_ would dangle into the destroyed store,
  // an armed use-after-free for any later evict_one()/flush() that touches
  // this slot.
  if (array < sinks_.size()) sinks_[array] = nullptr;
  if (array >= index_.size() || index_[array].empty()) return;
  // Deterministic frame-order sweep (the map's iteration order is not).
  for (std::uint32_t v = 0; v < frames_.size(); ++v) {
    Frame& f = frames_[v];
    if (!f.valid || f.array != array) continue;
    if (f.dirty) {
      ++stats_.invalidated_dirty;
      --resident_dirty_;
    }
    list_unlink(v);
    f.valid = false;
    f.dirty = false;
    f.ref = false;
    --resident_;
    free_.push_back(v);
  }
  index_[array].clear();
}

bool BlockCache::contains(std::uint32_t array, std::uint64_t block) const {
  return lookup(array, block) != nullptr;
}

bool BlockCache::has_sink(std::uint32_t array) const {
  return array < sinks_.size() && sinks_[array] != nullptr;
}

bool BlockCache::dirty(std::uint32_t array, std::uint64_t block) const {
  const Entry* e = lookup(array, block);
  return e != nullptr && frames_[e->frame].dirty;
}

}  // namespace aem
