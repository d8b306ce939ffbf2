// Tests for core/cache: eviction-policy mechanics (BlockCache directly),
// charged-cost accounting and write coalescing through ExtArray, the
// omega-derived clean-first window, lifetime edges (moves, destruction,
// restaging), interaction with fault injection (write-back retry /
// retirement / remap, flush under BudgetExceeded), and the property that
// caching never changes outputs — only Q.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cache.hpp"
#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "permute/permutation.hpp"
#include "permute/scatter.hpp"
#include "sort/mergesort.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

Config cached_cfg(std::size_t M, std::size_t B, std::uint64_t w,
                  std::size_t capacity, CachePolicy p = CachePolicy::kLru) {
  Config c = cfg(M, B, w);
  c.cache.capacity_blocks = capacity;
  c.cache.policy = p;
  return c;
}

/// Records the order of write-backs the cache requested.
struct RecordingSink : BlockCache::Sink {
  std::vector<std::uint64_t> written;
  void write_back(std::span<const std::uint64_t> blocks,
                  std::size_t& done) override {
    for (const std::uint64_t block : blocks) {
      written.push_back(block);
      ++done;
    }
  }
};

/// Sink that throws on the Nth write-back (1-based), modeling a
/// BudgetExceeded / FaultError escaping mid-eviction.
struct ThrowingSink : BlockCache::Sink {
  explicit ThrowingSink(std::size_t fail_at) : fail_at_(fail_at) {}
  std::size_t fail_at_;
  std::size_t calls = 0;
  void write_back(std::span<const std::uint64_t> blocks,
                  std::size_t& done) override {
    for (std::size_t i = 0; i < blocks.size(); ++i, ++done)
      if (++calls == fail_at_) throw std::runtime_error("write-back failed");
  }
};

// --- config & construction -----------------------------------------------

TEST(CacheConfigTest, ValidateRejectsWindowBeyondCapacity) {
  CacheConfig c;
  c.capacity_blocks = 4;
  c.clean_window = 5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.clean_window = 4;
  EXPECT_NO_THROW(c.validate());
}

TEST(BlockCacheTest, ConstructorRejectsZeroCapacity) {
  CacheConfig c;  // capacity 0 = bypass, not a constructible cache
  EXPECT_THROW(BlockCache(c, 8), std::invalid_argument);
}

TEST(BlockCacheTest, CleanFirstWindowDerivesFromOmega) {
  CacheConfig c;
  c.capacity_blocks = 64;
  c.policy = CachePolicy::kCleanFirst;
  // omega = 1: window 0 — the policy IS exact LRU.
  EXPECT_EQ(BlockCache(c, 1).window(), 0u);
  // omega = 8: 64 - max(1, 64/8) = 56.
  EXPECT_EQ(BlockCache(c, 8).window(), 56u);
  // omega >= capacity: 64 - max(1, 64/64) = 63 (protect only the MRU).
  EXPECT_EQ(BlockCache(c, 1024).window(), 63u);
  // Explicit window wins over the derivation.
  c.clean_window = 10;
  EXPECT_EQ(BlockCache(c, 8).window(), 10u);
  // Other policies have no window.
  c.policy = CachePolicy::kLru;
  c.clean_window = 0;
  EXPECT_EQ(BlockCache(c, 8).window(), 0u);
}

// --- eviction-policy mechanics (BlockCache directly) ----------------------

TEST(BlockCacheTest, LruEvictsLeastRecentlyTouched) {
  CacheConfig c;
  c.capacity_blocks = 3;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  bc.insert(0, 2, true, &sink);
  ASSERT_TRUE(bc.find_read(0, 0));  // 0 becomes MRU; LRU order: 1, 2, 0
  bc.insert(0, 3, true, &sink);     // evicts 1
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(bc.contains(0, 1));
  EXPECT_TRUE(bc.contains(0, 0));
  bc.insert(0, 4, true, &sink);  // evicts 2
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{1, 2}));
}

TEST(BlockCacheTest, ClockGivesSecondChanceToReferencedFrames) {
  CacheConfig c;
  c.capacity_blocks = 3;
  c.policy = CachePolicy::kClock;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);  // frame 0
  bc.insert(0, 1, true, &sink);  // frame 1
  bc.insert(0, 2, true, &sink);  // frame 2
  // All ref bits set at insert; the first eviction sweep clears them all
  // and wraps to frame 0: block 0 is the victim despite being "oldest by
  // hand position" — but re-reference block 0 first so its bit survives
  // one extra clear and the hand settles on block 1.
  ASSERT_TRUE(bc.find_read(0, 0));
  bc.insert(0, 3, true, &sink);
  // Sweep: f0 ref->clear, f1 ref->clear, f2 ref->clear, f0 ref(set by
  // find_read? no: find_read sets ref, then cleared once)... the victim is
  // the first frame reached twice with a clear bit: frame 0.
  ASSERT_EQ(sink.written.size(), 1u);
  // Whichever frame was chosen, exactly two of the original three remain
  // and the cache is full again.
  EXPECT_EQ(bc.resident(), 3u);
  EXPECT_TRUE(bc.contains(0, 3));
}

TEST(BlockCacheTest, CleanFirstPrefersCleanVictimInWindow) {
  CacheConfig c;
  c.capacity_blocks = 3;
  c.policy = CachePolicy::kCleanFirst;
  c.clean_window = 3;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);   // dirty
  bc.insert(0, 1, false, &sink);  // clean
  bc.insert(0, 2, true, &sink);   // dirty; LRU order: 0, 1, 2
  bc.insert(0, 3, true, &sink);
  // Plain LRU would evict dirty block 0 (a charged write-back); the clean
  // scan skips it and evicts clean block 1 for free.
  EXPECT_TRUE(sink.written.empty());
  EXPECT_FALSE(bc.contains(0, 1));
  EXPECT_TRUE(bc.contains(0, 0));
  EXPECT_EQ(bc.stats().evictions_clean, 1u);
  EXPECT_EQ(bc.stats().evictions_dirty, 0u);
}

TEST(BlockCacheTest, CleanFirstFallsBackToLruWhenWindowIsAllDirty) {
  CacheConfig c;
  c.capacity_blocks = 3;
  c.policy = CachePolicy::kCleanFirst;
  c.clean_window = 1;  // only the tail block is scanned
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, false, &sink);  // clean, but OUTSIDE the 1-block window
  bc.insert(0, 2, true, &sink);
  bc.insert(0, 3, true, &sink);  // window = {0} (dirty): LRU fallback
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(bc.stats().evictions_dirty, 1u);
}

TEST(BlockCacheTest, FindWriteMarksDirtyAndEvictionWritesBackOnce) {
  CacheConfig c;
  c.capacity_blocks = 2;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 7, false, &sink);
  EXPECT_FALSE(bc.dirty(0, 7));
  ASSERT_TRUE(bc.find_write(0, 7));
  ASSERT_TRUE(bc.find_write(0, 7));  // second dirtying is a no-op
  EXPECT_TRUE(bc.dirty(0, 7));
  EXPECT_EQ(bc.resident_dirty(), 1u);
  bc.insert(0, 8, false, &sink);
  bc.insert(0, 9, false, &sink);  // evicts 7: exactly one write-back
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(bc.stats().write_hits, 2u);
  EXPECT_EQ(bc.stats().write_backs, 1u);
}

TEST(BlockCacheTest, FlushWritesDirtyBlocksInDeterministicOrderAndKeepsThem) {
  CacheConfig c;
  c.capacity_blocks = 8;
  BlockCache bc(c, 8);
  RecordingSink sink;
  bc.insert(0, 5, true, &sink);
  bc.insert(0, 2, true, &sink);
  bc.insert(0, 9, false, &sink);
  bc.insert(0, 7, true, &sink);
  EXPECT_EQ(bc.flush(), 3u);
  EXPECT_EQ(sink.written, (std::vector<std::uint64_t>{2, 5, 7}));  // sorted
  EXPECT_EQ(bc.resident(), 4u);  // flush cleans, it does not evict
  EXPECT_EQ(bc.resident_dirty(), 0u);
  EXPECT_EQ(bc.flush(), 0u);  // nothing left to write
  EXPECT_EQ(bc.stats().flushes, 2u);
}

TEST(BlockCacheTest, ExceptionDuringEvictionLeavesVictimResidentAndDirty) {
  CacheConfig c;
  c.capacity_blocks = 2;
  BlockCache bc(c, 8);
  ThrowingSink sink(1);
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  EXPECT_THROW(bc.insert(0, 2, true, &sink), std::runtime_error);
  // The victim (block 0) is untouched; the new block was never inserted.
  EXPECT_TRUE(bc.contains(0, 0));
  EXPECT_TRUE(bc.dirty(0, 0));
  EXPECT_FALSE(bc.contains(0, 2));
  EXPECT_EQ(bc.resident(), 2u);
  EXPECT_EQ(bc.resident_dirty(), 2u);
}

TEST(BlockCacheTest, ExceptionMidFlushKeepsRemainderDirtyAndIsRetryable) {
  CacheConfig c;
  c.capacity_blocks = 4;
  BlockCache bc(c, 8);
  ThrowingSink sink(2);  // second write-back (block 1) fails
  bc.insert(0, 0, true, &sink);
  bc.insert(0, 1, true, &sink);
  bc.insert(0, 2, true, &sink);
  EXPECT_THROW(bc.flush(), std::runtime_error);
  EXPECT_FALSE(bc.dirty(0, 0));  // flushed before the failure
  EXPECT_TRUE(bc.dirty(0, 1));   // the failing block stays dirty
  EXPECT_TRUE(bc.dirty(0, 2));   // never reached
  EXPECT_EQ(bc.flush(), 2u);     // simply call again
  EXPECT_EQ(bc.resident_dirty(), 0u);
}

TEST(BlockCacheTest, InvalidateArrayDropsDirtyUnchargedAndCountsThem) {
  CacheConfig c;
  c.capacity_blocks = 4;
  BlockCache bc(c, 8);
  RecordingSink a, b;
  bc.insert(0, 0, true, &a);
  bc.insert(1, 0, true, &b);
  bc.insert(0, 1, false, &a);
  bc.invalidate_array(0);
  EXPECT_TRUE(a.written.empty());  // no write-backs on invalidation
  EXPECT_EQ(bc.stats().invalidated_dirty, 1u);
  EXPECT_FALSE(bc.contains(0, 0));
  EXPECT_TRUE(bc.contains(1, 0));  // other arrays untouched
  EXPECT_EQ(bc.resident(), 1u);
  EXPECT_EQ(bc.resident_dirty(), 1u);
}

// --- accounting through ExtArray / Machine --------------------------------

TEST(CachedMachineTest, HitsAreFreeMissesChargeOneRead) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  arr.read_block(0, std::span<int>(buf));  // miss: 1 charged read
  EXPECT_EQ(mach.stats().reads, 1u);
  arr.read_block(0, std::span<int>(buf));  // hit: free
  arr.read_block(0, std::span<int>(buf));
  EXPECT_EQ(mach.stats().reads, 1u);
  EXPECT_EQ(mach.stats().writes, 0u);
  EXPECT_EQ(mach.cache()->stats().read_hits, 2u);
  EXPECT_EQ(mach.cache()->stats().read_misses, 1u);
}

TEST(CachedMachineTest, WritesAreDeferredAndCoalescedUntilFlush) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 1);
  for (int rep = 0; rep < 10; ++rep) {
    buf[0] = rep;
    arr.write_block(2, std::span<const int>(buf));
  }
  EXPECT_EQ(mach.stats().writes, 0u);  // nothing charged yet
  EXPECT_EQ(mach.cost(), 0u);
  EXPECT_EQ(mach.flush_cache(), 1u);  // 10 rewrites -> ONE device write
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(mach.cost(), 4u);  // omega = 4
  // The stored data is the last version.
  std::vector<int> back(8);
  arr.read_block(2, std::span<int>(back));
  EXPECT_EQ(back[0], 9);
}

TEST(CachedMachineTest, HitsProduceNoTraceOpsAndNoWear) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  mach.enable_trace();
  mach.enable_wear_tracking();
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 3);
  arr.write_block(0, std::span<const int>(buf));  // resident, deferred
  arr.write_block(0, std::span<const int>(buf));
  arr.read_block(0, std::span<int>(buf));
  EXPECT_EQ(mach.trace()->size(), 0u);  // the device saw nothing
  EXPECT_EQ(mach.wear_stats().blocks_written, 0u);
  mach.flush_cache();
  EXPECT_EQ(mach.trace()->size(), 1u);  // exactly the one real write
  EXPECT_EQ(mach.wear_stats().blocks_written, 1u);
  EXPECT_EQ(mach.wear_stats().max_writes, 1u);
}

TEST(CachedMachineTest, HitTicketsAreInvalid) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  mach.enable_trace();
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  BlockIo miss = arr.read_block(1, std::span<int>(buf));
  EXPECT_TRUE(miss.ticket.valid());
  BlockIo hit = arr.read_block(1, std::span<int>(buf));
  EXPECT_FALSE(hit.ticket.valid());
}

TEST(CachedMachineTest, ResetStatsKeepsResidencyAndDirtiness) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8, 5);
  arr.write_block(0, std::span<const int>(buf));
  mach.reset_stats();
  EXPECT_EQ(mach.cache()->stats(), CacheStats{});
  EXPECT_EQ(mach.cache()->resident(), 1u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 1u);
  // The deferred write is still owed — and charged to the fresh counters.
  EXPECT_EQ(mach.flush_cache(), 1u);
  EXPECT_EQ(mach.stats().writes, 1u);
}

TEST(CachedMachineTest, MovedArrayKeepsCacheWorking) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> a(mach, 32, "a");
  std::vector<int> buf(8, 7);
  a.write_block(3, std::span<const int>(buf));
  ExtArray<int> b = std::move(a);  // sink must be re-pointed at b
  EXPECT_EQ(mach.flush_cache(), 1u);
  std::vector<int> back(8);
  b.read_block(3, std::span<int>(back));
  EXPECT_EQ(back[0], 7);
}

TEST(CachedMachineTest, MoveAssignDropsTargetFramesAndFlushesSourceFrames) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> a(mach, 32, "a");
  ExtArray<int> b(mach, 32, "b");
  const std::vector<int> sevens(8, 7);
  const std::vector<int> nines(8, 9);
  a.write_block(0, std::span<const int>(sevens));
  a.write_block(1, std::span<const int>(sevens));
  b.write_block(2, std::span<const int>(nines));
  ASSERT_EQ(mach.cache()->resident_dirty(), 3u);

  // The target's storage is replaced: its two dirty frames are dropped
  // without a charge and counted as invalidated.
  a = std::move(b);
  EXPECT_EQ(mach.stats().writes, 0u);
  EXPECT_EQ(mach.cache()->stats().invalidated_dirty, 2u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 1u);

  // The source's dirty frame now belongs to `a`: the flush writes it back
  // (one charged write) into a's storage.
  EXPECT_EQ(mach.flush_cache(), 1u);
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(a.unsafe_host_view()[16], 9);
  std::vector<int> back(8);
  a.read_block(2, std::span<int>(back));
  EXPECT_EQ(back, nines);
  EXPECT_EQ(mach.stats().reads, 0u);  // a pool hit
  EXPECT_THROW(b.read_block(0, std::span<int>(back)), std::logic_error);
}

TEST(CacheFaultTest, RemappedBlockStaysReadableAcrossMoves) {
  Machine mach(cfg(64, 8, 2));
  FaultConfig fc;
  fc.endurance = 2;
  fc.spare_blocks = 4;
  mach.install_faults(fc);
  ExtArray<std::uint64_t> a(mach, 24, "a");
  std::vector<std::uint64_t> payload(8);
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 8; ++i) payload[i] = round * 100 + i;
    a.write_block(0, std::span<const std::uint64_t>(payload));
  }
  ASSERT_EQ(a.remapped_blocks(), 1u);

  std::vector<std::uint64_t> got(8);
  ExtArray<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.remapped_blocks(), 1u);
  b.read_block(0, std::span<std::uint64_t>(got));
  EXPECT_EQ(got, payload);  // served from the spare, not the stale native

  ExtArray<std::uint64_t> c(mach, 8, "c");
  c = std::move(b);
  EXPECT_EQ(c.remapped_blocks(), 1u);
  EXPECT_EQ(c.spares_used(), a.spares_used() + 1);  // moved-from reports 0
  c.read_block(0, std::span<std::uint64_t>(got));
  EXPECT_EQ(got, payload);
}

TEST(CachedMachineTest, DestructionDropsDirtyBlocksUncharged) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  {
    ExtArray<int> a(mach, 32, "doomed");
    std::vector<int> buf(8, 7);
    a.write_block(0, std::span<const int>(buf));
  }
  EXPECT_EQ(mach.stats().writes, 0u);  // dropped, not written back
  EXPECT_EQ(mach.cache()->stats().invalidated_dirty, 1u);
  EXPECT_EQ(mach.cache()->resident(), 0u);
  EXPECT_EQ(mach.flush_cache(), 0u);
}

TEST(CachedMachineTest, HostFillDropsStaleCachedBlocks) {
  Machine mach(cached_cfg(64, 8, 4, 4));
  ExtArray<int> a(mach, 32, "a");
  std::vector<int> buf(8);
  a.read_block(0, std::span<int>(buf));  // default-initialized zeros
  std::vector<int> fresh(32);
  for (int i = 0; i < 32; ++i) fresh[i] = 100 + i;
  a.unsafe_host_fill(std::span<const int>(fresh));
  a.read_block(0, std::span<int>(buf));  // must NOT serve the stale zeros
  EXPECT_EQ(buf[0], 100);
}

TEST(CachedMachineTest, InstallAndRemoveAtRuntime) {
  Machine mach(cfg(64, 8, 4));
  EXPECT_EQ(mach.cache(), nullptr);
  EXPECT_EQ(mach.flush_cache(), 0u);  // no-op without a cache
  CacheConfig cc;
  cc.capacity_blocks = 2;
  mach.install_cache(cc);
  ASSERT_NE(mach.cache(), nullptr);
  EXPECT_EQ(mach.cache()->capacity(), 2u);
  mach.remove_cache();
  EXPECT_EQ(mach.cache(), nullptr);
  // Capacity 0 through install_cache is bypass, not an error.
  cc.capacity_blocks = 0;
  mach.install_cache(cc);
  EXPECT_EQ(mach.cache(), nullptr);
}

// --- interaction with fault injection -------------------------------------

TEST(CacheFaultTest, WriteBackRetriesThroughFaultPolicy) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.seed = 7;
  fc.silent_write_rate = 0.5;  // every other write-back attempt corrupts
  fc.max_retries = 50;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8);
  for (int bi = 0; bi < 8; ++bi) {
    for (int i = 0; i < 8; ++i) buf[i] = bi * 8 + i;
    arr.write_block(bi, std::span<const int>(buf));  // evictions write back
  }
  mach.flush_cache();
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_GT(fs.silent_write_faults, 0u);  // faults really fired
  EXPECT_GT(fs.write_retries, 0u);        // and were retried, charged
  // Every retry was a real omega-write on top of the 8 logical ones.
  EXPECT_GT(mach.stats().writes, 8u);
  // The stored data survived the faulty write-backs.
  mach.clear_faults();
  for (int bi = 0; bi < 8; ++bi) {
    arr.read_block(bi, std::span<int>(buf));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], bi * 8 + i);
  }
}

TEST(CacheFaultTest, WriteBackRetirementMigratesToSpareTransparently) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.endurance = 3;  // blocks die after 3 lifetime writes
  fc.spare_blocks = 16;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  // Hammer block 0 with flushed write-backs until it retires and remaps.
  for (int rep = 0; rep < 6; ++rep) {
    for (int i = 0; i < 8; ++i) buf[i] = rep * 10 + i;
    arr.write_block(0, std::span<const int>(buf));
    mach.flush_cache();
  }
  EXPECT_GT(arr.remapped_blocks(), 0u);
  EXPECT_GT(mach.faults()->stats().remaps, 0u);
  // Reads — cached or not — still deliver the latest data.
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));
  EXPECT_EQ(back[0], 50);
  arr.read_block(0, std::span<int>(back));  // pool hit on a remapped block
  EXPECT_EQ(back[7], 57);
  EXPECT_GT(mach.cache()->stats().read_hits, 0u);
}

TEST(CacheFaultTest, ReadMissOfRemappedBlockRefreshesPoolFrame) {
  // After a block migrates to a spare, the native region holds stale
  // pre-remap bytes; a cached read miss must adopt the DELIVERED (spare)
  // copy so later pool hits serve current data.
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.endurance = 2;
  fc.spare_blocks = 8;
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 32, "a");
  std::vector<int> buf(8);
  for (int rep = 0; rep < 5; ++rep) {
    for (int i = 0; i < 8; ++i) buf[i] = rep * 10 + i;
    arr.write_block(0, std::span<const int>(buf));
    mach.flush_cache();
    // Push block 0 out of the pool so the next read is a true miss.
    arr.write_block(1, std::span<const int>(buf));
    arr.write_block(2, std::span<const int>(buf));
    mach.flush_cache();
  }
  ASSERT_GT(arr.remapped_blocks(), 0u);
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));  // miss: reads the spare
  EXPECT_EQ(back[0], 40);
  arr.read_block(0, std::span<int>(back));  // hit: pool frame must agree
  EXPECT_EQ(back[0], 40);
}

TEST(CacheFaultTest, BudgetExceededDuringFlushLeavesConsistentStateAndRetries) {
  Machine mach(cached_cfg(64, 8, 4, 8));
  FaultConfig fc;
  fc.max_cost = 6;  // one omega-write (4) fits, the second (8) trips
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8, 1);
  arr.write_block(0, std::span<const int>(buf));
  arr.write_block(1, std::span<const int>(buf));
  arr.write_block(2, std::span<const int>(buf));
  EXPECT_THROW(mach.flush_cache(), BudgetExceeded);
  // One block was flushed (the one whose write tripped the ceiling is
  // charged but stays dirty only if the charge threw BEFORE the sink
  // marked it clean — either way the invariant is: dirty blocks left are
  // exactly the writes Q has not (fully) accounted.  Retrying after the
  // ceiling is lifted completes the flush.
  mach.clear_faults();
  mach.flush_cache();
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);
  // All three blocks hold their data.
  for (int bi = 0; bi < 3; ++bi) {
    std::vector<int> back(8);
    arr.read_block(bi, std::span<int>(back));
    EXPECT_EQ(back[0], 1);
  }
}

TEST(CacheFaultTest, EvictionBudgetFailureKeepsVictimAndDataIntact) {
  Machine mach(cached_cfg(64, 8, 4, 2));
  FaultConfig fc;
  fc.max_cost = 2;  // any omega-write (4) trips the ceiling
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> one(8, 1), two(8, 2), three(8, 3);
  arr.write_block(0, std::span<const int>(one));
  arr.write_block(1, std::span<const int>(two));
  // The third write must evict a dirty victim; the write-back trips the
  // budget and the victim must stay resident + dirty.
  EXPECT_THROW(arr.write_block(2, std::span<const int>(three)),
               BudgetExceeded);
  EXPECT_EQ(mach.cache()->resident(), 2u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 2u);
  mach.clear_faults();
  std::vector<int> back(8);
  arr.read_block(0, std::span<int>(back));
  EXPECT_EQ(back[0], 1);
  arr.read_block(1, std::span<int>(back));
  EXPECT_EQ(back[0], 2);
}

TEST(CacheFaultTest, TornWriteDuringFlushPinsExactCharges) {
  // Regression guard for the write-back/retry accounting audit: a torn
  // write injected during flush() must charge EXACTLY one extra write and
  // the two verify reads — nothing double-charged, nothing dropped, and the
  // block must come out clean and correct.
  //
  // Find a schedule whose first write draw tears and whose second is clean.
  // The probe replays the exact draw sequence of one flushed block under
  // verify_writes (read_fault_rate = 0, so verify reads draw nothing):
  //   attempt 1: draw_write_fault -> torn, draw_u64 (torn prefix length)
  //   attempt 2: draw_write_fault -> clean
  FaultConfig fc;
  fc.torn_write_rate = 0.5;
  fc.verify_writes = true;
  fc.checksum_reads = true;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 256 && !found; ++seed) {
    fc.seed = seed;
    FaultPolicy probe(fc);
    if (probe.draw_write_fault() == FaultKind::kTornWrite) {
      probe.draw_u64();
      found = probe.draw_write_fault() == FaultKind::kNone;
    }
  }
  ASSERT_TRUE(found) << "no seed < 256 gives torn-then-clean (rate 0.5?)";

  const std::uint64_t omega = 4;
  Machine mach(cached_cfg(64, 8, omega, /*capacity=*/8));
  mach.install_faults(fc);
  ExtArray<int> arr(mach, 64, "a");
  std::vector<int> buf(8);
  for (int i = 0; i < 8; ++i) buf[i] = 30 + i;

  // The write itself is absorbed by the pool: zero device I/O so far.
  arr.write_block(3, std::span<const int>(buf));
  ASSERT_EQ(mach.stats(), (IoStats{0, 0}));
  ASSERT_EQ(mach.cache()->resident_dirty(), 1u);

  EXPECT_EQ(mach.flush_cache(), 1u);

  // Exact charges: write attempt (torn) + verify read + rewrite + verify
  // read = 2 reads, 2 writes, Q = 2 + 2*omega.
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
  EXPECT_EQ(mach.cost(), 2 + 2 * omega);
  const FaultStats& fs = mach.faults()->stats();
  EXPECT_EQ(fs.torn_write_faults, 1u);
  EXPECT_EQ(fs.verify_failures, 1u);
  EXPECT_EQ(fs.write_retries, 1u);
  EXPECT_EQ(fs.silent_write_faults, 0u);
  EXPECT_EQ(fs.read_faults, 0u);
  const CacheStats cs = mach.cache()->stats();
  EXPECT_EQ(cs.write_backs, 1u);
  EXPECT_EQ(cs.flushes, 1u);
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);

  // The block is clean: a second flush writes back nothing and charges
  // nothing (the retry did not leave a phantom dirty bit).
  EXPECT_EQ(mach.flush_cache(), 0u);
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
  EXPECT_EQ(mach.cache()->stats().write_backs, 1u);

  // And the stored data survived the torn first attempt.
  std::vector<int> back(8);
  arr.read_block(3, std::span<int>(back));  // pool hit: free
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back[i], 30 + i);
  EXPECT_EQ(mach.stats(), (IoStats{2, 2}));
}

// --- the cache changes Q, never results -----------------------------------

TEST(CacheInvarianceTest, SortAndScatterOutputsMatchUncachedRuns) {
  const std::size_t N = 2048, M = 256, B = 16;
  util::Rng rng(99);
  const std::vector<std::uint64_t> keys = util::random_keys(N, rng);
  const perm::Perm dest = perm::random(N, rng);

  auto run = [&](Config c, bool sort) {
    Machine mach(c);
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    if (sort) {
      aem_merge_sort(in, out);
    } else {
      scatter_permute(in, std::span<const std::uint64_t>(dest), out);
    }
    mach.flush_cache();
    return std::pair(out.unsafe_host_view(), mach.cost());
  };

  for (bool sort : {true, false}) {
    const auto [expect, q_off] = run(cfg(M, B, 16), sort);
    for (CachePolicy p : {CachePolicy::kLru, CachePolicy::kClock,
                          CachePolicy::kCleanFirst}) {
      for (std::size_t cap : {4u, 32u, 256u}) {
        const auto [got, q] = run(cached_cfg(M, B, 16, cap, p), sort);
        EXPECT_EQ(got, expect)
            << (sort ? "sort" : "scatter") << " policy=" << to_string(p)
            << " cap=" << cap;
        // A flushed pool can only remove I/Os, never add them.
        EXPECT_LE(q, q_off) << (sort ? "sort" : "scatter")
                            << " policy=" << to_string(p) << " cap=" << cap;
      }
    }
  }
}

TEST(CacheInvarianceTest, CleanFirstAtOmegaOneIsExactlyLru) {
  const std::size_t N = 1024, M = 128, B = 8;
  util::Rng rng(5);
  const std::vector<std::uint64_t> keys = util::random_keys(N, rng);
  const perm::Perm dest = perm::random(N, rng);
  auto run = [&](CachePolicy p) {
    Machine mach(cached_cfg(M, B, 1, 16, p));
    ExtArray<std::uint64_t> in(mach, N, "in");
    in.unsafe_host_fill(keys);
    ExtArray<std::uint64_t> out(mach, N, "out");
    mach.reset_stats();
    scatter_permute(in, std::span<const std::uint64_t>(dest), out);
    mach.flush_cache();
    return std::tuple(mach.stats().reads, mach.stats().writes,
                      mach.cache()->stats());
  };
  // Identical counters bit for bit: at omega = 1 the derived window is 0.
  EXPECT_EQ(run(CachePolicy::kCleanFirst), run(CachePolicy::kLru));
}

// --- dangling-sink regression --------------------------------------------
// invalidate_array used to return early when the array had no RESIDENT
// blocks, leaving its Sink pointer registered — a pointer into the ExtArray
// being destroyed.  Any later dirty write-back touching that slot would
// call through freed memory.  The fix forgets the sink unconditionally, and
// evict_one()/flush() refuse (std::logic_error) to dereference a missing
// sink instead of crashing.

TEST(BlockCacheTest, DirtyEvictionWithoutSinkThrowsLogicError) {
  CacheConfig cc;
  cc.capacity_blocks = 1;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/true, nullptr);
  // The pool is full, so this insert must evict the sink-less dirty block.
  EXPECT_THROW(bc.insert(0, 1, /*dirty=*/false, nullptr), std::logic_error);
}

TEST(BlockCacheTest, DirtyFlushWithoutSinkThrowsLogicError) {
  CacheConfig cc;
  cc.capacity_blocks = 2;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/true, nullptr);
  EXPECT_THROW(bc.flush(), std::logic_error);
}

TEST(BlockCacheTest, InvalidateArrayForgetsSinkEvenWithNoResidentBlocks) {
  RecordingSink sink;
  CacheConfig cc;
  cc.capacity_blocks = 1;
  BlockCache bc(cc, 1);
  bc.insert(0, 0, /*dirty=*/false, &sink);
  EXPECT_TRUE(bc.has_sink(0));
  // Evict array 0's only (clean) block: registration must outlive residency
  // (that is what write-allocate of a later block relies on) ...
  bc.insert(1, 0, /*dirty=*/false, &sink);
  EXPECT_FALSE(bc.contains(0, 0));
  EXPECT_TRUE(bc.has_sink(0));
  // ... but invalidation must clear it even though no block is resident —
  // this is exactly the early-return path that used to leave it dangling.
  bc.invalidate_array(0);
  EXPECT_FALSE(bc.has_sink(0));
  bc.invalidate_array(1);  // resident-block path clears it too
  EXPECT_FALSE(bc.has_sink(1));
}

TEST(CachedMachineTest, DestroyingArrayWithResidentBlocksThenFlushingIsSafe) {
  Machine mach(cached_cfg(4096, 8, 4, 8));
  std::uint32_t dead_id = 0;
  {
    ExtArray<std::uint64_t> doomed(mach, 32, "doomed");
    std::vector<std::uint64_t> blk(8, 7);
    for (std::uint64_t bi = 0; bi < 4; ++bi)
      doomed.write_block(bi, std::span<const std::uint64_t>(blk));
    dead_id = doomed.id();
    EXPECT_EQ(mach.cache()->resident_dirty(), 4u);
    EXPECT_TRUE(mach.cache()->has_sink(dead_id));
  }
  // Destruction dropped the entries AND the sink registration.
  EXPECT_EQ(mach.cache()->resident_dirty(), 0u);
  EXPECT_FALSE(mach.cache()->has_sink(dead_id));
  EXPECT_EQ(mach.cache()->stats().invalidated_dirty, 4u);
  EXPECT_NO_THROW(mach.flush_cache());
  // The pool keeps serving fresh arrays normally afterwards.
  ExtArray<std::uint64_t> fresh(mach, 8, "fresh");
  std::vector<std::uint64_t> blk(8, 9);
  fresh.write_block(0, std::span<const std::uint64_t>(blk));
  EXPECT_EQ(mach.flush_cache(), 1u);
  std::vector<std::uint64_t> back(8, 0);
  fresh.read_block(0, std::span<std::uint64_t>(back));
  EXPECT_EQ(back, blk);
}

// --- differential: O(1) victim choice vs the linear window scan -----------

/// Reference model of the pool with the clean-first victim found the naive
/// way: walk up to `window` frames from the cold end and take the first
/// clean one, else the LRU frame.  Frame slots, the free list, the CLOCK
/// hand, flush order and exception behaviour follow BlockCache's contract,
/// so every policy's victims, write-backs and counters must match exactly.
/// Linear time throughout; only for tests.
class WindowScanCache {
 public:
  WindowScanCache(const CacheConfig& c, std::uint64_t omega)
      : policy_(c.policy), frames_(c.capacity_blocks) {
    const std::size_t cap = c.capacity_blocks;
    for (std::size_t i = 0; i < cap; ++i)
      free_.push_back(static_cast<std::uint32_t>(cap - 1 - i));
    if (policy_ == CachePolicy::kCleanFirst) {
      if (c.clean_window != 0)
        window = c.clean_window;
      else if (omega > 1)
        window = cap - std::max<std::size_t>(
                           1, cap / std::min<std::uint64_t>(omega, cap));
    }
  }

  std::size_t window = 0;
  CacheStats stats;
  std::size_t resident = 0;
  std::size_t resident_dirty = 0;

  bool find_read(std::uint32_t a, std::uint64_t b) {
    const int v = find(a, b);
    if (v < 0) {
      ++stats.read_misses;
      return false;
    }
    ++stats.read_hits;
    touch(static_cast<std::uint32_t>(v));
    return true;
  }

  bool find_write(std::uint32_t a, std::uint64_t b) {
    const int v = find(a, b);
    if (v < 0) {
      ++stats.write_misses;
      return false;
    }
    ++stats.write_hits;
    if (!frames_[v].dirty) {
      frames_[v].dirty = true;
      ++resident_dirty;
    }
    touch(static_cast<std::uint32_t>(v));
    return true;
  }

  void insert(std::uint32_t a, std::uint64_t b, bool dirty,
              BlockCache::Sink* sink) {
    if (a >= sinks_.size()) sinks_.resize(a + 1, nullptr);
    sinks_[a] = sink;
    if (free_.empty()) evict_one();
    const std::uint32_t v = free_.back();
    free_.pop_back();
    frames_[v] = Frame{a, b, true, dirty, true};
    where_[{a, b}] = v;
    order_.insert(order_.begin(), v);
    ++resident;
    if (dirty) ++resident_dirty;
  }

  std::size_t flush() {
    ++stats.flushes;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> dirty_blocks;
    for (const Frame& f : frames_)
      if (f.valid && f.dirty) dirty_blocks.emplace_back(f.array, f.block);
    std::sort(dirty_blocks.begin(), dirty_blocks.end());
    std::size_t written = 0;
    auto mark_clean = [&](std::uint32_t a, std::uint64_t b) {
      frames_[find(a, b)].dirty = false;
      --resident_dirty;
      ++stats.write_backs;
      ++written;
    };
    for (std::size_t i = 0; i < dirty_blocks.size();) {
      const std::uint32_t a = dirty_blocks[i].first;
      if (sinks_[a] == nullptr) throw std::logic_error("no sink");
      std::vector<std::uint64_t> run;
      for (; i < dirty_blocks.size() && dirty_blocks[i].first == a; ++i)
        run.push_back(dirty_blocks[i].second);
      std::size_t done = 0;
      try {
        sinks_[a]->write_back(run, done);
      } catch (...) {
        for (std::size_t k = 0; k < done; ++k) mark_clean(a, run[k]);
        throw;
      }
      for (const std::uint64_t b : run) mark_clean(a, b);
    }
    return written;
  }

  void invalidate_array(std::uint32_t a) {
    if (a < sinks_.size()) sinks_[a] = nullptr;
    for (std::uint32_t v = 0; v < frames_.size(); ++v) {
      Frame& f = frames_[v];
      if (!f.valid || f.array != a) continue;
      if (f.dirty) {
        ++stats.invalidated_dirty;
        --resident_dirty;
      }
      order_.erase(std::find(order_.begin(), order_.end(), v));
      where_.erase({f.array, f.block});
      f = Frame{};
      --resident;
      free_.push_back(v);
    }
  }

  bool contains(std::uint32_t a, std::uint64_t b) const {
    return find(a, b) >= 0;
  }
  bool dirty(std::uint32_t a, std::uint64_t b) const {
    const int v = find(a, b);
    return v >= 0 && frames_[v].dirty;
  }

 private:
  struct Frame {
    std::uint32_t array = 0;
    std::uint64_t block = 0;
    bool valid = false;
    bool dirty = false;
    bool ref = false;
  };

  int find(std::uint32_t a, std::uint64_t b) const {
    const auto it = where_.find({a, b});
    return it == where_.end() ? -1 : static_cast<int>(it->second);
  }

  void touch(std::uint32_t v) {
    if (policy_ == CachePolicy::kClock) {
      frames_[v].ref = true;
      return;
    }
    order_.erase(std::find(order_.begin(), order_.end(), v));
    order_.insert(order_.begin(), v);
  }

  std::uint32_t pick_victim() {
    if (policy_ == CachePolicy::kClock) {
      for (;;) {
        const std::size_t here = hand_;
        hand_ = (hand_ + 1) % frames_.size();
        Frame& f = frames_[here];
        if (!f.valid) continue;
        if (f.ref) {
          f.ref = false;
          continue;
        }
        return static_cast<std::uint32_t>(here);
      }
    }
    // The linear window scan, cold end first.
    for (std::size_t k = 0; k < window && k < order_.size(); ++k) {
      const std::uint32_t v = order_[order_.size() - 1 - k];
      if (!frames_[v].dirty) return v;
    }
    return order_.back();
  }

  void evict_one() {
    const std::uint32_t v = pick_victim();
    Frame& f = frames_[v];
    if (f.dirty) {
      if (sinks_[f.array] == nullptr) throw std::logic_error("no sink");
      const std::uint64_t b = f.block;
      std::size_t done = 0;
      sinks_[f.array]->write_back(std::span<const std::uint64_t>(&b, 1),
                                  done);
      ++stats.write_backs;
      ++stats.evictions_dirty;
      --resident_dirty;
    } else {
      ++stats.evictions_clean;
    }
    order_.erase(std::find(order_.begin(), order_.end(), v));
    where_.erase({f.array, f.block});
    f = Frame{};
    --resident;
    free_.push_back(v);
  }

  CachePolicy policy_;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> order_;  // recency, front = MRU
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> where_;
  std::vector<BlockCache::Sink*> sinks_;
  std::size_t hand_ = 0;
};

/// Logs every written-back (array, block) into a shared sequence and throws
/// when the shared countdown of write-back blocks reaches zero.
struct ScheduledSink : BlockCache::Sink {
  std::uint32_t array = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>>* log = nullptr;
  std::size_t* fail_in = nullptr;  // 0 = disarmed
  void write_back(std::span<const std::uint64_t> blocks,
                  std::size_t& done) override {
    for (const std::uint64_t b : blocks) {
      if (*fail_in != 0 && --*fail_in == 0)
        throw std::runtime_error("scheduled write-back failure");
      log->emplace_back(array, b);
      ++done;
    }
  }
};

TEST(BlockCacheTest, VictimsMatchWindowScanReference) {
  constexpr std::uint32_t kArrays = 3;
  std::size_t configs = 0;
  std::size_t ops = 0;
  std::size_t evictions = 0;
  for (const CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kClock, CachePolicy::kCleanFirst}) {
    for (const std::size_t cap : {1, 2, 3, 8, 64, 256}) {
      for (const std::size_t cw : {std::size_t{0}, std::size_t{1}, cap / 2,
                                   cap - 1, cap}) {
        for (const std::uint64_t omega : {1, 2, 16, 1024}) {
          CacheConfig cc;
          cc.capacity_blocks = cap;
          cc.policy = policy;
          cc.clean_window = cw;
          BlockCache bc(cc, omega);
          WindowScanCache ref(cc, omega);
          ASSERT_EQ(bc.window(), ref.window);
          SCOPED_TRACE(std::string(to_string(policy)) + " cap=" +
                       std::to_string(cap) + " window=" +
                       std::to_string(ref.window) +
                       " omega=" + std::to_string(omega));
          ++configs;

          std::vector<std::pair<std::uint32_t, std::uint64_t>> log, ref_log;
          std::size_t fail_in = 0, ref_fail_in = 0;
          ScheduledSink sinks[kArrays], ref_sinks[kArrays];
          for (std::uint32_t a = 0; a < kArrays; ++a) {
            sinks[a].array = ref_sinks[a].array = a;
            sinks[a].log = &log;
            sinks[a].fail_in = &fail_in;
            ref_sinks[a].log = &ref_log;
            ref_sinks[a].fail_in = &ref_fail_in;
          }
          const std::uint64_t universe = 2 * cap + 4;
          const std::uint64_t hot = cap / 2 + 2;
          util::Rng rng(cap * 131 + cw * 7 + omega +
                  static_cast<std::uint64_t>(policy) * 100003);
          const std::size_t n_ops = 400 + 12 * cap;
          for (std::size_t i = 0; i < n_ops; ++i, ++ops) {
            // Phases of read-heavy, mixed and write-heavy traffic, so the
            // window is sometimes all clean and sometimes all dirty.
            const std::uint64_t write_pct = 20 + 35 * ((i / 97) % 3);
            const std::uint32_t a =
                static_cast<std::uint32_t>(rng.below(kArrays));
            const std::uint64_t b =
                rng.below(10) < 7 ? rng.below(hot) : rng.below(universe);
            const std::uint64_t r = rng.below(100);
            bool threw = false, ref_threw = false;
            auto run = [](bool& flag, auto&& body) {
              try {
                body();
              } catch (const std::exception&) {
                flag = true;
              }
            };
            if (r < 3) {
              fail_in = ref_fail_in = 1 + rng.below(3);
            } else if (r < 6) {
              std::size_t n = 0, ref_n = 0;
              run(threw, [&] { n = bc.flush(); });
              run(ref_threw, [&] { ref_n = ref.flush(); });
              ASSERT_EQ(n, ref_n);
            } else if (r < 8) {
              bc.invalidate_array(a);
              ref.invalidate_array(a);
            } else {
              // A BlockStore transfer: look up, and on a miss make the
              // block resident (clean after a read, dirty after a write).
              const bool write = rng.below(100) < write_pct;
              const bool hit =
                  write ? bc.find_write(a, b) : bc.find_read(a, b);
              ASSERT_EQ(hit, write ? ref.find_write(a, b)
                                   : ref.find_read(a, b));
              if (!hit) {
                run(threw, [&] { bc.insert(a, b, write, &sinks[a]); });
                run(ref_threw,
                    [&] { ref.insert(a, b, write, &ref_sinks[a]); });
              }
            }
            ASSERT_EQ(threw, ref_threw) << "op " << i;
            ASSERT_EQ(bc.contains(a, b), ref.contains(a, b)) << "op " << i;
            ASSERT_EQ(bc.dirty(a, b), ref.dirty(a, b)) << "op " << i;
            ASSERT_EQ(log, ref_log) << "op " << i;
            ASSERT_EQ(fail_in, ref_fail_in) << "op " << i;
            ASSERT_EQ(bc.stats(), ref.stats) << "op " << i;
            ASSERT_EQ(bc.resident(), ref.resident) << "op " << i;
            ASSERT_EQ(bc.resident_dirty(), ref.resident_dirty) << "op " << i;
            log.clear();
            ref_log.clear();
            if (i % 64 == 63 || i + 1 == n_ops) {
              for (std::uint32_t aa = 0; aa < kArrays; ++aa)
                for (std::uint64_t bb = 0; bb < universe; ++bb) {
                  ASSERT_EQ(bc.contains(aa, bb), ref.contains(aa, bb));
                  ASSERT_EQ(bc.dirty(aa, bb), ref.dirty(aa, bb));
                }
            }
          }
          evictions +=
              bc.stats().evictions_clean + bc.stats().evictions_dirty;
        }
      }
    }
  }
  std::cout << "[ victim differential ] " << configs << " configurations, "
            << ops << " operations, " << evictions
            << " evictions matched the window-scan reference\n";
}

}  // namespace
