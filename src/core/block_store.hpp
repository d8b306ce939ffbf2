// The untyped block store behind every ExtArray<T>.  A block transfer costs
// the same whatever the block holds, so everything below the element type
// is compiled once, here: the array's bytes (native region, spare region,
// recovery metadata), the plain and the faulty device read/write bodies,
// and the block cache's write-back sink.  ExtArray<T> owns its store through
// a unique_ptr, so a store never moves while the cache holds it as a sink.
// Elements move only by memcpy.
//
// Under a FaultPolicy (core/faults.hpp) the store is the device's recovery
// layer: checksummed reads retry, writes verify and rewrite, retired blocks
// migrate to spares (core/remap.hpp), every retry charged.  Under a
// BlockCache (core/cache.hpp) hits are free, writes only dirty their block,
// and write-backs re-enter the charged device path.  With neither, the path
// is byte-identical to the perfect device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cache.hpp"
#include "core/machine.hpp"

namespace aem {

class FaultPolicy;

/// Result of a block transfer: element count plus the trace ticket (invalid
/// when tracing is off).  The ticket lets atom-tracking algorithms annotate
/// the recorded op (Lemma 4.3 needs per-read use-sets).  Under fault
/// injection the ticket is that of the final (successful) attempt.
struct BlockIo {
  std::size_t count = 0;
  IoTicket ticket;
};

class BlockStore : private BlockCache::Sink {
 public:
  /// Writes the atom ids of `count` elements stored at `src` to `out`.
  using AtomHook = void (*)(const BlockStore& store, const std::byte* src,
                            std::size_t count, std::uint64_t* out);

  /// Registers the array with `mach`; the owner hands over the native
  /// region with resized().  Blocks carry checksums only when
  /// `checksummable` (an element's value determines every byte of it);
  /// otherwise recovery uses per-block known-corrupt flags — the simulator
  /// knows what it corrupted, a perfect device-side ECC.
  BlockStore(Machine& mach, std::string name, std::size_t elem_bytes,
             bool checksummable);
  /// Drops this array's cached blocks WITHOUT write-backs (counted in
  /// CacheStats::invalidated_dirty).
  ~BlockStore();

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  Machine& machine() const { return *mach_; }
  std::uint32_t id() const { return id_; }
  std::size_t blocks() const { return blocks_; }
  /// Number of elements in block `bi` (the last block may be partial).
  std::size_t block_elems(std::uint64_t bi) const;

  /// The one read and the one write body (sizes in elements; charges as
  /// documented on ExtArray<T>::read_block / write_block).
  BlockIo read_block(std::uint64_t bi, std::byte* dst,
                     std::size_t dst_elems) const;
  BlockIo write_block(std::uint64_t bi, const std::byte* src,
                      std::size_t src_elems);

  /// Adopts the native region after the owner grew it to `elems` elements.
  void resized(std::byte* native, std::size_t elems);
  /// Uncharged restaging of the native region; drops cached blocks.
  void host_fill(const std::byte* src);

  void set_atom_hook(AtomHook hook) { atoms_ = hook; }

  /// Logical blocks currently redirected to spares (0 when no faults).
  std::size_t remapped_blocks() const;
  std::size_t spares_used() const;

 private:
  struct Recovery;

  std::byte* native(std::uint64_t bi) const {
    return native_ + static_cast<std::size_t>(bi) * block_bytes_;
  }
  void write_back(std::span<const std::uint64_t> blocks,
                  std::size_t& done) override;
  void annotate_atoms(IoTicket t, const std::byte* src,
                      std::size_t count) const;
  /// The recovery state, created on the first transfer under `fp`.
  Recovery& recovery(const FaultPolicy& fp) const;

  Machine* mach_;
  std::uint32_t id_;
  std::size_t elem_bytes_;
  std::size_t block_bytes_;  // elem_bytes_ * B
  bool checksummable_;
  // The native region (held by the typed derived store, handed over by
  // resized()) and its size; blocks_ is kept in step so the per-transfer
  // bounds check compares instead of dividing.
  std::byte* native_ = nullptr;
  std::size_t elems_ = 0;
  std::size_t blocks_ = 0;
  AtomHook atoms_ = nullptr;
  // Mutable: reads must be able to lazily create recovery state and retry.
  mutable std::unique_ptr<Recovery> rec_;
  std::vector<BlockOp> batch_ops_;  // write_back's one-submit run
};

}  // namespace aem
