#include "core/block_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/faults.hpp"
#include "core/remap.hpp"

namespace aem {

/// Per-array device-side recovery state and the faulty read/write bodies,
/// created on the first transfer under an installed FaultPolicy.
struct BlockStore::Recovery {
  /// Where a logical block lives: the charge id the machine sees, the bytes.
  struct PhysLoc {
    std::uint64_t charge;
    std::byte* data;
  };

  Recovery(const BlockStore& store, std::size_t spare_capacity)
      : s(store), remap(spare_capacity), spare_base(store.blocks_) {
    refresh(0);
  }

  /// Re-stamps the (uncharged) ECC metadata from block `first` on; the
  /// known-corrupt flags are all cleared.
  void refresh(std::size_t first) {
    meta.resize(s.blocks_);
    for (std::size_t bi = s.checksummable_ ? first : 0; bi < s.blocks_; ++bi) {
      const std::size_t bytes = s.block_elems(bi) * s.elem_bytes_;
      meta[bi] = s.checksummable_ ? fault_checksum(s.native(bi), bytes) : 0;
    }
  }

  PhysLoc locate(std::uint64_t bi) {
    if (!remap.empty()) {
      const std::uint64_t slot = remap.slot_of(bi);
      if (slot != RemapTable::npos)
        return PhysLoc{spare_base + slot,
                       spare.data() +
                           static_cast<std::size_t>(slot) * s.block_bytes_};
    }
    return PhysLoc{bi, s.native(bi)};
  }

  /// Flips one byte (the simulated bit rot), drawn from the fault schedule.
  static void corrupt(std::byte* bytes, std::size_t n, std::uint64_t r) {
    bytes[r % n] ^= static_cast<std::byte>(1 | ((r >> 8) & 0xff));
  }

  /// Deterministic backoff before retry `attempt` (1-based): each poll is
  /// one charged read — waiting out a flaky device costs real I/O time.
  void backoff(FaultPolicy& fp, const RetryPolicy& retry,
               std::uint64_t charge_block, std::size_t attempt) const {
    const std::uint64_t polls = retry.backoff(attempt);
    if (polls == 0) return;
    fp.note_backoff(polls);
    for (std::uint64_t i = 0; i < polls; ++i)
      s.mach_->on_read(s.id_, charge_block);
  }

  BlockIo read(FaultPolicy& fp, std::uint64_t bi, std::byte* dst,
               std::size_t count) {
    const RetryPolicy retry = fp.retry();
    const std::size_t bytes = count * s.elem_bytes_;
    std::size_t attempt = 0;
    for (;;) {
      const PhysLoc loc = locate(bi);
      const IoTicket t = s.mach_->on_read(s.id_, loc.charge);
      std::memcpy(dst, loc.data, bytes);
      const bool injected = fp.draw_read_fault();
      if (injected) corrupt(dst, bytes, fp.draw_u64());
      // A checksum catches an injected flip for real.
      const bool clean = s.checksummable_
                             ? fault_checksum(dst, bytes) == meta[bi]
                             : !injected && meta[bi] == 0;
      if (!fp.config().checksum_reads || clean) return BlockIo{count, t};
      fp.note_checksum_failure();
      if (retry.exhausted(attempt))
        throw FaultError(/*is_write=*/false, s.id_, bi, attempt + 1,
                         "checksum mismatch persists (stored block corrupt "
                         "or fault rate too high for the retry budget)");
      ++attempt;
      fp.note_read_retry();
      backoff(fp, retry, loc.charge, attempt);
    }
  }

  BlockIo write(FaultPolicy& fp, std::uint64_t bi, const std::byte* src,
                std::size_t count) {
    const RetryPolicy retry = fp.retry();
    const std::size_t bytes = count * s.elem_bytes_;
    std::size_t attempt = 0;  // failures on the current physical block
    for (;;) {
      const PhysLoc loc = locate(bi);
      const IoTicket t = s.mach_->on_write(s.id_, loc.charge);
      s.annotate_atoms(t, src, count);
      const bool on_retired = fp.record_write(s.id_, loc.charge);
      const FaultKind fault =
          on_retired ? FaultKind::kRetiredBlock : fp.draw_write_fault();

      // Apply the attempt to the stored bytes.  A torn write persists only
      // a prefix of whole elements; on a retired block nothing takes.
      const bool stored_ok = fault == FaultKind::kNone;
      if (stored_ok || fault == FaultKind::kSilentWrite)
        std::memcpy(loc.data, src, bytes);
      if (fault == FaultKind::kSilentWrite)
        corrupt(loc.data, bytes, fp.draw_u64());
      if (fault == FaultKind::kTornWrite)
        std::memcpy(loc.data, src, (fp.draw_u64() % count) * s.elem_bytes_);
      // Device ECC metadata is computed from the *intended* payload, so a
      // later read of a corrupt block fails its check.
      meta[bi] = s.checksummable_ ? fault_checksum(src, bytes) : !stored_ok;

      if (!fp.config().verify_writes) return BlockIo{count, t};

      // Verify-after-write: one charged read-back, itself subject to
      // transient read faults.
      s.mach_->on_read(s.id_, loc.charge);
      const bool readback_corrupt = fp.draw_read_fault();
      if (stored_ok && !readback_corrupt) return BlockIo{count, t};
      fp.note_verify_failure();

      if (fp.retired(s.id_, loc.charge)) {
        // Permanent failure: migrate this logical block to a spare and
        // retry there with a fresh retry budget.
        const std::uint64_t slot = remap.remap(bi);
        spare.resize((static_cast<std::size_t>(slot) + 1) * s.block_bytes_);
        fp.note_remap();
        attempt = 0;
        continue;
      }
      if (retry.exhausted(attempt))
        throw FaultError(/*is_write=*/true, s.id_, bi, attempt + 1,
                         "verify-after-write keeps failing (fault rate too "
                         "high for the retry budget)");
      ++attempt;
      fp.note_write_retry();
      backoff(fp, retry, loc.charge, attempt);
    }
  }

  const BlockStore& s;  // a store never moves
  RemapTable remap;
  std::vector<std::byte> spare;     // spare-block storage, one block per slot
  std::size_t spare_base;           // physical id of spare slot 0
  // Per logical block: its checksum, or (not checksummable) 1 if known
  // corrupt.
  std::vector<std::uint64_t> meta;
};

BlockStore::BlockStore(Machine& mach, std::string name, std::size_t elem_bytes,
                       bool checksummable)
    : mach_(&mach),
      id_(mach.register_array(std::move(name))),
      elem_bytes_(elem_bytes),
      block_bytes_(elem_bytes * mach.B()),
      checksummable_(checksummable) {}

BlockStore::~BlockStore() {
  if (BlockCache* bc = mach_->cache()) bc->invalidate_array(id_);
}

std::size_t BlockStore::block_elems(std::uint64_t bi) const {
  if (bi >= blocks_)
    throw std::out_of_range("ExtArray: block index " + std::to_string(bi) +
                            " out of range (array has " +
                            std::to_string(blocks_) + " blocks)");
  const std::size_t B = mach_->B();
  return std::min(B, elems_ - static_cast<std::size_t>(bi) * B);
}

// The cached bytes live in the NATIVE region (the pool's RAM copy); the
// cache holds only metadata.  Invariant: while a block is resident, the
// native region holds its current contents — reads copy delivered
// (verified) data there on insertion, writes store their payload there, and
// write-backs read it back out.  For remapped blocks the device copy lives
// in the spare region, so the native region is exactly the pool frame.

BlockIo BlockStore::read_block(std::uint64_t bi, std::byte* dst,
                               std::size_t dst_elems) const {
  const std::size_t count = block_elems(bi);
  if (dst_elems < count)
    throw std::invalid_argument("read_block: destination too small");
  const std::size_t bytes = count * elem_bytes_;
  BlockCache* bc = mach_->cache();
  if (bc != nullptr && bc->find_read(id_, bi)) {
    std::memcpy(dst, native(bi), bytes);
    return BlockIo{count, IoTicket{}};  // pool hit: no device I/O
  }
  FaultPolicy* fp = mach_->faults();
  const bool faulty = fp != nullptr && fp->injects_faults();
  BlockIo io;
  if (faulty) {
    io = recovery(*fp).read(*fp, bi, dst, count);
  } else {
    std::memcpy(dst, native(bi), bytes);
    io = BlockIo{count, mach_->on_read(id_, bi)};
  }
  if (bc != nullptr) {
    // The delivered (checksum-verified) copy becomes the pool frame; for a
    // remapped block the native region held stale pre-remap bytes.
    if (faulty) std::memcpy(native(bi), dst, bytes);
    // May evict (and write back) a victim; if that throws, the read stands
    // — delivered and charged — and the block is just not cached.
    bc->insert(id_, bi, /*dirty=*/false, const_cast<BlockStore*>(this));
  }
  return io;
}

BlockIo BlockStore::write_block(std::uint64_t bi, const std::byte* src,
                                std::size_t src_elems) {
  const std::size_t count = block_elems(bi);
  if (src_elems != count)
    throw std::invalid_argument("write_block: source size mismatch");
  if (BlockCache* bc = mach_->cache()) {
    // A miss write-allocates without fetching (the whole block is
    // overwritten).  Insert first — if the eviction's write-back throws,
    // the stored data is untouched.
    if (!bc->find_write(id_, bi)) bc->insert(id_, bi, /*dirty=*/true, this);
    std::memcpy(native(bi), src, count * elem_bytes_);
    return BlockIo{count, IoTicket{}};
  }
  FaultPolicy* fp = mach_->faults();
  if (fp != nullptr && fp->injects_faults())
    return recovery(*fp).write(*fp, bi, src, count);
  std::memcpy(native(bi), src, count * elem_bytes_);
  const BlockIo io{count, mach_->on_write(id_, bi)};
  annotate_atoms(io.ticket, src, count);
  return io;
}

/// BlockCache::Sink: push dirty pool frames back to the device through the
/// normal charged write path (including fault injection / recovery / remap
/// when a policy is installed).  With no policy at all the payloads already
/// sit in the native region and no per-block throw can strand a partial
/// run, so the run is charged as ONE Machine::submit — unless a traced
/// write needs its ticket for atom annotation.
void BlockStore::write_back(std::span<const std::uint64_t> blocks,
                            std::size_t& done) {
  FaultPolicy* fp = mach_->faults();
  if (fp == nullptr && !(atoms_ != nullptr && mach_->tracing())) {
    batch_ops_.clear();
    for (const std::uint64_t bi : blocks)
      batch_ops_.push_back(BlockOp{OpKind::kWrite, id_, bi});
    mach_->submit(batch_ops_);
    done = blocks.size();
    return;
  }
  for (const std::uint64_t bi : blocks) {
    const std::size_t count = block_elems(bi);
    if (fp != nullptr && fp->injects_faults()) {
      // The faulty write path mutates the located device region in place,
      // so stage the payload out of the (aliasing) native region.
      const std::vector<std::byte> staged(native(bi),
                                          native(bi) + count * elem_bytes_);
      recovery(*fp).write(*fp, bi, staged.data(), count);
    } else {
      annotate_atoms(mach_->on_write(id_, bi), native(bi), count);
    }
    ++done;
  }
}

void BlockStore::annotate_atoms(IoTicket t, const std::byte* src,
                                std::size_t count) const {
  if (t.valid() && atoms_ != nullptr) {
    std::vector<std::uint64_t> atoms(count);
    atoms_(*this, src, count, atoms.data());
    mach_->trace()->set_atoms(t, std::move(atoms));
  }
}

BlockStore::Recovery& BlockStore::recovery(const FaultPolicy& fp) const {
  if (rec_ == nullptr)
    rec_ = std::make_unique<Recovery>(*this, fp.config().spare_blocks);
  return *rec_;
}

void BlockStore::resized(std::byte* native, std::size_t elems) {
  const std::size_t old_blocks = blocks_;
  native_ = native;
  elems_ = elems;
  blocks_ = mach_->n_of(elems);
  if (rec_ == nullptr) return;
  if (!rec_->remap.empty() && blocks_ > rec_->spare_base)
    throw std::logic_error(
        "ExtArray::grow_to: cannot grow past the spare region after blocks "
        "were remapped");
  if (rec_->remap.empty()) rec_->spare_base = blocks_;
  // Re-stamp from the previously-last block: growth may complete it.
  rec_->refresh(old_blocks == 0 ? 0 : old_blocks - 1);
}

void BlockStore::host_fill(const std::byte* src) {
  if (BlockCache* bc = mach_->cache()) bc->invalidate_array(id_);
  if (elems_ != 0) std::memcpy(native_, src, elems_ * elem_bytes_);
  if (rec_ != nullptr) rec_->refresh(0);
}

std::size_t BlockStore::remapped_blocks() const {
  return rec_ == nullptr ? 0 : rec_->remap.active();
}

std::size_t BlockStore::spares_used() const {
  return rec_ == nullptr ? 0 : rec_->remap.spares_used();
}

}  // namespace aem
