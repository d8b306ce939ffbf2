// Typed external-memory arrays and internal-memory buffers.
//
// ExtArray<T> owns a region of external memory holding `size()` elements in
// blocks of B.  All access is by whole-block reads and writes, each charged
// to the owning Machine.  Host code can never touch the stored elements
// except through these charged transfers — that discipline is what makes the
// machine's counters a faithful implementation of the AEM cost measure.
// ExtArray<T> is a typed handle: the bytes, the block cache and the fault
// recovery live in its untyped BlockStore (core/block_store.hpp).
//
// Buffer<T> is the internal-memory counterpart: an RAII allocation
// registered with the machine's MemoryLedger, so the ledger's high-water
// mark bounds the algorithm's true internal-memory footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/block_store.hpp"
#include "core/machine.hpp"

namespace aem {

template <class T>
class ExtArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "ExtArray elements move by memcpy: T must be trivially "
                "copyable");

 public:
  /// An empty, machine-less array (useful as a moved-from placeholder).
  /// Any block operation on it throws std::logic_error.
  ExtArray() = default;

  /// Allocates external storage for `elems` elements.  Allocation itself is
  /// free in the model (external memory is unbounded); only transfers cost.
  ExtArray(Machine& mach, std::size_t elems, std::string name)
      : s_(std::make_unique<Store>(mach, elems, std::move(name))) {}

  /// Moved-from arrays become machine-less placeholders (operations throw
  /// std::logic_error); the store moves by pointer, so its pending cache
  /// write-backs keep working.  Overwriting or destroying an array drops its
  /// dirty cached blocks uncharged (BlockStore::~BlockStore): flush first if
  /// full Q accounting matters.  Arrays must not outlive their machine.
  ExtArray(ExtArray&&) noexcept = default;
  ExtArray& operator=(ExtArray&&) noexcept = default;
  ~ExtArray() = default;

  std::size_t size() const { return s_ ? s_->data.size() : 0; }
  bool empty() const { return size() == 0; }
  std::size_t blocks() const { return s_ ? s_->blocks() : 0; }
  std::uint32_t id() const { return s_ ? s_->id() : 0; }
  Machine& machine() const { return store().machine(); }

  /// Number of elements in block `bi` (the last block may be partial).
  std::size_t block_elems(std::uint64_t bi) const {
    return store().block_elems(bi);
  }

  /// Reads block `bi` into `dst` (which must hold >= block_elems(bi)
  /// elements).  Charges one read I/O — plus, under fault injection, one
  /// read per checksum-triggered retry.  A block-cache hit charges nothing;
  /// a miss is adopted into the pool after its device read.
  BlockIo read_block(std::uint64_t bi, std::span<T> dst) const {
    return store().read_block(bi, reinterpret_cast<std::byte*>(dst.data()),
                              dst.size());
  }

  /// Overwrites block `bi` with `src` (which must hold exactly
  /// block_elems(bi) elements).  Charges one write I/O (cost omega) — plus,
  /// under fault injection, omega per rewrite and one read per
  /// verify-after-write attempt.  With a block cache the write only dirties
  /// the resident block; the (single) device write is charged at eviction
  /// or flush, however many times the block was rewritten meanwhile.
  BlockIo write_block(std::uint64_t bi, std::span<const T> src) {
    return store().write_block(
        bi, reinterpret_cast<const std::byte*>(src.data()), src.size());
  }

  /// Grows the array to `elems` elements (new space default-initialized).
  /// Free in the model: this only reserves external address space.
  void grow_to(std::size_t elems) {
    Store& s = store();
    if (elems <= s.data.size()) return;
    s.data.resize(elems);
    s.resized(reinterpret_cast<std::byte*>(s.data.data()), elems);
  }

  /// Registers an atom-id extractor used to annotate traced writes
  /// (Lemma 4.3 machinery).  Pass nullptr to disable.
  void set_atom_extractor(std::function<std::uint64_t(const T&)> fn) {
    Store& s = store();
    s.atom_of = std::move(fn);
    s.set_atom_hook(s.atom_of ? &Store::atoms : nullptr);
  }

  bool has_atom_extractor() const { return s_ && s_->atom_of; }
  const std::function<std::uint64_t(const T&)>& atom_extractor() const {
    static const std::function<std::uint64_t(const T&)> kNone;
    return s_ ? s_->atom_of : kNone;
  }
  /// Atom id of a value under this array's extractor (which must be set).
  std::uint64_t atom_id(const T& v) const { return store().atom_of(v); }

  /// Debug/verification access to the raw contents.  NOT charged — only for
  /// test assertions and host-side conformation metadata, never inside a
  /// measured algorithm.  Under fault injection this is the *native* block
  /// region; remapped blocks live in the spare region, so measured reads
  /// remain the one honest access path.
  const std::vector<T>& unsafe_host_view() const {
    static const std::vector<T> kEmpty;
    return s_ ? s_->data : kEmpty;
  }

  /// Uncharged bulk initialization, used to stage problem inputs before a
  /// measured run begins (the input's presence in external memory is the
  /// problem statement, not part of the algorithm's cost).  Restaging drops
  /// any cached blocks of this array (uncharged — it replaces them).
  void unsafe_host_fill(std::span<const T> src) {
    if (src.size() != size())
      throw std::invalid_argument("unsafe_host_fill: size mismatch");
    if (s_) s_->host_fill(reinterpret_cast<const std::byte*>(src.data()));
  }

  // --- fault-injection observability --------------------------------------
  /// Logical blocks currently redirected to spares (0 when no faults).
  std::size_t remapped_blocks() const {
    return s_ ? s_->remapped_blocks() : 0;
  }
  std::size_t spares_used() const { return s_ ? s_->spares_used() : 0; }

 private:
  /// The store plus its typed state: the native region as a std::vector<T>
  /// (which unsafe_host_view() hands out) and the atom extractor behind the
  /// store's untyped atom hook.
  struct Store final : BlockStore {
    Store(Machine& mach, std::size_t elems, std::string name)
        : BlockStore(mach, std::move(name), sizeof(T),
                     std::has_unique_object_representations_v<T>),
          data(elems) {
      resized(reinterpret_cast<std::byte*>(data.data()), elems);
    }

    static void atoms(const BlockStore& store, const std::byte* src,
                      std::size_t count, std::uint64_t* out) {
      const auto& atom_of = static_cast<const Store&>(store).atom_of;
      for (std::size_t i = 0; i < count; ++i) {
        T v;
        std::memcpy(&v, src + i * sizeof(T), sizeof(T));
        out[i] = atom_of(v);
      }
    }

    std::vector<T> data;
    std::function<std::uint64_t(const T&)> atom_of;
  };

  Store& store() const {
    if (!s_)
      throw std::logic_error(
          "ExtArray: no machine attached (default-constructed or moved-from "
          "array)");
    return *s_;
  }

  std::unique_ptr<Store> s_;
};

/// An internal-memory allocation of `elems` elements, registered with the
/// machine's ledger for the buffer's lifetime.
template <class T>
class Buffer {
 public:
  Buffer() = default;

  Buffer(Machine& mach, std::size_t elems)
      : reservation_(mach.ledger(), elems), data_(elems) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;

  std::size_t size() const { return data_.size(); }
  std::span<T> span() { return std::span<T>(data_); }
  std::span<const T> span() const { return std::span<const T>(data_); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Resizes the buffer, adjusting the ledger registration.  On a
  /// default-constructed or moved-from buffer (no ledger) this is a
  /// programming error: the elements would evade the memory accounting.
  void resize(std::size_t elems) {
    if (!reservation_.attached() && elems != 0)
      throw std::logic_error(
          "Buffer: resize on a default-constructed or moved-from buffer "
          "(no ledger to account the allocation)");
    reservation_.resize(elems);
    data_.resize(elems);
  }

 private:
  MemoryReservation reservation_;
  std::vector<T> data_;
};

}  // namespace aem
