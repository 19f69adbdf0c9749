//===- support/Arena.h - Bump allocation for search scratch -----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotonic bump arena for the chain-search engine's scratch data: the
/// per-obligation availability count arrays, the per-depth candidate
/// buffers, and any AdtState undo payload too large for the inline
/// UndoToken fields (the overflow-token contract of adt/Adt.h). The search
/// allocates these once per trace instead of once per node (the seed
/// checkers rebuilt a Multiset per node), and a CheckSession rewinds the
/// arena between traces so a corpus run performs a bounded number of real
/// heap allocations no matter how many traces it checks.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_ARENA_H
#define SLIN_SUPPORT_ARENA_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace slin {

/// A monotonic allocator: allocation bumps a pointer through the last of a
/// chain of blocks; reset() rewinds to empty while keeping the reserved
/// bytes for reuse. Only trivially-destructible payloads may be placed in
/// the arena — reset() runs no destructors.
///
/// Blocks are sized by demand: the first is FirstBlockBytes (capped at
/// BlockBytes), each later one doubles its predecessor up to BlockBytes, and
/// an allocation larger than that gets a dedicated block of its own size. A
/// search that needs a few hundred bytes of scratch therefore reserves 4 KiB,
/// not BlockBytes. Blocks are handed out uninitialized; allocZeroed() zeroes
/// what it returns.
///
/// A reset() after a pass that spilled past its first block replaces the
/// blocks with one block of reservedBytes(). Every later pass whose demand
/// (each allocation's bytes plus its alignment) is no larger than any
/// earlier pass's then fits that block in whatever order it allocates, so
/// reservedBytes() stays flat once the high-water demand has been seen.
class Arena {
public:
  static constexpr std::size_t FirstBlockBytes = 1u << 12;

  explicit Arena(std::size_t BlockBytes = 1u << 16) : BlockBytes(BlockBytes) {}

  /// Allocates \p Bytes with the given power-of-two alignment.
  void *allocate(std::size_t Bytes,
                 std::size_t Align = alignof(std::max_align_t)) {
    if (Blocks.empty() || Offset + Bytes + Align > LastBlockBytes)
      grow(Bytes + Align);
    std::uintptr_t P =
        reinterpret_cast<std::uintptr_t>(Blocks.back().get() + Offset);
    std::uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    Offset += (Aligned - P) + Bytes;
    Allocated += Bytes;
    if (Allocated > HighWater)
      HighWater = Allocated;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Allocates an uninitialized array of \p N elements of \p T.
  template <typename T> T *allocArray(std::size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Allocates an array of \p N elements of \p T, zero-filled.
  template <typename T> T *allocZeroed(std::size_t N) {
    T *P = allocArray<T>(N);
    for (std::size_t I = 0; I != N; ++I)
      P[I] = T{};
    return P;
  }

  /// Rewinds the arena to empty, retaining the reserved bytes; a pass that
  /// used more than one block has them merged into one.
  void reset() {
    if (Blocks.size() > 1) {
      Blocks.clear();
      Blocks.push_back(std::make_unique_for_overwrite<std::byte[]>(Reserved));
      LastBlockBytes = Reserved;
    }
    Offset = 0;
    Allocated = 0;
  }

  /// Bytes handed out since the last reset (excluding alignment padding).
  std::size_t bytesAllocated() const { return Allocated; }

  /// Largest bytesAllocated() ever observed; survives reset(). The
  /// steady-state allocation audit asserts this stops moving once a
  /// monitor has reached its high-water scratch demand.
  std::size_t highWaterBytes() const { return HighWater; }

  /// Total bytes reserved from the heap across all retained blocks. Flat
  /// in steady state: growth here is a real heap allocation on the event
  /// path (and sets up one more, the merge at the next reset()).
  std::size_t reservedBytes() const { return Reserved; }

  /// Number of retained blocks: at most one after reset().
  std::size_t blockCount() const { return Blocks.size(); }

private:
  /// Appends a fresh block with at least \p AtLeast bytes to bump into.
  void grow(std::size_t AtLeast) {
    std::size_t Step = std::min(
        Blocks.empty() ? FirstBlockBytes : 2 * LastBlockBytes, BlockBytes);
    LastBlockBytes = std::max(Step, AtLeast);
    Blocks.push_back(
        std::make_unique_for_overwrite<std::byte[]>(LastBlockBytes));
    Reserved += LastBlockBytes;
    Offset = 0;
  }

  std::size_t BlockBytes;
  std::vector<std::unique_ptr<std::byte[]>> Blocks;
  std::size_t LastBlockBytes = 0; ///< Capacity of Blocks.back().
  std::size_t Offset = 0; ///< Bump offset within Blocks.back().
  std::size_t Allocated = 0;
  std::size_t HighWater = 0; ///< Max Allocated ever (survives reset()).
  std::size_t Reserved = 0;  ///< Sum of retained block capacities.
};

} // namespace slin

#endif // SLIN_SUPPORT_ARENA_H
