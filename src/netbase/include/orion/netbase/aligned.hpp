// Cache-line-aligned allocation for SoA batch columns.
//
// Batch loops stream down the PacketBatch / FlowBatch columns, and the
// compiler may vectorize them; starting every column on a 64-byte
// boundary keeps those loads from straddling cache lines and makes the
// alignment testable (the allocator is a type-level property, so a column
// that silently lost its alignment fails to compile, not just to vectorize).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace orion::net {

/// Column alignment used by every SoA arena in the tree. One cache line:
/// enough for any AVX2/NEON load and for avoiding false sharing between
/// adjacent columns.
inline constexpr std::size_t kColumnAlignment = 64;

/// Minimal std::allocator drop-in that over-aligns every allocation.
/// Stateless — all instances compare equal, so container moves/swaps keep
/// their O(1) guarantees.
template <typename T, std::size_t Alignment = kColumnAlignment>
class AlignedAllocator {
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of 2");

 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// The column vector type: std::vector semantics, 64-byte-aligned storage.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace orion::net
