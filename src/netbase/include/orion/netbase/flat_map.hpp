// Open-addressing hash map for the per-packet hot paths.
//
// std::unordered_map pays a heap allocation per node and a pointer chase
// per probe; the aggregator's live-event table and similar per-source
// tables are hit once per packet, so they use this flat, linear-probing
// map instead: one contiguous slot array, Fibonacci-spread indexing (so
// identity-like hashes of sequential keys still scatter), and
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// A probe reads the slot array and nothing else. DESIGN.md §14.3 records
// why a SwissTable-style control-tag array, which costs a second cache
// line per probe, lost at paper scale.
//
// The API is the minimal surface those tables need — find / try_emplace /
// erase / for_each / erase_if — not a drop-in std::unordered_map.
// Iteration order is the slot order (arbitrary but deterministic for a
// given insertion/deletion history); callers that need a canonical order
// (checkpoints) sort keys themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace orion::net {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` elements without exceeding the maximum
  /// load factor (3/4).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Drops all elements but keeps the allocated table.
  void clear() {
    for (auto& slot : slots_) slot.reset();
    size_ = 0;
  }

  /// The raw Hash of a key, for the precomputed-hash entry points below.
  /// Batch consumers hash a whole batch of keys up front, prefetch() each
  /// home slot, then probe — by the time find_hashed() runs, the bucket
  /// line is already in flight.
  static std::size_t hash_of(const K& key) { return Hash{}(key); }

  /// Issues a software prefetch for the home slot of a key with
  /// precomputed hash `h`. No-op on an empty table or without builtins.
  void prefetch(std::size_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) __builtin_prefetch(&slots_[index_of_hash(h)], 0, 1);
#else
    (void)h;
#endif
  }

  V* find(const K& key) { return find_hashed(key, Hash{}(key)); }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// find() with the Hash{}(key) value already computed by the caller.
  V* find_hashed(const K& key, std::size_t h) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) return nullptr;
      if (slots_[i]->first == key) return &slots_[i]->second;
    }
  }
  const V* find_hashed(const K& key, std::size_t h) const {
    return const_cast<FlatMap*>(this)->find_hashed(key, h);
  }

  /// Current slot index of a key, or npos if absent. Only meaningful until
  /// the next mutation — erase's backward shift and rehash both move
  /// elements — but that transient index is exactly what erase_if-order
  /// emulation needs (see EventAggregator::batch_sweep).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t slot_index_hashed(const K& key, std::size_t h) const {
    if (slots_.empty()) return npos;
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) return npos;
      if (slots_[i]->first == key) return i;
    }
  }

  /// Inserts `key` with a value constructed from `args` unless present.
  /// Returns the value slot and whether an insertion happened. Pointers
  /// are invalidated by any later insertion (the table may grow).
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    return try_emplace_hashed(key, Hash{}(key), std::forward<Args>(args)...);
  }

  /// try_emplace() with the Hash{}(key) value already computed.
  template <typename... Args>
  std::pair<V*, bool> try_emplace_hashed(const K& key, std::size_t h,
                                         Args&&... args) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) {
        slots_[i].emplace(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
        ++size_;
        return {&slots_[i]->second, true};
      }
      if (slots_[i]->first == key) return {&slots_[i]->second, false};
    }
  }

  bool erase(const K& key) { return erase_hashed(key, Hash{}(key)); }

  /// erase() with the Hash{}(key) value already computed.
  bool erase_hashed(const K& key, std::size_t h) {
    const std::size_t i = slot_index_hashed(key, h);
    if (i == npos) return false;
    erase_slot(i);
    return true;
  }

  template <typename F>
  void for_each(F&& f) {
    for (auto& slot : slots_) {
      if (slot) f(slot->first, slot->second);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& slot : slots_) {
      if (slot) f(slot->first, slot->second);
    }
  }

  /// Removes every element for which `f(key, value)` returns true and
  /// returns how many were removed. Safe with backward-shift deletion: a
  /// slot refilled by a shifted element is re-examined before moving on.
  /// (An element the shift wraps to an already-visited slot is simply
  /// seen on the next sweep — callers' predicates must be idempotent.)
  template <typename F>
  std::size_t erase_if(F&& f) {
    std::size_t removed = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      while (slots_[i] && f(slots_[i]->first, slots_[i]->second)) {
        erase_slot(i);
        ++removed;
      }
    }
    return removed;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  using Slot = std::optional<std::pair<K, V>>;

  std::size_t index_of_hash(std::size_t h) const {
    // Fibonacci spreading tolerates weak (even identity) Hash.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, std::nullopt);
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (auto& slot : old) {
      if (!slot) continue;
      for (std::size_t i = index_of_hash(Hash{}(slot->first));; i = next(i)) {
        if (!slots_[i]) {
          slots_[i] = std::move(slot);
          ++size_;
          break;
        }
      }
    }
  }

  /// Backward-shift deletion: pulls displaced probe-chain members back
  /// over the hole so lookups never need tombstones.
  void erase_slot(std::size_t pos) {
    std::size_t hole = pos;
    for (std::size_t j = next(hole);; j = next(j)) {
      if (!slots_[j]) break;
      const std::size_t home = index_of_hash(Hash{}(slots_[j]->first));
      // j may move into the hole only if the hole lies on j's probe path.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].reset();
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace orion::net
