// CIDR prefixes and an interval-based longest-prefix lookup set.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "orion/netbase/ipv4.hpp"

namespace orion::net {

/// A CIDR prefix ("198.51.100.0/24"). Host bits are always kept zeroed so
/// that equal prefixes compare equal regardless of how they were written.
class Prefix {
 public:
  constexpr Prefix() = default;
  constexpr Prefix(Ipv4Address base, int length)
      : base_(Ipv4Address(base.value() & mask_for(length))),
        length_(static_cast<std::uint8_t>(length)) {}

  static std::optional<Prefix> parse(std::string_view text);

  constexpr Ipv4Address base() const { return base_; }
  constexpr int length() const { return length_; }

  /// Number of addresses covered (2^(32-length)); a /0 covers 2^32 which
  /// does not fit in 32 bits, hence the 64-bit return type.
  constexpr std::uint64_t size() const { return std::uint64_t{1} << (32 - length_); }

  constexpr Ipv4Address first() const { return base_; }
  constexpr Ipv4Address last() const {
    return Ipv4Address(base_.value() | ~mask_for(length_));
  }

  constexpr bool contains(Ipv4Address a) const {
    return (a.value() & mask_for(length_)) == base_.value();
  }
  constexpr bool contains(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.base_);
  }

  /// Address at the given zero-based offset within the prefix.
  constexpr Ipv4Address at(std::uint64_t offset) const {
    return Ipv4Address(base_.value() + static_cast<std::uint32_t>(offset));
  }
  /// Offset of an address inside this prefix; caller must check contains().
  constexpr std::uint64_t offset_of(Ipv4Address a) const {
    return a.value() - base_.value();
  }

  /// Number of /24 networks covered (1 for prefixes longer than /24).
  constexpr std::uint64_t slash24_count() const {
    return length_ >= 24 ? 1 : (std::uint64_t{1} << (24 - length_));
  }

  std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  constexpr static std::uint32_t mask_for(int length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }

  Ipv4Address base_;
  std::uint8_t length_ = 32;
};

/// A set of disjoint prefixes supporting O(log n) membership tests and
/// address-offset mapping across the union. Used for monitored address
/// spaces (ISP footprints, darknets, honeypot sensors).
class PrefixSet {
 public:
  PrefixSet() = default;
  explicit PrefixSet(std::vector<Prefix> prefixes);

  /// Adds a prefix; throws std::invalid_argument if it overlaps an
  /// existing member (monitored spaces must be disjoint).
  void add(Prefix p);

  bool contains(Ipv4Address a) const;
  /// The member prefix containing `a`, if any.
  std::optional<Prefix> find(Ipv4Address a) const;
  /// offset_of(a) when `a` is in the set, else nullopt: membership and
  /// offset from one binary search.
  std::optional<std::uint64_t> lookup_offset(Ipv4Address a) const;

  /// Batched membership: out[i] = contains(Ipv4Address(addrs[i])) as 0/1
  /// bytes.
  void contains_batch(const std::uint32_t* addrs, std::size_t n,
                      std::uint8_t* out) const;

  /// Total number of addresses across all member prefixes.
  std::uint64_t total_addresses() const { return total_addresses_; }
  /// Total number of /24s across all member prefixes.
  std::uint64_t total_slash24s() const;

  /// Maps a global offset in [0, total_addresses()) to a concrete address,
  /// treating the set as one concatenated address range. This is how
  /// generators pick uniform targets inside a monitored space.
  Ipv4Address address_at(std::uint64_t offset) const;
  /// Inverse of address_at(); throws std::out_of_range when `a` is not
  /// in the set.
  std::uint64_t offset_of(Ipv4Address a) const;

  const std::vector<Prefix>& prefixes() const { return prefixes_; }
  bool empty() const { return prefixes_.empty(); }

 private:
  /// Index of the member prefix containing `a`, else prefixes_.size().
  std::size_t locate(Ipv4Address a) const;

  std::vector<Prefix> prefixes_;              // sorted by base address
  std::vector<std::uint64_t> cum_sizes_;      // exclusive prefix sums
  std::uint64_t total_addresses_ = 0;
};

}  // namespace orion::net
