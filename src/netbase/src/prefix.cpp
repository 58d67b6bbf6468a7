#include "orion/netbase/prefix.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace orion::net {

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view len_text = text.substr(slash + 1);
  int length = -1;
  auto [ptr, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || ptr != len_text.data() + len_text.size()) return std::nullopt;
  if (length < 0 || length > 32) return std::nullopt;
  return Prefix(*addr, length);
}

std::string Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

PrefixSet::PrefixSet(std::vector<Prefix> prefixes) {
  for (const Prefix& p : prefixes) add(p);
}

void PrefixSet::add(Prefix p) {
  const auto it = std::lower_bound(
      prefixes_.begin(), prefixes_.end(), p,
      [](const Prefix& a, const Prefix& b) { return a.base() < b.base(); });
  if (it != prefixes_.end() && (it->contains(p) || p.contains(*it))) {
    throw std::invalid_argument("PrefixSet: overlapping prefix " + p.to_string());
  }
  if (it != prefixes_.begin()) {
    const Prefix& prev = *std::prev(it);
    if (prev.contains(p) || p.contains(prev)) {
      throw std::invalid_argument("PrefixSet: overlapping prefix " + p.to_string());
    }
  }
  prefixes_.insert(it, p);
  // Rebuild the offset index; sets are built once at scenario setup, so the
  // O(n) rebuild per add is irrelevant.
  cum_sizes_.resize(prefixes_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    cum_sizes_[i] = running;
    running += prefixes_[i].size();
  }
  total_addresses_ = running;
}

std::size_t PrefixSet::locate(Ipv4Address a) const {
  const auto it = std::upper_bound(
      prefixes_.begin(), prefixes_.end(), a,
      [](Ipv4Address addr, const Prefix& p) { return addr < p.base(); });
  if (it == prefixes_.begin() || !std::prev(it)->contains(a)) {
    return prefixes_.size();
  }
  return static_cast<std::size_t>(it - prefixes_.begin()) - 1;
}

bool PrefixSet::contains(Ipv4Address a) const {
  return locate(a) < prefixes_.size();
}

std::optional<Prefix> PrefixSet::find(Ipv4Address a) const {
  const std::size_t index = locate(a);
  if (index == prefixes_.size()) return std::nullopt;
  return prefixes_[index];
}

std::optional<std::uint64_t> PrefixSet::lookup_offset(Ipv4Address a) const {
  const std::size_t index = locate(a);
  if (index == prefixes_.size()) return std::nullopt;
  return cum_sizes_[index] + prefixes_[index].offset_of(a);
}

void PrefixSet::contains_batch(const std::uint32_t* addrs, std::size_t n,
                               std::uint8_t* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = contains(Ipv4Address(addrs[i])) ? 1 : 0;
  }
}

std::uint64_t PrefixSet::total_slash24s() const {
  std::uint64_t n = 0;
  for (const Prefix& p : prefixes_) n += p.slash24_count();
  return n;
}

Ipv4Address PrefixSet::address_at(std::uint64_t offset) const {
  if (offset >= total_addresses_) {
    throw std::out_of_range("PrefixSet::address_at: offset beyond set size");
  }
  const auto it = std::upper_bound(cum_sizes_.begin(), cum_sizes_.end(), offset);
  const std::size_t index = static_cast<std::size_t>(it - cum_sizes_.begin()) - 1;
  return prefixes_[index].at(offset - cum_sizes_[index]);
}

std::uint64_t PrefixSet::offset_of(Ipv4Address a) const {
  const std::optional<std::uint64_t> offset = lookup_offset(a);
  if (!offset) {
    throw std::out_of_range("PrefixSet::offset_of: address not in set");
  }
  return *offset;
}

}  // namespace orion::net
