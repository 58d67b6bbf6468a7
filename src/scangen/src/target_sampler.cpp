#include "orion/scangen/target_sampler.hpp"

#include <numeric>
#include <stdexcept>

#include "orion/netbase/flat_map.hpp"

namespace orion::scangen {

std::vector<std::uint64_t> sample_distinct_offsets(std::uint64_t n,
                                                   std::uint64_t k,
                                                   net::Rng& rng) {
  if (k > n) throw std::invalid_argument("sample_distinct_offsets: k > n");
  std::vector<std::uint64_t> out;
  out.reserve(k);
  if (k == 0) return out;

  if (k * 4 >= n) {
    // Dense draw: partial Fisher–Yates over the full index range.
    std::vector<std::uint64_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0);
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t j = i + rng.bounded(n - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }

  // Sparse draw: Floyd's algorithm — k iterations, no O(n) setup. The
  // membership test only answers "drawn before?", so the output is the
  // same whichever set holds it: a bitset over [0, n) while its n/64
  // words are no more than a flat set of k entries would take (~8k
  // words), as for port sweeps of 65535 ports, else a flat hash set.
  const auto floyd = [&](auto&& insert) {
    for (std::uint64_t j = n - k; j < n; ++j) {
      const std::uint64_t candidate = rng.bounded(j + 1);
      if (insert(candidate)) {
        out.push_back(candidate);
      } else {
        insert(j);
        out.push_back(j);
      }
    }
  };
  if (n / 64 <= k * 8) {
    std::vector<std::uint64_t> bits((n + 63) / 64, 0);
    floyd([&](std::uint64_t v) {
      const std::uint64_t mask = std::uint64_t{1} << (v % 64);
      const bool fresh = (bits[v / 64] & mask) == 0;
      bits[v / 64] |= mask;
      return fresh;
    });
  } else {
    net::FlatMap<std::uint64_t, bool> chosen;
    chosen.reserve(static_cast<std::size_t>(k) * 2);
    floyd([&](std::uint64_t v) { return chosen.try_emplace(v).second; });
  }
  // Floyd's output has positional bias (later slots skew high); shuffle so
  // probe order is uniform.
  for (std::uint64_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.bounded(i + 1)]);
  }
  return out;
}

}  // namespace orion::scangen
