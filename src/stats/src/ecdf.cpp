#include "orion/stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace orion::stats {

Ecdf::Ecdf(std::vector<std::uint64_t> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void Ecdf::add(std::uint64_t sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Ecdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Ecdf::at(std::uint64_t x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::uint64_t Ecdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Ecdf::quantile on empty ECDF");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("Ecdf::quantile: q out of range");
  // Smallest index i with (i + 1) / n >= q  =>  i = ceil(q * n) - 1.
  std::size_t index = 0;
  if (q > 0.0) {
    const auto n = static_cast<double>(samples_.size());
    index = static_cast<std::size_t>(std::ceil(q * n));
    if (index > 0) --index;
    if (index >= samples_.size()) index = samples_.size() - 1;
  }
  if (sorted_) return samples_[index];
  // Unsorted: select the order statistic in O(n) instead of sorting — the
  // detector reads one threshold from a million-sample ECDF. nth_element
  // only permutes the samples, so later sorted reads are unaffected.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(samples_.begin(), nth, samples_.end());
  return *nth;
}

std::uint64_t Ecdf::min() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::min on empty ECDF");
  ensure_sorted();
  return samples_.front();
}

std::uint64_t Ecdf::max() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::max on empty ECDF");
  ensure_sorted();
  return samples_.back();
}

double Ecdf::mean() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::mean on empty ECDF");
  const auto sum = std::accumulate(samples_.begin(), samples_.end(),
                                   static_cast<long double>(0));
  return static_cast<double>(sum / static_cast<long double>(samples_.size()));
}

const std::vector<std::uint64_t>& Ecdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

double ks_distance(const Ecdf& a, const Ecdf& b) {
  const auto& xs = a.sorted_samples();
  const auto& ys = b.sorted_samples();
  if (xs.empty() || ys.empty()) {
    throw std::logic_error("ks_distance: empty distribution");
  }
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(ys.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < xs.size() && j < ys.size()) {
    const std::uint64_t v = std::min(xs[i], ys[j]);
    while (i < xs.size() && xs[i] == v) ++i;
    while (j < ys.size() && ys[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / nx -
                             static_cast<double>(j) / ny));
  }
  return d;
}

}  // namespace orion::stats
