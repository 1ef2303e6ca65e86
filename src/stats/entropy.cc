#include "stats/entropy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace blaeu::stats {

namespace {

double EntropyFromCounts(const std::unordered_map<int64_t, size_t>& counts,
                         size_t n) {
  if (n == 0) return 0.0;
  double h = 0.0;
  const double dn = static_cast<double>(n);
  for (const auto& [_, c] : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / dn;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double Entropy(const std::vector<int>& labels) {
  std::unordered_map<int64_t, size_t> counts;
  for (int l : labels) ++counts[l];
  return EntropyFromCounts(counts, labels.size());
}

double JointEntropy(const std::vector<int>& xs, const std::vector<int>& ys) {
  assert(xs.size() == ys.size());
  std::unordered_map<int64_t, size_t> counts;
  for (size_t i = 0; i < xs.size(); ++i) {
    // Shift in the unsigned domain: left-shifting a negative signed value
    // is UB (pre-C++20), and label ids can be negative sentinels.
    uint64_t packed = (static_cast<uint64_t>(static_cast<uint32_t>(xs[i]))
                       << 32) |
                      static_cast<uint64_t>(static_cast<uint32_t>(ys[i]));
    int64_t key = static_cast<int64_t>(packed);
    ++counts[key];
  }
  return EntropyFromCounts(counts, xs.size());
}

double MutualInformation(const std::vector<int>& xs,
                         const std::vector<int>& ys) {
  double mi = Entropy(xs) + Entropy(ys) - JointEntropy(xs, ys);
  return mi > 0.0 ? mi : 0.0;
}

double NormalizedMutualInformation(const std::vector<int>& xs,
                                   const std::vector<int>& ys) {
  double hx = Entropy(xs);
  double hy = Entropy(ys);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double mi = MutualInformation(xs, ys);
  double nmi = mi / std::sqrt(hx * hy);
  return std::clamp(nmi, 0.0, 1.0);
}

namespace {

size_t SupportSize(const std::vector<int>& labels) {
  std::unordered_map<int64_t, size_t> counts;
  for (int l : labels) ++counts[l];
  return counts.size();
}

}  // namespace

double MutualInformationMM(const std::vector<int>& xs,
                           const std::vector<int>& ys) {
  const size_t n = xs.size();
  if (n == 0) return 0.0;
  double mi = MutualInformation(xs, ys);
  double kx = static_cast<double>(SupportSize(xs));
  double ky = static_cast<double>(SupportSize(ys));
  // Miller-Madow: E[MI_plugin | independence] ~ (kx-1)(ky-1) / (2n).
  double bias = (kx - 1.0) * (ky - 1.0) / (2.0 * static_cast<double>(n));
  double corrected = mi - bias;
  return corrected > 0.0 ? corrected : 0.0;
}

double NormalizedMutualInformationMM(const std::vector<int>& xs,
                                     const std::vector<int>& ys) {
  double hx = Entropy(xs);
  double hy = Entropy(ys);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double nmi = MutualInformationMM(xs, ys) / std::sqrt(hx * hy);
  return std::clamp(nmi, 0.0, 1.0);
}

}  // namespace blaeu::stats
