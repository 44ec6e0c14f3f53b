// The benchmark's own pseudo-random generator (SplitMix64).
//
// Deliberately independent of the library's generators: a change to the
// program must never change the traffic the benchmark sends it. Every input
// is a pure function of the run's --seed and a stream tag, so the final
// verifier can regenerate any event from its index alone.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(mix(seed ^ mix(stream + 0x9e3779b97f4a7c15ULL))) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(state_);
  }

  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  bool chance(double p) { return unit() < p; }

  /// Exponential with the given mean.
  double exponential(double mean) { return -mean * std::log1p(-unit()); }

  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over {1, ..., n} by inverse CDF.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[k - 1] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint32_t draw(Rng& rng) const {
    const double u = rng.unit();
    std::uint32_t lo = 0;
    std::uint32_t hi = static_cast<std::uint32_t>(cdf_.size()) - 1;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo + 1;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
