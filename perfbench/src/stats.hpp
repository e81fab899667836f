// Order statistics for benchmark timings.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile and the number of samples behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. {0, 0} on an empty input.
inline Percentile percentile(std::vector<double> xs, double p) {
  Percentile r;
  r.samples = xs.size();
  if (xs.empty()) return r;
  // p * n first: p / 100 * n rounds 0.9 * 100 up past 90 on some inputs.
  const double exact = p * static_cast<double>(xs.size()) / 100.0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1),
                   xs.end());
  r.value = xs[rank - 1];
  return r;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50).value;
}

/// Regularised incomplete beta function I_x(a, b), a, b > 0, by its
/// continued fraction (modified Lentz).
inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // The fraction converges fast only below the mean; use the symmetry
  // I_x(a, b) = 1 - I_{1-x}(b, a) above it.
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - incomplete_beta(b, a, 1.0 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i <= 400; ++i) {
    const double m = i / 2;
    double num = 1.0;
    if (i > 0 && i % 2 == 0) {
      num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    } else if (i > 0) {
      num = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    }
    d = 1.0 + num * d;
    d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    f *= c * d;
    if (std::fabs(1.0 - c * d) < 1e-14) break;
  }
  return front * (f - 1.0);
}

/// Harrell-Davis quantile estimate, p in (0, 100): a weighted mean of all
/// order statistics, with Beta((n+1)p, (n+1)(1-p)) weights. Where a
/// nearest-rank percentile jumps with whichever sample lands at its rank,
/// this one moves smoothly, so it varies less between samples drawn from
/// the same distribution. {0, 0} on an empty input.
inline Percentile hd_quantile(std::vector<double> xs, double p) {
  Percentile r;
  r.samples = xs.size();
  if (xs.empty()) return r;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const double q = std::clamp(p / 100.0, 1e-9, 1.0 - 1e-9);
  const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
  double below = 0.0;  // I_{i/n}(a, b) at the previous i
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    r.value += (upto - below) * xs[i];
    below = upto;
  }
  return r;
}

}  // namespace perfbench
