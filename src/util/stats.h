// Streaming statistics helpers used by the metrics layer and benches.
#pragma once

#include <cstddef>

namespace mcio::util {

/// Welford streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stdev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }
  /// Coefficient of variation (stdev / mean); 0 when mean is 0.
  double cv() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace mcio::util
