// Closed-loop timing window shared by every timed phase of bench_gcx.
//
// One helper owns the time-boxed loop and the quantile logic so the
// end-to-end window, the untraced ladder and the traced pass all measure
// the same way: every sample is kept with the time it was taken (no
// min-of-N), and the caller reads p50, p90 and n from the full sample set.
//
// Block quantiles: on a shared machine, other tenants slow this process
// down for seconds at a time and shift its speed over tens of seconds. A
// quantile over the whole window moves with the share of the window such
// episodes happen to cover. Cutting the window into equal time blocks,
// dividing each block's quantile by a reference kernel's median in the same
// block, and taking a low quantile across blocks does not, as long as
// enough blocks are undisturbed.

#ifndef BENCH_GCX_SAMPLE_WINDOW_H_
#define BENCH_GCX_SAMPLE_WINDOW_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace gcx::bench {

class SampleWindow {
 public:
  using Clock = std::chrono::steady_clock;

  /// Keeps calling `step` until `seconds` have elapsed and at least
  /// `min_samples` calls were made. The next call starts only when the
  /// previous one returned (one client, closed loop). `step` returns the
  /// value to record for its call, typically its own wall time in
  /// milliseconds.
  template <typename Step>
  void Run(double seconds, size_t min_samples, Step&& step) {
    const Clock::time_point start = Clock::now();
    for (size_t calls = 1;; ++calls) {
      Add(step());
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (calls >= min_samples && elapsed >= seconds) break;
    }
  }

  /// Records one sample, stamped with the current time.
  void Add(double value) {
    const double t =
        std::chrono::duration<double>(Clock::now().time_since_epoch())
            .count();
    samples_.push_back({t, value});
  }

  size_t n() const { return samples_.size(); }

  /// The `q`-quantile (0 ≤ q ≤ 1) of all samples; 0 when there are none.
  double Quantile(double q) const {
    std::vector<double> values;
    for (const Sample& s : samples_) values.push_back(s.value);
    return QuantileOf(std::move(values), q);
  }
  double p50() const { return Quantile(0.5); }
  double p90() const { return Quantile(0.9); }

  /// The `across`-quantile, over `blocks` equal time slices of this
  /// window's sampled span, of each slice's `q`-quantile. With a
  /// `reference` window sampled alongside, each slice's quantile is first
  /// divided by the median of the reference samples taken in the same
  /// slice. Slices without samples are ignored.
  double BlockQuantile(double q, int blocks, double across,
                       const SampleWindow* reference = nullptr) const {
    if (samples_.empty()) return 0;
    const double first = samples_.front().t;
    const double span = samples_.back().t - first;
    const size_t last = static_cast<size_t>(blocks - 1);
    auto slice_of = [&](double t) {
      const double pos = span > 0 ? (t - first) / span * blocks : 0;
      return std::min(static_cast<size_t>(std::max(pos, 0.0)), last);
    };
    std::vector<std::vector<double>> slices(last + 1), ref_slices(last + 1);
    for (const Sample& s : samples_) {
      slices[slice_of(s.t)].push_back(s.value);
    }
    if (reference != nullptr) {
      for (const Sample& s : reference->samples_) {
        ref_slices[slice_of(s.t)].push_back(s.value);
      }
    }
    std::vector<double> per_slice;
    for (size_t i = 0; i <= last; ++i) {
      if (slices[i].empty()) continue;
      double value = QuantileOf(std::move(slices[i]), q);
      if (reference != nullptr) {
        if (ref_slices[i].empty()) continue;
        value /= QuantileOf(std::move(ref_slices[i]), 0.5);
      }
      per_slice.push_back(value);
    }
    return QuantileOf(std::move(per_slice), across);
  }

  /// The `q`-quantile of `values` by linear interpolation between order
  /// statistics; 0 when empty.
  static double QuantileOf(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  }

 private:
  struct Sample {
    double t;  ///< steady_clock time in seconds, shared by all windows
    double value;
  };
  std::vector<Sample> samples_;
};

}  // namespace gcx::bench

#endif  // BENCH_GCX_SAMPLE_WINDOW_H_
