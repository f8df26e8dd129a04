#include "analysis_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace reveal::sca {

std::vector<double> smooth_reference(const std::vector<double>& samples,
                                     std::size_t window) {
  if (window == 0) throw std::invalid_argument("smooth: window must be >= 1");
  if (window == 1) return samples;
  std::vector<double> out(samples.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    acc += samples[i];
    if (i >= window) acc -= samples[i - window];
    out[i] = acc / static_cast<double>(std::min(i + 1, window));
  }
  return out;
}

std::vector<Segment> segment_trace_reference(const std::vector<double>& samples,
                                             const SegmentationConfig& config) {
  if (samples.empty()) return {};
  const std::vector<double> s = smooth(samples, config.smooth_window);
  const double threshold = config.threshold > 0.0 ? config.threshold : auto_threshold(s);
  std::vector<Segment> segments;
  std::size_t run_start = 0;
  bool in_run = false;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    const bool above = i < s.size() && s[i] > threshold;
    if (above && !in_run) {
      run_start = i;
      in_run = true;
    } else if (!above && in_run) {
      in_run = false;
      if (i - run_start < config.min_burst_length) continue;
      if (!segments.empty()) segments.back().window_end = run_start;
      segments.push_back({run_start, i, i, s.size()});
    }
  }
  return segments;
}

double auto_threshold_reference(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("auto_threshold: empty trace");
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted[sorted.size() * 20 / 100];
  const double hi = sorted[std::min(sorted.size() - 1, sorted.size() * 95 / 100)];
  if (hi - lo < 1e-9 * std::max(1.0, std::abs(hi)))
    return std::numeric_limits<double>::infinity();
  return 0.5 * (lo + hi);
}

}  // namespace reveal::sca

namespace reveal::num {

std::vector<double> cross_correlation_reference(const std::vector<double>& a,
                                                const std::vector<double>& b) {
  if (a.empty() || b.empty())
    throw std::invalid_argument("cross_correlation: empty input");
  const auto a_n = static_cast<std::ptrdiff_t>(a.size());
  const auto b_n = static_cast<std::ptrdiff_t>(b.size());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::ptrdiff_t d = -(a_n - 1); d < b_n; ++d) {
    const std::ptrdiff_t begin = std::max<std::ptrdiff_t>(0, -d);
    const std::ptrdiff_t end = std::min(a_n, b_n - d);
    double acc = 0.0;
    for (std::ptrdiff_t i = begin; i < end; ++i) {
      acc += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i + d)];
    }
    out[static_cast<std::size_t>(d + a_n - 1)] = acc;
  }
  return out;
}

}  // namespace reveal::num
