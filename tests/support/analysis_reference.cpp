#include "analysis_reference.hpp"

#include <algorithm>
#include <cstddef>
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
