#pragma once
// Plain-loop anchors of two analysis-plane kernels, kept beside the tests
// that compare the production kernels against them.

#include <cstddef>
#include <vector>

namespace reveal::sca {

/// The pre-hardening smoothing kernel: a plain (uncompensated) sliding
/// accumulator. The drift regression tests compare sca::smooth against it.
[[nodiscard]] std::vector<double> smooth_reference(const std::vector<double>& samples,
                                                   std::size_t window);

}  // namespace reveal::sca

namespace reveal::num {

/// The O(n_a * n_b) time-domain evaluation of num::cross_correlation — the
/// differential anchor for its FFT path.
[[nodiscard]] std::vector<double> cross_correlation_reference(
    const std::vector<double>& a, const std::vector<double>& b);

}  // namespace reveal::num
