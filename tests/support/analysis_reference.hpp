#pragma once
// Plain-loop anchors of the analysis-plane kernels, kept beside the tests
// that compare the production kernels against them.

#include <cstddef>
#include <vector>

#include "sca/segmentation.hpp"

namespace reveal::sca {

/// The pre-hardening smoothing kernel: a plain (uncompensated) sliding
/// accumulator. The drift regression tests compare sca::smooth against it.
[[nodiscard]] std::vector<double> smooth_reference(const std::vector<double>& samples,
                                                   std::size_t window);

/// segment_trace as its definition reads: smooth() the trace, then scan
/// the smoothed samples for maximal runs strictly above the threshold and
/// keep those of at least min_burst_length samples. sca::segment_trace
/// fuses the smoothing and the scan into one pass.
[[nodiscard]] std::vector<Segment> segment_trace_reference(const std::vector<double>& samples,
                                                           const SegmentationConfig& config);

/// The full-sort automatic threshold: sca::auto_threshold selects the same
/// two order statistics with nth_element and must return the same double.
[[nodiscard]] double auto_threshold_reference(const std::vector<double>& samples);

}  // namespace reveal::sca

namespace reveal::num {

/// The O(n_a * n_b) time-domain evaluation of num::cross_correlation — the
/// differential anchor for its FFT path.
[[nodiscard]] std::vector<double> cross_correlation_reference(
    const std::vector<double>& a, const std::vector<double>& b);

}  // namespace reveal::num
