// Differential tests for the analysis-plane fast kernels: every optimized
// path (fused segmentation sweep, selection-based auto threshold, FFT
// alignment, flat-GSO LLL) is fuzzed against its retained *_reference
// implementation and must agree bit-for-bit. Also covers the
// compensated-smoothing drift bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis_reference.hpp"
#include "lattice_reference.hpp"
#include "core/acquisition.hpp"
#include "lattice/lattice.hpp"
#include "numeric/fft.hpp"
#include "numeric/rng.hpp"
#include "sca/alignment.hpp"
#include "sca/segmentation.hpp"
#include "sca/trace.hpp"

using namespace reveal;
using namespace reveal::sca;

namespace {

// ---------------------------------------------------------------------------
// numeric/fft

TEST(FftKernel, NextPow2) {
  EXPECT_EQ(num::Fft::next_pow2(0), 1u);
  EXPECT_EQ(num::Fft::next_pow2(1), 1u);
  EXPECT_EQ(num::Fft::next_pow2(2), 2u);
  EXPECT_EQ(num::Fft::next_pow2(3), 4u);
  EXPECT_EQ(num::Fft::next_pow2(1024), 1024u);
  EXPECT_EQ(num::Fft::next_pow2(1025), 2048u);
}

TEST(FftKernel, ForwardInverseRoundTrip) {
  const std::size_t n = 256;
  num::Xoshiro256StarStar rng(11);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
  const std::vector<std::complex<double>> original = data;
  const num::Fft fft(n);
  fft.forward(data.data());
  fft.inverse(data.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-11);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-11);
  }
}

TEST(FftKernel, MatchesDirectDft) {
  const std::size_t n = 16;
  num::Xoshiro256StarStar rng(12);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
  std::vector<std::complex<double>> direct(n, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * M_PI * static_cast<double>(j * k) / static_cast<double>(n);
      direct[k] += data[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
  }
  const num::Fft fft(n);
  fft.forward(data.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), direct[k].real(), 1e-10);
    EXPECT_NEAR(data[k].imag(), direct[k].imag(), 1e-10);
  }
}

TEST(FftKernel, CrossCorrelationMatchesReference) {
  num::Xoshiro256StarStar rng(13);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {17, 64}, {33, 100}, {128, 128}, {1, 40}};
  for (const auto& [na, nb] : shapes) {
    std::vector<double> a(na), b(nb);
    for (double& v : a) v = rng.gaussian(0.0, 2.0);
    for (double& v : b) v = rng.gaussian(0.0, 2.0);
    const std::vector<double> fast = num::cross_correlation(a, b);
    const std::vector<double> ref = num::cross_correlation_reference(a, b);
    ASSERT_EQ(fast.size(), ref.size());
    double scale = 1.0;
    for (const double v : ref) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-10 * scale) << "lag index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Segmentation sweep

std::vector<double> fuzz_burst_trace(num::Xoshiro256StarStar& rng, std::size_t* bursts) {
  std::vector<double> trace(1500);
  for (double& v : trace) v = 1.0 + rng.gaussian(0.0, 0.3);
  const std::size_t count = 3 + static_cast<std::size_t>(rng() % 5);
  std::size_t pos = 40;
  std::size_t placed = 0;
  for (std::size_t b = 0; b < count && pos + 60 < trace.size(); ++b) {
    const std::size_t len = 20 + rng() % 20;
    for (std::size_t i = pos; i < pos + len; ++i) trace[i] = 9.0 + rng.gaussian(0.0, 0.5);
    ++placed;
    pos += len + 80 + rng() % 120;
  }
  // Degradations: one mid-level interference burst and one dropout notch.
  const std::size_t glitch = 20 + rng() % (trace.size() - 60);
  for (std::size_t i = glitch; i < glitch + 12; ++i) trace[i] = 5.5;
  const std::size_t notch = 20 + rng() % (trace.size() - 40);
  for (std::size_t i = notch; i < notch + 6; ++i) trace[i] = 0.0;
  *bursts = placed;
  return trace;
}

void expect_segments_equal(const std::vector<Segment>& fast,
                           const std::vector<Segment>& ref) {
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].burst_begin, ref[i].burst_begin);
    EXPECT_EQ(fast[i].burst_end, ref[i].burst_end);
    EXPECT_EQ(fast[i].window_begin, ref[i].window_begin);
    EXPECT_EQ(fast[i].window_end, ref[i].window_end);
  }
}

void expect_sweep_results_equal(const SegmentationResult& fast,
                                const SegmentationResult& ref) {
  EXPECT_EQ(fast.status, ref.status);
  expect_segments_equal(fast.segments, ref.segments);
  EXPECT_EQ(fast.window_quality, ref.window_quality);  // bit-equal doubles
  EXPECT_EQ(fast.config.smooth_window, ref.config.smooth_window);
  EXPECT_EQ(fast.config.threshold, ref.config.threshold);
  EXPECT_EQ(fast.config.min_burst_length, ref.config.min_burst_length);
  EXPECT_EQ(fast.burst_consistency, ref.burst_consistency);
  EXPECT_LE(fast.attempts, ref.attempts);
}

TEST(SegmentTraceFastPath, FuzzMatchesSmoothThenScan) {
  // segment_trace's fused pass against smooth() + a strict `>` scan, on
  // every window the sweep grids use and on thresholds that the smoothed
  // samples meet exactly (quantized traces) or just miss.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    num::Xoshiro256StarStar rng(seed);
    std::size_t bursts = 0;
    std::vector<double> trace = fuzz_burst_trace(rng, &bursts);
    if (seed % 2 == 0) {
      for (double& v : trace) v = std::round(v * 4.0) / 4.0;
    }
    // Open and close on a burst: runs that meet the trace's ends.
    std::fill(trace.begin(), trace.begin() + 30, 9.0);
    std::fill(trace.end() - 30, trace.end(), 9.0);
    for (std::size_t window = 1; window <= 12; ++window) {
      for (const double threshold : {0.0, 5.0, std::nextafter(5.0, 0.0), 9.0, 1.0}) {
        SegmentationConfig cfg;
        cfg.smooth_window = window;
        cfg.threshold = threshold;
        cfg.min_burst_length = 1 + rng() % 20;
        SCOPED_TRACE("window " + std::to_string(window) + " threshold " +
                     std::to_string(threshold));
        expect_segments_equal(segment_trace(trace, cfg), segment_trace_reference(trace, cfg));
      }
    }
  }
}

TEST(SegmentationSweepFastPath, FuzzMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    num::Xoshiro256StarStar rng(seed);
    std::size_t bursts = 0;
    const std::vector<double> trace = fuzz_burst_trace(rng, &bursts);
    SegmentationConfig cfg;
    cfg.smooth_window = 3;
    cfg.threshold = seed % 3 == 0 ? 0.0 : 5.0;  // exercise auto and pinned
    cfg.min_burst_length = 16;
    for (const std::size_t expected :
         {bursts, bursts > 1 ? bursts - 1 : 1, bursts + 2}) {
      SCOPED_TRACE("expected " + std::to_string(expected));
      const SegmentationResult fast = segment_trace_robust(trace, expected, cfg);
      const SegmentationResult ref =
          segment_trace_robust_reference(trace, expected, cfg);
      expect_sweep_results_equal(fast, ref);
    }
  }
}

TEST(SegmentationSweepFastPath, AutoThresholdSweepMatchesReference) {
  // A flat trace makes auto_threshold degenerate (+inf): the reference
  // re-derives the auto threshold per candidate, collapsing all five
  // threshold scales; the fast path must reproduce that collapse.
  const std::vector<double> flat(600, 2.0);
  SegmentationConfig cfg;
  cfg.threshold = 0.0;
  const SegmentationResult fast = segment_trace_robust(flat, 4, cfg);
  const SegmentationResult ref = segment_trace_robust_reference(flat, 4, cfg);
  expect_sweep_results_equal(fast, ref);
  EXPECT_LT(fast.attempts, ref.attempts);
}

TEST(SegmentationSweepFastPath, DedupCountsDistinctSegmentationsOnly) {
  // smooth_window = 1 makes the sweep grid degenerate: its window variants
  // normalize to {1, 3, 1, 3}, so half the reference candidates are exact
  // duplicates. The fast path must evaluate each distinct (window,
  // threshold, min-burst) configuration exactly once and still select the
  // same result.
  std::vector<double> trace(400, 1.0);
  for (const std::size_t s : {50u, 170u, 300u}) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  SegmentationConfig cfg;
  cfg.smooth_window = 1;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 16;
  // Expect a count the trace cannot satisfy, forcing the full sweep.
  const SegmentationResult fast = segment_trace_robust(trace, 7, cfg);
  const SegmentationResult ref = segment_trace_robust_reference(trace, 7, cfg);
  expect_sweep_results_equal(fast, ref);
  // Reference: pass 1 + the 60-candidate grid minus the two base-config
  // entries (the duplicated base window hits the pass-1 skip twice).
  EXPECT_EQ(ref.attempts, 59u);
  // Fast: pass 1 + the 30 distinct configurations minus the base config.
  EXPECT_EQ(fast.attempts, 30u);
}

TEST(SegmentationSweepFastPath, FaultedPaperScaleCapturesMatchReference) {
  // The degraded_campaign acquisition: n = 1024 sampler captures under the
  // L3 FaultSpec (jitter 1.0, dropout 0.05, 4 glitches). Pass 1 misses the
  // window count on these, so the whole fused sweep runs on ~700k samples.
  core::CampaignConfig cfg;
  cfg.n = 1024;
  cfg.moduli = {132120577ULL};
  cfg.num_workers = 0;
  cfg.faults.jitter_sigma = 1.0;
  cfg.faults.dropout_rate = 0.05;
  cfg.faults.glitch_count = 4;
  core::SamplerCampaign campaign(cfg);
  for (const std::uint64_t seed : {7u, 9001u, 31337u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<double> trace = campaign.capture(seed).trace;
    const SegmentationResult fast = segment_trace_robust(trace, cfg.n, cfg.segmentation);
    const SegmentationResult ref =
        segment_trace_robust_reference(trace, cfg.n, cfg.segmentation);
    expect_sweep_results_equal(fast, ref);
    EXPECT_EQ(fast.status, SegmentationStatus::kRecovered);
    // Every (window, threshold, min-burst) entry of the grid is distinct
    // here: pass 1 plus the 59 other candidates.
    EXPECT_EQ(fast.attempts, 60u);
  }
}

TEST(SegmentationSweepFastPath, TraceEndingInsideABurstMatchesReference) {
  // The last burst runs off the end of the trace: its run must close at
  // the trace end, leaving an empty final window.
  std::vector<double> trace(600, 1.0);
  for (const std::size_t s : {60u, 250u}) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  for (std::size_t i = 560; i < trace.size(); ++i) trace[i] = 10.0;
  SegmentationConfig cfg;
  cfg.smooth_window = 5;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 16;
  const std::vector<Segment> segs = segment_trace(trace, cfg);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs.back().burst_end, trace.size());
  EXPECT_EQ(segs.back().window_begin, trace.size());
  EXPECT_EQ(segs.back().window_end, trace.size());
  for (const std::size_t expected : {2u, 3u, 5u}) {
    SCOPED_TRACE("expected " + std::to_string(expected));
    expect_sweep_results_equal(segment_trace_robust(trace, expected, cfg),
                               segment_trace_robust_reference(trace, expected, cfg));
  }
}

TEST(SegmentationSweepFastPath, SamplesEqualToAScaledThresholdAreNotAbove) {
  // Plateaus sit exactly on the sweep's scaled thresholds, and on the next
  // double above each. The fast path decides full-window samples by
  // comparing window sums against exact quotient bounds, so an off-by-one
  // there shows up as a run gained or lost at one of these plateaus.
  // Window 1 compares the raw values; the 4.0 plateaus also smooth to
  // exactly 4.0 at every window. The trace opens on one, so the first
  // samples (before any window is full) meet the threshold too.
  const double base = 4.0;
  std::vector<double> trace(2600, 0.0);
  std::fill(trace.begin(), trace.begin() + 30, base);
  std::size_t pos = 30;
  for (const double scale : {1.0, 0.85, 1.15, 0.7, 1.3}) {
    const double at = base * scale;
    for (const double level : {at, std::nextafter(at, 100.0)}) {
      for (std::size_t i = pos; i < pos + 40; ++i) trace[i] = level;
      pos += 90;
      for (std::size_t i = pos; i < pos + 40; ++i) trace[i] = 9.0;  // a genuine burst
      pos += 120;
    }
  }
  SegmentationConfig cfg;
  cfg.smooth_window = 3;  // sweeps windows 3, 5, 1 and 7
  cfg.threshold = base;
  cfg.min_burst_length = 4;
  // Strict `>`: of the plateaus, only those above 4.0 are bursts: 4.6 and
  // 5.2, and the next double above each of 4.0, 4.6 and 5.2. Ten genuine
  // bursts come on top.
  SegmentationConfig raw = cfg;
  raw.smooth_window = 1;
  EXPECT_EQ(segment_trace(trace, raw).size(), 15u);
  for (const std::size_t expected : {10u, 15u, 17u, 40u}) {
    SCOPED_TRACE("expected " + std::to_string(expected));
    expect_sweep_results_equal(segment_trace_robust(trace, expected, cfg),
                               segment_trace_robust_reference(trace, expected, cfg));
  }
}

TEST(SegmentationSweepFastPath, NonPositiveAutoThresholdSweepMatchesReference) {
  // A trace below zero has a negative automatic threshold. The reference
  // hands segment_trace scaled copies of it, which are not positive, so
  // each candidate falls back to the automatic threshold of its own
  // smoothing; the fast path must compare against those same thresholds.
  num::Xoshiro256StarStar rng(17);
  std::vector<double> trace(2000);
  for (double& v : trace) v = -6.0 + rng.gaussian(0.0, 0.6);
  for (std::size_t s = 50; s + 60 < trace.size(); s += 170) {
    for (std::size_t i = s; i < s + 25 + rng() % 10; ++i) trace[i] = 1.0 + rng.gaussian(0.0, 0.4);
  }
  SegmentationConfig cfg;
  cfg.smooth_window = 5;
  cfg.threshold = 0.0;
  cfg.min_burst_length = 16;
  ASSERT_LT(auto_threshold(smooth(trace, cfg.smooth_window)), 0.0);
  for (const std::size_t expected : {5u, 11u, 30u}) {
    SCOPED_TRACE("expected " + std::to_string(expected));
    expect_sweep_results_equal(segment_trace_robust(trace, expected, cfg),
                               segment_trace_robust_reference(trace, expected, cfg));
  }
}

// ---------------------------------------------------------------------------
// Automatic threshold selection

TEST(AutoThresholdSelection, MatchesSortReference) {
  num::Xoshiro256StarStar rng(23);
  const auto check = [](const std::vector<double>& samples) {
    const double fast = auto_threshold(samples);
    const double ref = auto_threshold_reference(samples);
    EXPECT_EQ(fast, ref);  // bit-equal, +inf included
  };
  // Sizes 1-5: the two percentile indices coincide or sit side by side.
  for (std::size_t size = 1; size <= 5; ++size) {
    SCOPED_TRACE("size " + std::to_string(size));
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> samples(size);
      for (double& v : samples) v = rng.gaussian(0.0, 3.0);
      check(samples);
    }
  }
  // Many tied values, and random lengths.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> samples(1 + rng() % 3000);
    for (double& v : samples) v = static_cast<double>(rng() % 4);
    check(samples);
    for (double& v : samples) v = rng.gaussian(5.0, 2.0);
    check(samples);
  }
}

TEST(AutoThresholdSelection, FlatTraceReturnsInfinity) {
  for (const std::size_t size : {1u, 2u, 5u, 1000u}) {
    const std::vector<double> flat(size, 2.5);
    EXPECT_EQ(auto_threshold(flat), std::numeric_limits<double>::infinity());
    EXPECT_EQ(auto_threshold_reference(flat), std::numeric_limits<double>::infinity());
  }
}

// ---------------------------------------------------------------------------
// Compensated smoothing drift

TEST(SmoothingDrift, CompensatedSmoothingTracksExactWindowedMeans) {
  // A large common-mode offset makes the plain sliding accumulator lose the
  // per-sample noise bits: after 2^20 adds/subtracts its output drifts from
  // the true windowed mean. The compensated kernel must stay within a few
  // ulps of the exact (recomputed per window, long double) value across the
  // whole trace.
  const std::size_t length = (1u << 20) + 37;
  const std::size_t window = 7;
  num::Xoshiro256StarStar rng(99);
  std::vector<double> samples(length);
  for (double& v : samples) v = 1.0e8 + rng.gaussian(0.0, 1.0);

  const std::vector<double> fast = smooth(samples, window);
  const std::vector<double> plain = smooth_reference(samples, window);

  double fast_err = 0.0;
  double plain_err = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    long double acc = 0.0L;
    const std::size_t begin = i + 1 >= window ? i + 1 - window : 0;
    for (std::size_t j = begin; j <= i; ++j) acc += samples[j];
    const double exact =
        static_cast<double>(acc / static_cast<long double>(i - begin + 1));
    fast_err = std::max(fast_err, std::fabs(fast[i] - exact));
    plain_err = std::max(plain_err, std::fabs(plain[i] - exact));
  }
  // The compensated error is bounded by the window content (~1e8 * eps);
  // the plain accumulator's drift grows with the stream and must be
  // observably worse — that gap is what the hardening buys.
  EXPECT_LT(fast_err, 1e-6);
  EXPECT_GT(plain_err, fast_err * 4.0);
}

TEST(SmoothingDrift, CompensatedEqualsReferenceOnShortBenignTraces) {
  // On short traces both kernels are exact to the ulp against the direct
  // mean; this pins the behavior segment_trace depends on.
  num::Xoshiro256StarStar rng(5);
  std::vector<double> samples(257);
  for (double& v : samples) v = rng.gaussian(0.0, 1.0);
  const std::vector<double> fast = smooth(samples, 5);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double acc = 0.0;
    const std::size_t begin = i + 1 >= 5 ? i + 1 - 5 : 0;
    for (std::size_t j = begin; j <= i; ++j) acc += samples[j];
    EXPECT_NEAR(fast[i], acc / static_cast<double>(i - begin + 1), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// FFT alignment

TEST(AlignmentFastPath, FuzzMatchesReference) {
  num::Xoshiro256StarStar rng(31);
  struct Case {
    std::size_t ref_len, trace_len, max_shift;
  };
  for (const Case& c : {Case{3000, 3000, 60}, Case{4096, 3500, 48},
                        Case{2800, 3100, 80}, Case{5000, 5000, 24}}) {
    SCOPED_TRACE("ref_len " + std::to_string(c.ref_len) + " max_shift " +
                 std::to_string(c.max_shift));
    std::vector<double> reference(c.ref_len);
    for (std::size_t i = 0; i < c.ref_len; ++i) {
      const double burst = (i / 70) % 2 == 0 ? 2.0 : 0.2;
      reference[i] = burst + rng.gaussian(0.0, 0.3);
    }
    const auto shift = static_cast<std::ptrdiff_t>(rng() % (2 * c.max_shift)) -
                       static_cast<std::ptrdiff_t>(c.max_shift);
    std::vector<double> trace = apply_shift(reference, shift);
    trace.resize(c.trace_len, 0.1);
    for (double& v : trace) v += rng.gaussian(0.0, 0.05);

    const AlignmentResult fast = find_alignment(reference, trace, c.max_shift);
    const AlignmentResult ref = find_alignment_reference(reference, trace, c.max_shift);
    EXPECT_EQ(fast.shift, ref.shift);
    EXPECT_EQ(fast.correlation, ref.correlation);  // bit-equal
  }
}

TEST(AlignmentFastPath, PureNoiseMatchesReference) {
  // No correlation structure: many near-tied delays, the worst case for the
  // screened-candidate set. Selection must still be tie-for-tie identical.
  num::Xoshiro256StarStar rng(41);
  std::vector<double> a(3200), b(3200);
  for (double& v : a) v = rng.gaussian(0.0, 1.0);
  for (double& v : b) v = rng.gaussian(0.0, 1.0);
  const AlignmentResult fast = find_alignment(a, b, 64);
  const AlignmentResult ref = find_alignment_reference(a, b, 64);
  EXPECT_EQ(fast.shift, ref.shift);
  EXPECT_EQ(fast.correlation, ref.correlation);
}

TEST(AlignmentFastPath, DegenerateConstantTraceMatchesReference) {
  // A constant trace zeroes every correlation denominator; the screen's
  // tolerance collapses and every delay is re-scored exactly.
  const std::vector<double> constant(3000, 4.0);
  std::vector<double> pattern(3000);
  num::Xoshiro256StarStar rng(43);
  for (double& v : pattern) v = rng.gaussian(0.0, 1.0);
  const AlignmentResult fast = find_alignment(pattern, constant, 20);
  const AlignmentResult ref = find_alignment_reference(pattern, constant, 20);
  EXPECT_EQ(fast.shift, ref.shift);
  EXPECT_EQ(fast.correlation, ref.correlation);
}

// ---------------------------------------------------------------------------
// Flat-GSO LLL

lattice::Basis fuzz_basis(num::Xoshiro256StarStar& rng, std::size_t n, bool boost_diag) {
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = rng.uniform_int(-30, 30);
    if (boost_diag) basis[i][i] += 100;
  }
  return basis;
}

TEST(LatticeFlatLll, FuzzMatchesReference) {
  num::Xoshiro256StarStar rng(71);
  for (std::uint64_t round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 4 + round % 9;
    lattice::Basis fast_basis = fuzz_basis(rng, n, round % 2 == 0);
    lattice::Basis ref_basis = fast_basis;
    const std::size_t fast_swaps = lattice::lll_reduce(fast_basis);
    const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_basis);
    EXPECT_EQ(fast_basis, ref_basis);  // exact integer equality
    EXPECT_EQ(fast_swaps, ref_swaps);
    EXPECT_TRUE(lattice::is_lll_reduced(fast_basis));
  }
}

TEST(LatticeFlatLll, RankDeficientBasisMatchesReference) {
  // A duplicated row degenerates the GSO (zero ||b*||): the flat kernel's
  // degenerate-norm handling must mirror compute_gso's exactly.
  num::Xoshiro256StarStar rng(73);
  lattice::Basis fast_basis = fuzz_basis(rng, 6, true);
  fast_basis[4] = fast_basis[1];
  lattice::Basis ref_basis = fast_basis;
  const std::size_t fast_swaps = lattice::lll_reduce(fast_basis);
  const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_basis);
  EXPECT_EQ(fast_basis, ref_basis);
  EXPECT_EQ(fast_swaps, ref_swaps);
}

TEST(LatticeFlatLll, ReducesKnownBasisLikeReference) {
  // The classic worked example: the flat path must leave the already-agreed
  // reduced form in place.
  lattice::Basis basis = {{1, 1, 1}, {-1, 0, 2}, {3, 5, 6}};
  lattice::Basis ref = basis;
  lattice::lll_reduce(basis);
  lattice::lll_reduce_reference(ref);
  EXPECT_EQ(basis, ref);
  EXPECT_TRUE(lattice::is_lll_reduced(basis));
}

}  // namespace
