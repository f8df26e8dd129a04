#include "sca/segmentation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace reveal::sca {

namespace {

/// A maximal run [begin, end) of smoothed samples strictly above a
/// threshold, before any minimum-length filter, so one scan serves every
/// min_burst_length candidate.
struct Run {
  std::size_t begin, end;
};

/// smooth()'s sliding sum: a Neumaier-compensated accumulator. The
/// compensation term captures the low-order bits lost by each add/subtract,
/// so the error per output is bounded by the window content, not by how
/// many samples have streamed through the accumulator. smooth() and the
/// fused scan below both step this one accumulator, so they see the same
/// sums bit for bit.
class SlidingSum {
 public:
  explicit SlidingSum(std::size_t window) noexcept : window_(window) {}

  /// Takes sample i in (and sample i - window out, once it has left the
  /// window); call with i = 0, 1, ... Returns the compensated sum of the
  /// last min(i + 1, window) samples.
  double push(const double* x, std::size_t i) noexcept {
    add(x[i]);
    if (i >= window_) add(-x[i - window_]);
    return acc_ + comp_;
  }

 private:
  void add(double v) noexcept {
    const double t = acc_ + v;
    if (std::abs(acc_) >= std::abs(v))
      comp_ += (acc_ - t) + v;
    else
      comp_ += (v - t) + acc_;
    acc_ = t;
  }

  // window_ sits between the two sums on purpose: with acc_ and comp_
  // adjacent, GCC's SLP vectorizer packs them into one register, and the
  // shuffles it adds land on the accumulator's dependency chain (the
  // one-window scan of a 709k-sample trace took 4.0 ms instead of 2.2 ms).
  double acc_ = 0.0;
  std::size_t window_;
  double comp_ = 0.0;
};

/// The least double q whose rounded quotient q / d exceeds t (d >= 1).
/// Correctly rounded division is monotone in q, so `q >= bound` decides
/// `q / d > t` exactly without dividing. NaN when no q qualifies (t is
/// +inf), which no comparison passes either.
double quotient_bound(double t, double d) {
  // Doubles in numeric order as integers: -0.0 and +0.0 share key 0.
  const auto key = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits >= 0 ? bits : -(bits & std::numeric_limits<std::int64_t>::max());
  };
  const auto value = [](std::int64_t k) {
    return k >= 0 ? std::bit_cast<double>(k) : -std::bit_cast<double>(-k);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::int64_t lo = key(-kInf);  // -inf / d > t never holds
  std::int64_t hi = key(kInf);
  if (!(kInf / d > t)) return std::numeric_limits<double>::quiet_NaN();
  // The key range spans more than INT64_MAX, so halve it unsigned.
  const auto span = [&] {
    return static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  };
  while (span() > 1) {
    const auto mid = static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + span() / 2);
    (value(mid) / d > t ? hi : lo) = mid;
  }
  return value(hi);
}

/// One smoothing window of the fused burst scan: the thresholds its
/// smoothed trace is compared against (ascending, distinct) and, once
/// scan_lanes has run, the maximal runs strictly above each of them.
struct ScanLane {
  std::size_t window = 1;
  std::vector<double> thresholds;
  std::vector<std::vector<Run>> runs;  ///< runs[k]: smoothed > thresholds[k]

  [[nodiscard]] const std::vector<Run>& runs_above(double threshold) const {
    const auto it = std::lower_bound(thresholds.begin(), thresholds.end(), threshold);
    return runs[static_cast<std::size_t>(it - thresholds.begin())];
  }
};

/// The half-open interval [lo, hi) of window sums that keeps a lane at its
/// current level.
struct LevelInterval {
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] bool contains(double q) const noexcept { return q >= lo && !(q >= hi); }
};

/// One lane's level bookkeeping. The level is how many thresholds the
/// current smoothed sample exceeds. The runs are nested (s > t_k implies
/// s > t_j for every j < k), so a level change from `from` to `to` at
/// sample i opens exactly the runs of thresholds [from, to), or closes those
/// of [to, from). Levels change rarely; the scan loop keeps only the window
/// sum and the current LevelInterval in registers and calls in here when a
/// sum leaves the interval.
class LaneLevels {
 public:
  explicit LaneLevels(ScanLane& lane) : lane_(lane), bounds_(lane.thresholds.size()) {
    // Past the first `window` samples every smoothed value is a window sum
    // over the same divisor, so comparing the sum against these bounds
    // decides each threshold exactly.
    const auto d = static_cast<double>(lane.window);
    for (std::size_t k = 0; k < bounds_.size(); ++k)
      bounds_[k] = quotient_bound(lane.thresholds[k], d);
  }

  /// The level of smoothed value s, the way a `>` scan of smooth() sees it.
  [[nodiscard]] std::size_t level_of_mean(double s) const noexcept {
    std::size_t level = 0;
    for (const double t : lane_.thresholds) level += s > t;
    return level;
  }
  /// The level of a full-window sum q.
  [[nodiscard]] std::size_t level_of_sum(double q) const noexcept {
    std::size_t level = 0;
    for (const double b : bounds_) level += q >= b;
    return level;
  }

  /// Moves to level `to` at sample i; returns the new level's interval.
  LevelInterval move_to(std::size_t to, std::size_t i) {
    for (std::size_t k = level_; k < to; ++k) lane_.runs[k].push_back({i, i});
    for (std::size_t k = to; k < level_; ++k) lane_.runs[k].back().end = i;
    level_ = to;
    return {to > 0 ? bounds_[to - 1] : -std::numeric_limits<double>::infinity(),
            to < bounds_.size() ? bounds_[to] : std::numeric_limits<double>::quiet_NaN()};
  }

 private:
  ScanLane& lane_;
  std::vector<double> bounds_;
  std::size_t level_ = 0;
};

/// The steady part of scan_group: advances every lane's window sum from
/// sample i on and stops at the first sample where some lane's sum `q`
/// leaves its level's interval, or at n. It makes no call, and the sums
/// it advances are its own locals, so they stay in registers.
template <std::size_t... L>
std::size_t advance(const double* x, std::size_t i, std::size_t n,
                    std::array<SlidingSum, sizeof...(L)>& sums,
                    const std::array<LevelInterval, sizeof...(L)>& interval,
                    const std::array<bool, sizeof...(L)>& raw,
                    std::array<double, sizeof...(L)>& q, std::index_sequence<L...>) {
  std::array<SlidingSum, sizeof...(L)> hot = sums;
  const std::array<LevelInterval, sizeof...(L)> in = interval;
  std::array<double, sizeof...(L)> sum{};
  for (; i < n; ++i) {
    bool moved = false;
    ((sum[L] = raw[L] ? x[i] : hot[L].push(x, i), moved |= !in[L].contains(sum[L])), ...);
    if (moved) break;
  }
  sums = hot;
  q = sum;
  return i;
}

template <std::size_t... L>
void scan_group(const std::vector<double>& samples, ScanLane* lanes,
                std::index_sequence<L...> lane_ids) {
  constexpr std::size_t kLanes = sizeof...(L);
  std::array<LaneLevels, kLanes> levels{LaneLevels(lanes[L])...};
  std::array<SlidingSum, kLanes> sums{SlidingSum(lanes[L].window)...};
  const std::array<bool, kLanes> raw{(lanes[L].window == 1)...};
  const std::array<std::size_t, kLanes> window{lanes[L].window...};
  const double* x = samples.data();
  const std::size_t n = samples.size();
  // Samples i < window: the smoothed value proper, as smooth() gives it.
  const std::size_t warm = std::min(n, std::max({lanes[L].window...}));
  std::array<LevelInterval, kLanes> interval{levels[L].move_to(0, 0)...};  // level 0
  for (std::size_t i = 0; i < warm; ++i) {
    ((interval[L] = levels[L].move_to(
          levels[L].level_of_mean(
              raw[L] ? x[i]
                     : sums[L].push(x, i) /
                           static_cast<double>(std::min(i + 1, window[L]))),
          i)),
     ...);
  }
  // Then the window sum against the level's interval. Most samples stay
  // inside it, so the level changes are handled between advance() calls.
  std::array<double, kLanes> q{};
  for (std::size_t i = advance(x, warm, n, sums, interval, raw, q, lane_ids); i < n;
       i = advance(x, i + 1, n, sums, interval, raw, q, lane_ids)) {
    ((interval[L] = interval[L].contains(q[L])
                        ? interval[L]
                        : levels[L].move_to(levels[L].level_of_sum(q[L]), i)),
     ...);
  }
  (levels[L].move_to(0, n), ...);
}

/// The fused burst scan: one pass over the raw samples smooths them with
/// every lane's window (window 1 compares the samples as they are) and
/// writes each lane's runs above each of its thresholds. The runs equal
/// those of smooth() followed by a strict `>` scan per threshold.
void scan_lanes(const std::vector<double>& samples, std::vector<ScanLane>& lanes) {
  for (ScanLane& lane : lanes) {
    if (lane.window == 0) throw std::invalid_argument("smooth: window must be >= 1");
    lane.runs.assign(lane.thresholds.size(), {});
  }
  // Up to four lanes share a pass; their accumulators then advance side
  // by side.
  for (std::size_t g = 0; g < lanes.size(); g += 4) {
    ScanLane* group = lanes.data() + g;
    switch (std::min<std::size_t>(4, lanes.size() - g)) {
      case 1: scan_group(samples, group, std::make_index_sequence<1>{}); break;
      case 2: scan_group(samples, group, std::make_index_sequence<2>{}); break;
      case 3: scan_group(samples, group, std::make_index_sequence<3>{}); break;
      default: scan_group(samples, group, std::make_index_sequence<4>{}); break;
    }
  }
}

/// The burst runs of one segment_trace pass. A pinned threshold goes
/// straight through the fused scan; the automatic one needs the whole
/// smoothed trace first. `threshold` receives the threshold compared
/// against.
std::vector<Run> pass_runs(const std::vector<double>& samples,
                           const SegmentationConfig& config, double& threshold) {
  std::vector<ScanLane> lane(1);
  if (config.threshold > 0.0) {
    threshold = config.threshold;
    lane[0] = {config.smooth_window, {threshold}, {}};
    scan_lanes(samples, lane);
  } else {
    const std::vector<double> smoothed = smooth(samples, config.smooth_window);
    threshold = auto_threshold(smoothed);
    lane[0] = {1, {threshold}, {}};
    scan_lanes(smoothed, lane);
  }
  return std::move(lane[0].runs[0]);
}

/// Keeps runs of at least `min_burst_length` samples and turns them into
/// segments (window = gap to the next burst; the final window extends to the
/// trace end). Filtering here is equivalent to filtering during the scan.
std::vector<Segment> segments_from_runs(const std::vector<Run>& runs,
                                        std::size_t min_burst_length,
                                        std::size_t trace_size) {
  std::vector<Segment> segments;
  segments.reserve(runs.size());
  for (const Run& r : runs) {
    if (r.end - r.begin < min_burst_length) continue;
    if (!segments.empty()) segments.back().window_end = r.begin;
    Segment seg;
    seg.burst_begin = r.begin;
    seg.burst_end = r.end;
    seg.window_begin = r.end;
    seg.window_end = trace_size;  // provisional; fixed up by the next burst
    segments.push_back(seg);
  }
  return segments;
}

}  // namespace

std::vector<double> smooth(const std::vector<double>& samples, std::size_t window) {
  if (window == 0) throw std::invalid_argument("smooth: window must be >= 1");
  if (window == 1) return samples;
  std::vector<double> out(samples.size());
  SlidingSum sum(window);
  for (std::size_t i = 0; i < samples.size(); ++i)
    out[i] = sum.push(samples.data(), i) / static_cast<double>(std::min(i + 1, window));
  return out;
}

double auto_threshold(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("auto_threshold: empty trace");
  // Two selections give the same order statistics as a full sort: the
  // first puts the 95th-percentile value at hi_at with every smaller value
  // before it, the second finds the 20th percentile among those.
  std::vector<double> v = samples;
  const std::size_t lo_at = v.size() * 20 / 100;
  const std::size_t hi_at = std::min(v.size() - 1, v.size() * 95 / 100);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(hi_at), v.end());
  const double hi = v[hi_at];
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo_at),
                   v.begin() + static_cast<std::ptrdiff_t>(hi_at));
  const double lo = v[lo_at];
  // Flat / near-constant trace: the percentile midpoint would sit inside
  // the numerical-noise band and turn the whole trace into one bogus
  // burst. Signal "no separable burst level" instead.
  if (hi - lo < 1e-9 * std::max(1.0, std::abs(hi)))
    return std::numeric_limits<double>::infinity();
  return 0.5 * (lo + hi);
}

std::vector<Segment> segment_trace(const std::vector<double>& samples,
                                   const SegmentationConfig& config) {
  if (samples.empty()) return {};
  double threshold = 0.0;
  return segments_from_runs(pass_runs(samples, config, threshold),
                            config.min_burst_length, samples.size());
}

double burst_length_consistency(const std::vector<Segment>& segments) {
  if (segments.size() < 2) return segments.empty() ? 0.0 : 1.0;
  double mean = 0.0;
  for (const Segment& s : segments)
    mean += static_cast<double>(s.burst_end - s.burst_begin);
  mean /= static_cast<double>(segments.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const Segment& s : segments) {
    const double d = static_cast<double>(s.burst_end - s.burst_begin) - mean;
    var += d * d;
  }
  var /= static_cast<double>(segments.size());
  return std::clamp(1.0 - std::sqrt(var) / mean, 0.0, 1.0);
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}

}  // namespace

std::vector<double> score_windows(const std::vector<Segment>& segments) {
  std::vector<double> quality(segments.size(), 1.0);
  if (segments.empty()) return quality;
  std::vector<double> burst_lens, window_lens;
  burst_lens.reserve(segments.size());
  window_lens.reserve(segments.size());
  for (const Segment& s : segments) {
    burst_lens.push_back(static_cast<double>(s.burst_end - s.burst_begin));
    window_lens.push_back(static_cast<double>(s.window_end - s.window_begin));
  }
  const double burst_med = std::max(1.0, median_of(burst_lens));
  const double window_med = std::max(1.0, median_of(window_lens));
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Genuine distribution-call bursts share the multiplier's length;
    // glitch-split or merged segments deviate strongly from the median.
    const double q_burst = std::exp(-std::abs(burst_lens[i] - burst_med) / burst_med);
    // Windows vary legitimately (time-variant rejection loop), so only
    // windows much shorter than typical are suspect.
    const double q_window = std::clamp(window_lens[i] / (0.5 * window_med), 0.0, 1.0);
    quality[i] = std::min(q_burst, q_window);
  }
  return quality;
}

namespace {

/// The sweep grid shared by the fast and reference robust paths. Threshold
/// scaling reconnects bursts split by dropout (lower) or suppresses glitch
/// bursts (higher); wider smoothing bridges jitter-torn bursts; shorter
/// min-burst recovers time-warped (compressed) bursts.
struct SweepGrid {
  static constexpr std::size_t kScales = 5;
  static constexpr std::size_t kWindows = 4;
  double threshold_scales[kScales];
  std::size_t smooth_windows[kWindows];
  std::size_t min_bursts[3];
};

SweepGrid sweep_grid(const SegmentationConfig& base) {
  return SweepGrid{
      {1.0, 0.85, 1.15, 0.7, 1.3},
      {base.smooth_window, base.smooth_window + 2,
       base.smooth_window > 2 ? base.smooth_window - 2 : 1,
       2 * base.smooth_window + 1},
      {base.min_burst_length, std::max<std::size_t>(4, 3 * base.min_burst_length / 4),
       std::max<std::size_t>(4, base.min_burst_length / 2)}};
}

/// Shared candidate-selection state: keeps whichever segmentation is closest
/// to the expected count (ties broken by burst-length consistency), exactly
/// the predicate of the original sweep.
struct BestCandidate {
  std::vector<Segment> segments;
  SegmentationConfig config;
  bool match = false;
  std::size_t err = 0;
  double consistency = 0.0;

  static std::size_t count_err(const std::vector<Segment>& segs,
                               std::size_t expected_windows) {
    return segs.size() > expected_windows ? segs.size() - expected_windows
                                          : expected_windows - segs.size();
  }

  void consider(std::vector<Segment>&& candidate, const SegmentationConfig& cfg,
                std::size_t expected_windows) {
    const std::size_t e = count_err(candidate, expected_windows);
    const double c = burst_length_consistency(candidate);
    const bool m = e == 0;
    const bool better =
        m != match ? m : (e != err ? e < err : c > consistency);
    if (better) {
      segments = std::move(candidate);
      config = cfg;
      match = m;
      err = e;
      consistency = c;
    }
  }
};

SegmentationResult finish_robust(SegmentationResult& result, std::vector<Segment> segments,
                                 const SegmentationConfig& cfg, SegmentationStatus status,
                                 double degraded_consistency) {
  result.segments = std::move(segments);
  result.config = cfg;
  result.burst_consistency = burst_length_consistency(result.segments);
  if (status != SegmentationStatus::kFailed &&
      result.burst_consistency < degraded_consistency)
    status = SegmentationStatus::kDegraded;
  result.status = status;
  result.window_quality = score_windows(result.segments);
  return result;
}

}  // namespace

SegmentationResult segment_trace_robust(const std::vector<double>& samples,
                                        std::size_t expected_windows,
                                        const SegmentationConfig& base,
                                        double degraded_consistency) {
  SegmentationResult result;
  if (samples.empty() || expected_windows == 0) return result;

  // Pass 1: the caller's config, untouched — when the capture is clean this
  // reproduces segment_trace bit-for-bit.
  double base_threshold = 0.0;
  std::vector<Segment> first = segments_from_runs(
      pass_runs(samples, base, base_threshold), base.min_burst_length, samples.size());
  ++result.attempts;
  if (first.size() == expected_windows)
    return finish_robust(result, std::move(first), base, SegmentationStatus::kOk,
                         degraded_consistency);

  // Pass 2: adaptive sweep over {smooth_window, threshold_scale,
  // min_burst_length}. One fused scan of the raw samples produces the
  // burst runs of every (smoothing, threshold) pair; min_burst_length
  // candidates reuse those runs through an O(#runs) filter instead of
  // re-segmenting the trace.
  const SweepGrid grid = sweep_grid(base);
  // The threshold the reference sweep hands to segment_trace, per scale: a
  // scaled copy of the pass-1 threshold, or 0 (auto) when the base trace had
  // no separable burst level.
  const auto recorded_threshold = [&](double scale) {
    return std::isfinite(base_threshold) ? base_threshold * scale : 0.0;
  };

  // The scan's lanes (one per distinct window) and the threshold each
  // (window, scale) candidate is compared against. Like segment_trace, a
  // recorded threshold that is not positive falls back to the automatic
  // threshold of that window's smoothing.
  std::vector<ScanLane> lanes;
  std::array<std::size_t, SweepGrid::kWindows> lane_of{};
  std::array<std::array<double, SweepGrid::kScales>, SweepGrid::kWindows> effective{};
  for (std::size_t w = 0; w < SweepGrid::kWindows; ++w) {
    const std::size_t sw = grid.smooth_windows[w];
    std::size_t l = 0;
    while (l < lanes.size() && lanes[l].window != sw) ++l;
    if (l == lanes.size()) lanes.push_back({sw, {}, {}});
    lane_of[w] = l;
    std::optional<double> window_auto;
    for (std::size_t t = 0; t < SweepGrid::kScales; ++t) {
      double thr = recorded_threshold(grid.threshold_scales[t]);
      if (!(thr > 0.0)) {
        if (!window_auto) {
          window_auto = sw == base.smooth_window && !(base.threshold > 0.0)
                            ? base_threshold
                            : auto_threshold(smooth(samples, sw));
        }
        thr = *window_auto;
      }
      effective[w][t] = thr;
      lanes[l].thresholds.push_back(thr);
    }
  }
  for (ScanLane& lane : lanes) {
    std::sort(lane.thresholds.begin(), lane.thresholds.end());
    lane.thresholds.erase(std::unique(lane.thresholds.begin(), lane.thresholds.end()),
                          lane.thresholds.end());
  }
  scan_lanes(samples, lanes);

  // Candidates that normalize to an identical effective configuration
  // (duplicate window/min-burst grid entries, or every threshold scale when
  // the thresholds fall back to auto) are evaluated once and skipped on
  // repeat — a duplicate can never beat the identical earlier candidate, so
  // skipping preserves the reference selection bit-for-bit.
  BestCandidate best;
  best.segments = std::move(first);
  best.config = base;
  best.err = BestCandidate::count_err(best.segments, expected_windows);
  best.consistency = burst_length_consistency(best.segments);

  struct SeenConfig {
    std::size_t window;
    double threshold;  // effective threshold actually compared against
    std::size_t min_burst;
  };
  std::vector<SeenConfig> seen;
  // Pass 1 occupies the (base window, base threshold, base min-burst) slot.
  seen.push_back({base.smooth_window, base_threshold, base.min_burst_length});

  for (std::size_t w = 0; w < SweepGrid::kWindows; ++w) {
    const std::size_t sw = grid.smooth_windows[w];
    for (std::size_t t = 0; t < SweepGrid::kScales; ++t) {
      const double scale = grid.threshold_scales[t];
      const double thr = effective[w][t];
      const std::vector<Run>& runs = lanes[lane_of[w]].runs_above(thr);
      for (const std::size_t mb : grid.min_bursts) {
        if (sw == base.smooth_window && scale == 1.0 && mb == base.min_burst_length)
          continue;  // already tried as pass 1 (modulo auto-threshold pinning)
        bool duplicate = false;
        for (const SeenConfig& s : seen) {
          if (s.window == sw && s.threshold == thr && s.min_burst == mb) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        seen.push_back({sw, thr, mb});

        SegmentationConfig cfg = base;
        cfg.smooth_window = sw;
        cfg.threshold = recorded_threshold(scale);
        cfg.min_burst_length = mb;
        ++result.attempts;

        // Count the surviving bursts without materializing segments; a
        // candidate whose (match, count-error) is strictly worse than the
        // incumbent's can never win under the selection predicate, so only
        // potential winners pay for segment construction and the
        // consistency pass.
        std::size_t count = 0;
        for (const Run& r : runs) count += (r.end - r.begin >= mb);
        const std::size_t e = count > expected_windows ? count - expected_windows
                                                       : expected_windows - count;
        const bool m = e == 0;
        const bool maybe_better = m != best.match ? m : e <= best.err;
        if (!maybe_better) continue;
        best.consider(segments_from_runs(runs, mb, samples.size()), cfg, expected_windows);
      }
    }
  }

  return finish_robust(result, std::move(best.segments), best.config,
                       best.match ? SegmentationStatus::kRecovered
                                  : SegmentationStatus::kFailed,
                       degraded_consistency);
}

SegmentationResult segment_trace_robust_reference(const std::vector<double>& samples,
                                                  std::size_t expected_windows,
                                                  const SegmentationConfig& base,
                                                  double degraded_consistency) {
  SegmentationResult result;
  if (samples.empty() || expected_windows == 0) return result;

  // Pass 1: identical to the fast path.
  std::vector<Segment> first = segment_trace(samples, base);
  ++result.attempts;
  if (first.size() == expected_windows)
    return finish_robust(result, std::move(first), base, SegmentationStatus::kOk,
                         degraded_consistency);

  // Pass 2: the pre-optimization sweep — every candidate re-smooths and
  // re-segments the full trace, duplicates included. Kept verbatim as the
  // differential anchor for the shared-work sweep above.
  const double base_threshold =
      base.threshold > 0.0 ? base.threshold
                           : auto_threshold(smooth(samples, base.smooth_window));
  const SweepGrid grid = sweep_grid(base);

  BestCandidate best;
  best.segments = std::move(first);
  best.config = base;
  best.err = BestCandidate::count_err(best.segments, expected_windows);
  best.consistency = burst_length_consistency(best.segments);

  for (const std::size_t sw : grid.smooth_windows) {
    for (const double scale : grid.threshold_scales) {
      for (const std::size_t mb : grid.min_bursts) {
        SegmentationConfig cfg = base;
        cfg.smooth_window = sw;
        cfg.threshold = std::isfinite(base_threshold) ? base_threshold * scale : 0.0;
        cfg.min_burst_length = mb;
        if (sw == base.smooth_window && scale == 1.0 && mb == base.min_burst_length)
          continue;  // already tried as pass 1 (modulo auto-threshold pinning)
        std::vector<Segment> candidate = segment_trace(samples, cfg);
        ++result.attempts;
        best.consider(std::move(candidate), cfg, expected_windows);
      }
    }
  }

  return finish_robust(result, std::move(best.segments), best.config,
                       best.match ? SegmentationStatus::kRecovered
                                  : SegmentationStatus::kFailed,
                       degraded_consistency);
}

}  // namespace reveal::sca
