// Hot-path regression harness for the core primitives:
//
//   bench_perf [--json] [--smoke] [--tier reference|predecode|block]
//
// Hand-rolled steady_clock loops time the victim simulator's full execution
// ladder (decode-per-step reference, predecode cache, basic-block
// translation) and the shared-work template scoring against their
// pre-optimization references, plus segmentation / capture / NTT
// throughput, and emit BENCH_perf.json (BENCH_perf_<tier>.json for
// non-default --tier). --tier pins the capture-throughput leg's execution
// tier; the victim-sim leg always measures all three. The run fails
// (nonzero exit) if the fast paths are not byte-identical: every tier must
// produce identical InstrEvent streams, cycle counts and decoded noise, and
// the golden fixture's committed recovery (tests/data/golden_expected.txt)
// must replay exactly through the optimized pipeline. --smoke shrinks the
// iteration counts and skips the speedup thresholds (identity is still
// enforced) so CTest can run the gate quickly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/victim.hpp"
#include "lwe/dbdd.hpp"
#include "lattice/lattice.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "sca/alignment.hpp"
#include "sca/segmentation.hpp"
#include "sca/template_attack.hpp"
#include "sca/trace.hpp"
#include "seal/ntt.hpp"

using namespace reveal;

namespace {

// --------------------------------------------------------------------------
// Shared helpers
// --------------------------------------------------------------------------

/// Times f(i) over `iters` calls after a small warmup; returns ns per call.
template <typename F>
double time_ns_per_op(F&& f, std::size_t iters) {
  for (std::size_t i = 0; i < 3 && i < iters; ++i) f(i);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) f(i);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return ns / static_cast<double>(iters);
}

/// Records every InstrEvent for field-by-field stream comparison.
struct EventCollector final : riscv::ExecutionObserver {
  std::vector<riscv::InstrEvent> events;
  void on_instruction(const riscv::InstrEvent& e) override { events.push_back(e); }
};

bool events_equal(const riscv::InstrEvent& a, const riscv::InstrEvent& b) {
  return a.pc == b.pc && a.op == b.op && a.klass == b.klass && a.rd == b.rd &&
         a.rs1_val == b.rs1_val && a.rs2_val == b.rs2_val && a.rd_old == b.rd_old &&
         a.rd_new == b.rd_new && a.rd_written == b.rd_written &&
         a.branch_taken == b.branch_taken && a.mem_addr == b.mem_addr &&
         a.mem_data == b.mem_data && a.is_mem_read == b.is_mem_read &&
         a.is_mem_write == b.is_mem_write && a.cycles == b.cycles;
}

/// Every tier of the execution ladder (reference -> predecode -> block)
/// over several seeds: event streams, cycle/instruction counters and
/// decoded noise must all match the decode-per-step anchor exactly.
bool victim_identity_gate() {
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  riscv::Machine ref_machine(prog.memory_bytes);
  riscv::Machine pre_machine(prog.memory_bytes);
  riscv::Machine blk_machine(prog.memory_bytes);
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    EventCollector ref_events;
    EventCollector pre_events;
    EventCollector blk_events;
    const core::VictimRun ref = core::run_victim_tier(
        prog, ref_machine, seed, core::VictimTier::kReference, &ref_events);
    const core::VictimRun pre = core::run_victim_tier(
        prog, pre_machine, seed, core::VictimTier::kPredecode, &pre_events);
    const core::VictimRun blk = core::run_victim_tier(
        prog, blk_machine, seed, core::VictimTier::kBlock, &blk_events);
    for (const core::VictimRun* run : {&pre, &blk}) {
      if (run->noise != ref.noise || run->cycles != ref.cycles ||
          run->instructions != ref.instructions)
        return false;
    }
    for (const EventCollector* col : {&pre_events, &blk_events}) {
      if (col->events.size() != ref_events.events.size()) return false;
      for (std::size_t i = 0; i < col->events.size(); ++i) {
        if (!events_equal(col->events[i], ref_events.events[i])) return false;
      }
    }
  }
  return true;
}

const char* tier_name(core::VictimTier tier) {
  switch (tier) {
    case core::VictimTier::kReference: return "reference";
    case core::VictimTier::kPredecode: return "predecode";
    case core::VictimTier::kBlock: return "block";
  }
  return "block";
}

/// A template set of the attack's shape: K labels, pooled SPD covariance.
sca::TemplateSet make_template_set(std::size_t num_classes, std::size_t dim,
                                   std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  num::Matrix a(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) a(i, j) = rng.gaussian(0.0, 1.0);
  num::Matrix cov(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < dim; ++k) acc += a(k, i) * a(k, j);
      cov(i, j) = acc / static_cast<double>(dim);
    }
  }
  num::add_ridge(cov, 0.05);
  std::vector<sca::TemplateSet::ClassTemplate> classes(num_classes);
  const std::int32_t half = static_cast<std::int32_t>(num_classes / 2);
  for (std::size_t c = 0; c < num_classes; ++c) {
    classes[c].label = static_cast<std::int32_t>(c) - half;
    classes[c].count = 16;
    classes[c].mean.resize(dim);
    for (double& m : classes[c].mean) m = rng.gaussian(0.0, 2.0);
  }
  return sca::TemplateSet(std::move(classes), std::move(cov));
}

struct ExpectedWindow {
  std::size_t index = 0;
  int sign = 0;
  int value = 0;
  int quality = 0;
  long long truth = 0;
};

/// Replays the committed golden-fixture recovery (same pinned configuration
/// as tests/test_golden_fixture.cpp) through the optimized pipeline; every
/// window's integer decision must match the committed expectation.
bool golden_identity_gate() {
  const std::string dir = REVEAL_GOLDEN_DATA_DIR;
  const sca::TraceSet set = sca::TraceSet::load(dir + "/golden_trace.bin");
  if (set.size() != 1) return false;

  std::vector<ExpectedWindow> expected;
  std::ifstream in(dir + "/golden_expected.txt");
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ExpectedWindow w;
    if (std::sscanf(line.c_str(), "%zu %d %d %d %lld", &w.index, &w.sign, &w.value,
                    &w.quality, &w.truth) != 5)
      return false;
    expected.push_back(w);
  }

  core::CampaignConfig capture_cfg;
  capture_cfg.n = 16;
  capture_cfg.num_workers = 0;
  if (expected.size() != capture_cfg.n) return false;

  core::CampaignConfig train_cfg;
  train_cfg.n = 64;
  train_cfg.num_workers = 0;
  core::SamplerCampaign profiler(train_cfg);
  core::AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  core::RevealAttack attack(acfg);
  attack.train(profiler.collect_windows(120, /*seed_base=*/1));

  const core::RobustCaptureResult res = attack.attack_capture_robust(
      set[0].samples, capture_cfg.n, capture_cfg.segmentation);
  if (res.guesses.size() != expected.size()) return false;
  for (const ExpectedWindow& w : expected) {
    const core::CoefficientGuess& g = res.guesses[w.index];
    if (g.sign != w.sign || g.value != w.value || static_cast<int>(g.quality) != w.quality)
      return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Analysis-plane leg inputs
// --------------------------------------------------------------------------

bool segments_equal(const std::vector<sca::Segment>& a,
                    const std::vector<sca::Segment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].burst_begin != b[i].burst_begin || a[i].burst_end != b[i].burst_end ||
        a[i].window_begin != b[i].window_begin || a[i].window_end != b[i].window_end)
      return false;
  }
  return true;
}

/// Fast vs reference sweep result: everything except `attempts` (the fast
/// path skips duplicate candidates by design) must match bit-for-bit.
bool sweep_results_equal(const sca::SegmentationResult& fast,
                         const sca::SegmentationResult& ref) {
  return fast.status == ref.status && segments_equal(fast.segments, ref.segments) &&
         fast.window_quality == ref.window_quality &&
         fast.config.smooth_window == ref.config.smooth_window &&
         fast.config.threshold == ref.config.threshold &&
         fast.config.min_burst_length == ref.config.min_burst_length &&
         fast.burst_consistency == ref.burst_consistency;
}

/// A jittery alignment pair: a noisy burst pattern and a shifted noisy copy.
struct AlignmentPair {
  std::vector<double> reference;
  std::vector<double> trace;
};

AlignmentPair make_alignment_pair(std::size_t length, std::ptrdiff_t shift,
                                  std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  AlignmentPair p;
  p.reference.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double burst = (i / 96) % 3 == 0 ? 2.5 : 0.3;
    p.reference[i] = burst + rng.gaussian(0.0, 0.25);
  }
  p.trace = sca::apply_shift(p.reference, shift);
  for (double& v : p.trace) v += rng.gaussian(0.0, 0.1);
  return p;
}

/// A fixed-seed LLL instance: near-diagonal with dense noise, the shape the
/// DBDD embedding produces after hint intersection.
lattice::Basis make_lll_basis(std::size_t n, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = rng.uniform_int(-50, 50);
    basis[i][i] += 150;
  }
  return basis;
}

// --------------------------------------------------------------------------
// Observability-overhead leg inputs
// --------------------------------------------------------------------------

bool guesses_equal(const core::CoefficientGuess& a, const core::CoefficientGuess& b) {
  return a.sign == b.sign && a.value == b.value && a.support == b.support &&
         a.posterior == b.posterior && a.quality == b.quality &&
         a.sign_trusted == b.sign_trusted && a.sign_margin == b.sign_margin;
}

/// Bit-equality of two campaign results over every field the equivalence
/// suite pins (guesses, hints, report counters, bikz/bits).
bool campaign_results_equal(const core::RecoveryCampaignResult& a,
                            const core::RecoveryCampaignResult& b) {
  if (a.captures.size() != b.captures.size()) return false;
  for (std::size_t i = 0; i < a.captures.size(); ++i) {
    const auto& sa = a.captures[i].segmentation;
    const auto& sb = b.captures[i].segmentation;
    if (sa.status != sb.status || sa.attempts != sb.attempts ||
        sa.burst_consistency != sb.burst_consistency ||
        sa.window_quality != sb.window_quality)
      return false;
    if (a.captures[i].guesses.size() != b.captures[i].guesses.size()) return false;
    for (std::size_t g = 0; g < a.captures[i].guesses.size(); ++g) {
      if (!guesses_equal(a.captures[i].guesses[g], b.captures[i].guesses[g])) return false;
    }
  }
  if (a.hints != b.hints) return false;
  if (a.hint_totals.perfect != b.hint_totals.perfect ||
      a.hint_totals.approximate != b.hint_totals.approximate ||
      a.hint_totals.sign_only != b.hint_totals.sign_only ||
      a.hint_totals.skipped != b.hint_totals.skipped ||
      a.hint_totals.mean_residual_variance != b.hint_totals.mean_residual_variance)
    return false;
  const auto& ra = a.report;
  const auto& rb = b.report;
  return ra.expected_windows == rb.expected_windows &&
         ra.recovered_windows == rb.recovered_windows &&
         ra.segmentation_status == rb.segmentation_status &&
         ra.segmentation_attempts == rb.segmentation_attempts &&
         ra.burst_consistency == rb.burst_consistency &&
         ra.ok_guesses == rb.ok_guesses &&
         ra.low_confidence_guesses == rb.low_confidence_guesses &&
         ra.abstained_guesses == rb.abstained_guesses &&
         ra.perfect_hints == rb.perfect_hints &&
         ra.approximate_hints == rb.approximate_hints &&
         ra.sign_only_hints == rb.sign_only_hints &&
         ra.dropped_hints == rb.dropped_hints && ra.bikz == rb.bikz &&
         ra.bits == rb.bits;
}

// --------------------------------------------------------------------------
// --json harness
// --------------------------------------------------------------------------

int run_json_harness(bool smoke, core::VictimTier capture_tier) {
  // Block tier vs the decode-per-step anchor, and vs the predecode tier it
  // sits above: the tentpole gates of the translated execution tier.
  constexpr double kVictimBlockVsReferenceGate = 10.0;
  constexpr double kVictimBlockVsPredecodeGate = 3.5;
  constexpr double kTemplateSpeedupGate = 3.0;
  constexpr double kSegSweepSpeedupGate = 3.0;
  constexpr double kAlignSpeedupGate = 4.0;
  constexpr double kLllSpeedupGate = 2.0;
  constexpr double kObsOverheadGate = 0.02;  // observability must cost < 2%

  // --- victim simulation: the full execution ladder -----------------------
  // All three tiers are timed every run (reference -> predecode -> block) so
  // the regression gate tracks the whole ladder; min over repeated passes
  // keeps the tier ratios stable against scheduler noise.
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  const std::size_t victim_iters = smoke ? 20 : 300;
  std::uint64_t sink = 0;
  const auto time_victim_tier = [&](core::VictimTier tier) {
    riscv::Machine m(prog.memory_bytes);
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < (smoke ? 2 : 3); ++pass) {
      best = std::min(
          best, time_ns_per_op(
                    [&](std::size_t i) {
                      const auto run = core::run_victim_tier(
                          prog, m, static_cast<std::uint32_t>(i + 1), tier);
                      sink += run.cycles;
                    },
                    victim_iters));
    }
    return best;
  };
  const double victim_block_ns = time_victim_tier(core::VictimTier::kBlock);
  const double victim_pre_ns = time_victim_tier(core::VictimTier::kPredecode);
  const double victim_ref_ns = time_victim_tier(core::VictimTier::kReference);
  const double victim_speedup = victim_block_ns > 0.0 ? victim_ref_ns / victim_block_ns : 0.0;
  const double victim_speedup_pre =
      victim_block_ns > 0.0 ? victim_pre_ns / victim_block_ns : 0.0;

  // --- template scoring: shared-work factorization vs per-class loops ----
  const std::size_t dim = 12;
  const std::size_t num_classes = 25;  // sign classes + value classes of the attack
  const sca::TemplateSet templates = make_template_set(num_classes, dim, 99);
  num::Xoshiro256StarStar obs_rng(7);
  std::vector<std::vector<double>> observations(smoke ? 64 : 512);
  for (auto& obs : observations) {
    obs.resize(dim);
    for (double& v : obs) v = obs_rng.gaussian(0.0, 2.0);
  }
  const std::size_t score_iters = smoke ? 2000 : 40000;
  double fsink = 0.0;
  const double score_fast_ns = time_ns_per_op(
      [&](std::size_t i) {
        const auto d = templates.mahalanobis(observations[i % observations.size()]);
        fsink += d.back();
      },
      score_iters);
  const double score_ref_ns = time_ns_per_op(
      [&](std::size_t i) {
        const auto d = templates.mahalanobis_reference(observations[i % observations.size()]);
        fsink += d.back();
      },
      score_iters);
  const double score_speedup = score_ref_ns > 0.0 ? score_ref_ns / score_fast_ns : 0.0;
  double score_max_delta = 0.0;
  for (const auto& obs : observations) {
    const auto fast = templates.mahalanobis(obs);
    const auto ref = templates.mahalanobis_reference(obs);
    for (std::size_t c = 0; c < fast.size(); ++c) {
      score_max_delta = std::max(score_max_delta, std::fabs(fast[c] - ref[c]));
    }
  }

  // --- capture + segmentation throughput ---------------------------------
  // The capture leg runs at the tier selected by --tier (default: block,
  // the campaign default), reported as per-capture ms / captures-per-second
  // — the acquisition-plane throughput the tier ladder exists to buy.
  core::CampaignConfig cfg = bench::default_campaign(64);
  cfg.num_workers = 0;
  cfg.victim_tier = capture_tier;
  core::SamplerCampaign campaign(cfg);
  core::FullCapture cap;
  const double capture_ns = time_ns_per_op(
      [&](std::size_t i) {
        campaign.capture_into(i + 1, cap);
        sink += cap.trace.size();
      },
      smoke ? 10 : 100);
  const double capture_ms = capture_ns / 1e6;
  const double captures_per_second = capture_ns > 0.0 ? 1e9 / capture_ns : 0.0;
  campaign.capture_into(12345, cap);
  const double segment_ns = time_ns_per_op(
      [&](std::size_t) {
        const auto segs = sca::segment_trace(cap.trace, cfg.segmentation);
        sink += segs.size();
      },
      smoke ? 20 : 200);

  // --- robust segmentation sweep: shared-work vs full re-segmentation ----
  // A mismatched expected count forces the complete sweep (the worst case
  // the degraded-capture pipeline hits); the fast path smooths once per
  // distinct window and scans bursts once per (window, threshold).
  const std::size_t sweep_expected = cfg.n + 5;
  // Min over alternating short windows: one long window per leg lets a
  // single scheduling episode land on just one side and swing the ratio
  // across the gate.
  double sweep_fast_ns = std::numeric_limits<double>::infinity();
  double sweep_ref_ns = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < (smoke ? 1 : 6); ++pass) {
    sweep_fast_ns = std::min(
        sweep_fast_ns, time_ns_per_op(
                           [&](std::size_t) {
                             const auto res =
                                 sca::segment_trace_robust(cap.trace, sweep_expected);
                             sink += res.attempts;
                           },
                           smoke ? 3 : 4));
    sweep_ref_ns = std::min(
        sweep_ref_ns, time_ns_per_op(
                          [&](std::size_t) {
                            const auto res = sca::segment_trace_robust_reference(
                                cap.trace, sweep_expected);
                            sink += res.attempts;
                          },
                          smoke ? 3 : 2));
  }
  const double sweep_speedup = sweep_fast_ns > 0.0 ? sweep_ref_ns / sweep_fast_ns : 0.0;
  bool sweep_identical = true;
  for (const std::size_t expected : {cfg.n, sweep_expected, cfg.n / 2}) {
    const auto fast = sca::segment_trace_robust(cap.trace, expected);
    const auto ref = sca::segment_trace_robust_reference(cap.trace, expected);
    if (!sweep_results_equal(fast, ref)) sweep_identical = false;
  }

  // --- alignment: FFT screen + exact re-score vs O(L * lag) scan ---------
  const std::size_t align_len = smoke ? 16384 : 65536;
  const std::size_t align_shift = smoke ? 256 : 512;
  const AlignmentPair align_pair = make_alignment_pair(align_len, 137, 21);
  const double align_fast_ns = time_ns_per_op(
      [&](std::size_t) {
        const auto r =
            sca::find_alignment(align_pair.reference, align_pair.trace, align_shift);
        sink += static_cast<std::uint64_t>(r.shift + 4096);
      },
      smoke ? 2 : 12);
  const double align_ref_ns = time_ns_per_op(
      [&](std::size_t) {
        const auto r = sca::find_alignment_reference(align_pair.reference,
                                                     align_pair.trace, align_shift);
        sink += static_cast<std::uint64_t>(r.shift + 4096);
      },
      smoke ? 2 : 12);
  const double align_speedup = align_fast_ns > 0.0 ? align_ref_ns / align_fast_ns : 0.0;
  bool align_identical = true;
  for (std::uint64_t seed = 31; seed <= 35; ++seed) {
    const AlignmentPair p = make_alignment_pair(
        8192, static_cast<std::ptrdiff_t>(seed % 7) * 29 - 87, seed);
    const auto fast = sca::find_alignment(p.reference, p.trace, 192);
    const auto ref = sca::find_alignment_reference(p.reference, p.trace, 192);
    if (fast.shift != ref.shift || fast.correlation != ref.correlation)
      align_identical = false;
  }

  // --- LLL: flat incremental GSO vs full recompute per perturbation ------
  const std::size_t lll_n = smoke ? 16 : 28;
  const lattice::Basis lll_basis = make_lll_basis(lll_n, 5);
  const double lll_fast_ns = time_ns_per_op(
      [&](std::size_t) {
        lattice::Basis b = lll_basis;
        sink += lattice::lll_reduce(b);
      },
      smoke ? 2 : 8);
  const double lll_ref_ns = time_ns_per_op(
      [&](std::size_t) {
        lattice::Basis b = lll_basis;
        sink += lattice::lll_reduce_reference(b);
      },
      smoke ? 2 : 8);
  const double lll_speedup = lll_fast_ns > 0.0 ? lll_ref_ns / lll_fast_ns : 0.0;
  bool lll_identical = true;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    lattice::Basis fast_b = make_lll_basis(smoke ? 12 : 20, seed);
    lattice::Basis ref_b = fast_b;
    const std::size_t fast_swaps = lattice::lll_reduce(fast_b);
    const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_b);
    if (fast_b != ref_b || fast_swaps != ref_swaps) lll_identical = false;
  }

  // --- observability overhead: instrumented vs null-tracer campaign ------
  // The same degradation-aware campaign runs with and without a
  // CampaignDiagnostics sink. The diag-off leg is the NullSpanTracer
  // instantiation (the pre-observability code by construction); the gate
  // bounds what the instrumented instantiation may cost on top and requires
  // the two results to be bit-identical.
  core::CampaignConfig obs_cfg = bench::default_campaign(64);
  obs_cfg.num_workers = 0;
  obs_cfg.faults.jitter_sigma = 0.4;
  obs_cfg.faults.dropout_rate = 0.02;
  obs_cfg.faults.glitch_count = 2;
  core::SamplerCampaign obs_profiler(bench::default_campaign(64));
  core::AttackConfig obs_acfg;
  obs_acfg.abstain_margin = 0.30;
  obs_acfg.low_confidence_margin = 0.45;
  obs_acfg.value_commit_threshold = 0.05;
  obs_acfg.sign_fit_threshold = 2.5;
  obs_acfg.value_fit_threshold = 4.0;
  core::RevealAttack obs_attack(obs_acfg);
  obs_attack.train(obs_profiler.collect_windows(smoke ? 60 : 120, /*seed_base=*/1));
  lwe::DbddParams obs_params;
  obs_params.secret_dim = 1024;
  obs_params.error_dim = 1024;
  obs_params.q = 132120577.0;
  obs_params.secret_variance = 3.2 * 3.2;
  obs_params.error_variance = 3.2 * 3.2;
  const core::HintPolicy obs_policy;
  const std::vector<std::uint64_t> obs_seeds =
      core::CampaignRunner::stream_seeds(777, smoke ? 3 : 8);
  core::CampaignRunner obs_runner(0);
  // Min over many short alternating windows: the overhead gate compares two
  // legs of identical work, so scheduler noise — not the instrumentation —
  // is the main source of spread. The block execution tier cut campaign
  // wall-time enough that a single noisy long window moves the ratio by
  // several percent, so each window times exactly one campaign and the min
  // per leg converges on the true floor regardless of when the noise lands.
  const int obs_passes = smoke ? 4 : 24;
  const auto run_obs_off = [&] {
    const auto r = obs_runner.run_recovery_campaign(obs_attack, obs_cfg, obs_seeds,
                                                    obs_policy, obs_params);
    sink += r.report.recovered_windows;
  };
  const auto run_obs_on = [&] {
    core::CampaignDiagnostics diag;
    const auto r = obs_runner.run_recovery_campaign(obs_attack, obs_cfg, obs_seeds,
                                                    obs_policy, obs_params, &diag);
    sink += r.report.recovered_windows;
    sink += diag.registry.counter_value("capture.count");
  };
  const auto time_once = [](const auto& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  };
  run_obs_off();  // warm both instantiations before the timed windows
  run_obs_on();
  double obs_off_ns = std::numeric_limits<double>::infinity();
  double obs_on_ns = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < obs_passes; ++pass) {
    obs_off_ns = std::min(obs_off_ns, time_once(run_obs_off));
    obs_on_ns = std::min(obs_on_ns, time_once(run_obs_on));
  }
  const double obs_overhead = obs_off_ns > 0.0 ? obs_on_ns / obs_off_ns - 1.0 : 0.0;
  core::CampaignDiagnostics obs_diag;
  const core::RecoveryCampaignResult obs_plain = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params);
  const core::RecoveryCampaignResult obs_instrumented = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params, &obs_diag);
  const bool obs_identical =
      campaign_results_equal(obs_plain, obs_instrumented) &&
      obs_diag.registry.counter_value("capture.count") == obs_seeds.size();

  // --- NTT throughput ----------------------------------------------------
  const seal::Modulus q(132120577);
  const seal::NttTables tables(1024, q);
  num::Xoshiro256StarStar ntt_rng(1);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = ntt_rng() % q.value();
  const double ntt_ns = time_ns_per_op(
      [&](std::size_t) {
        tables.forward_transform(poly.data());
        sink += poly[0];
      },
      smoke ? 200 : 4000);

  // --- byte-identity gates ----------------------------------------------
  const bool victim_identical = victim_identity_gate();
  const bool golden_identical = golden_identity_gate();
  const bool identity_ok = victim_identical && golden_identical && sweep_identical &&
                           align_identical && lll_identical && obs_identical;
  const bool speedups_ok =
      victim_speedup >= kVictimBlockVsReferenceGate &&
      victim_speedup_pre >= kVictimBlockVsPredecodeGate &&
      score_speedup >= kTemplateSpeedupGate &&
      sweep_speedup >= kSegSweepSpeedupGate && align_speedup >= kAlignSpeedupGate &&
      lll_speedup >= kLllSpeedupGate &&
      obs_overhead <= kObsOverheadGate;
  const bool passed = identity_ok && (smoke || speedups_ok);

  // Non-default capture tiers write tier-suffixed files so the per-tier
  // smoke tests can run in parallel without clobbering the regression
  // gate's BENCH_perf.json.
  char out_path[64];
  if (capture_tier == core::VictimTier::kBlock) {
    std::snprintf(out_path, sizeof out_path, "BENCH_perf.json");
  } else {
    std::snprintf(out_path, sizeof out_path, "BENCH_perf_%s.json",
                  tier_name(capture_tier));
  }
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(out,
               "  \"victim_sim\": {\"block_ns_per_run\": %.1f, "
               "\"predecode_ns_per_run\": %.1f, \"reference_ns_per_run\": %.1f, "
               "\"speedup\": %.2f, \"speedup_vs_predecode\": %.2f, \"identical\": %s},\n",
               victim_block_ns, victim_pre_ns, victim_ref_ns, victim_speedup,
               victim_speedup_pre, victim_identical ? "true" : "false");
  std::fprintf(out,
               "  \"template_scoring\": {\"fast_ns_per_obs\": %.1f, "
               "\"baseline_ns_per_obs\": %.1f, \"speedup\": %.2f, \"classes\": %zu, "
               "\"dim\": %zu, \"max_abs_delta\": %.3e},\n",
               score_fast_ns, score_ref_ns, score_speedup, num_classes, dim,
               score_max_delta);
  std::fprintf(out,
               "  \"capture\": {\"tier\": \"%s\", \"ns_per_capture\": %.1f, "
               "\"ms_per_capture\": %.4f, \"captures_per_second\": %.1f},\n",
               tier_name(capture_tier), capture_ns, capture_ms, captures_per_second);
  std::fprintf(out, "  \"segmentation\": {\"ns_per_trace\": %.1f},\n", segment_ns);
  std::fprintf(out,
               "  \"segmentation_sweep\": {\"fast_ns_per_sweep\": %.1f, "
               "\"baseline_ns_per_sweep\": %.1f, \"speedup\": %.2f, \"identical\": %s},\n",
               sweep_fast_ns, sweep_ref_ns, sweep_speedup,
               sweep_identical ? "true" : "false");
  std::fprintf(out,
               "  \"alignment_fft\": {\"length\": %zu, \"max_shift\": %zu, "
               "\"fast_ns_per_align\": %.1f, \"baseline_ns_per_align\": %.1f, "
               "\"speedup\": %.2f, \"identical\": %s},\n",
               align_len, align_shift, align_fast_ns, align_ref_ns, align_speedup,
               align_identical ? "true" : "false");
  std::fprintf(out,
               "  \"lll_flat\": {\"dimension\": %zu, \"fast_ns_per_reduce\": %.1f, "
               "\"baseline_ns_per_reduce\": %.1f, \"speedup\": %.2f, \"identical\": %s},\n",
               lll_n, lll_fast_ns, lll_ref_ns, lll_speedup,
               lll_identical ? "true" : "false");
  std::fprintf(out,
               "  \"observability\": {\"captures\": %zu, \"off_ns_per_campaign\": %.1f, "
               "\"on_ns_per_campaign\": %.1f, \"overhead\": %.4f, "
               "\"overhead_max\": %.4f, \"identical\": %s},\n",
               obs_seeds.size(), obs_off_ns, obs_on_ns, obs_overhead, kObsOverheadGate,
               obs_identical ? "true" : "false");
  std::fprintf(out, "  \"ntt_forward_1024\": {\"ns_per_transform\": %.1f},\n", ntt_ns);
  std::fprintf(out, "  \"golden_recovery_identical\": %s,\n",
               golden_identical ? "true" : "false");
  std::fprintf(out,
               "  \"gates\": {\"victim_speedup_min\": %.1f, "
               "\"victim_vs_predecode_speedup_min\": %.1f, \"template_speedup_min\": "
               "%.1f, \"segmentation_sweep_speedup_min\": %.1f, "
               "\"alignment_speedup_min\": %.1f, "
               "\"lll_speedup_min\": %.1f, "
               "\"obs_overhead_max\": %.2f, "
               "\"enforced\": %s, \"passed\": %s}\n}\n",
               kVictimBlockVsReferenceGate, kVictimBlockVsPredecodeGate,
               kTemplateSpeedupGate, kSegSweepSpeedupGate,
               kAlignSpeedupGate, kLllSpeedupGate,
               kObsOverheadGate, smoke ? "false" : "true",
               passed ? "true" : "false");
  std::fclose(out);

  // Printing the sinks keeps the timed work observable (nothing for the
  // optimizer to elide).
  std::printf("sinks:            %llu %g\n", static_cast<unsigned long long>(sink), fsink);

  std::printf("victim sim:       block %.0f ns/run  predecode %.0f ns/run  reference "
              "%.0f ns/run  speedup %.2fx vs ref, %.2fx vs predecode\n",
              victim_block_ns, victim_pre_ns, victim_ref_ns, victim_speedup,
              victim_speedup_pre);
  std::printf("template scoring: fast %.0f ns/obs  baseline %.0f ns/obs  speedup %.2fx\n",
              score_fast_ns, score_ref_ns, score_speedup);
  std::printf("segmentation sweep: fast %.0f ns  baseline %.0f ns  speedup %.2fx\n",
              sweep_fast_ns, sweep_ref_ns, sweep_speedup);
  std::printf("alignment (L=%zu): fast %.0f ns  baseline %.0f ns  speedup %.2fx\n",
              align_len, align_fast_ns, align_ref_ns, align_speedup);
  std::printf("lll (n=%zu):      fast %.0f ns  baseline %.0f ns  speedup %.2fx\n", lll_n,
              lll_fast_ns, lll_ref_ns, lll_speedup);
  std::printf("observability:    off %.0f ns  on %.0f ns  overhead %.2f%% (max %.0f%%)\n",
              obs_off_ns, obs_on_ns, 100.0 * obs_overhead, 100.0 * kObsOverheadGate);
  std::printf("capture (%s tier) %.3f ms/capture  %.1f captures/s  "
              "segmentation %.0f ns  ntt-1024 %.0f ns\n",
              tier_name(capture_tier), capture_ms, captures_per_second, segment_ns, ntt_ns);
  std::printf("identity: victim events %s, golden recovery %s, sweep %s, alignment %s, "
              "lll %s, observability %s\n",
              victim_identical ? "ok" : "MISMATCH", golden_identical ? "ok" : "MISMATCH",
              sweep_identical ? "ok" : "MISMATCH", align_identical ? "ok" : "MISMATCH",
              lll_identical ? "ok" : "MISMATCH", obs_identical ? "ok" : "MISMATCH");
  if (!passed) {
    std::fprintf(stderr, "bench_perf: gate FAILED (identity %s, speedups %s)\n",
                 identity_ok ? "ok" : "violated", speedups_ok ? "ok" : "below threshold");
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::VictimTier tier = core::VictimTier::kBlock;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--tier") != 0) continue;
    const char* value = argv[i + 1];
    if (std::strcmp(value, "reference") == 0) {
      tier = core::VictimTier::kReference;
    } else if (std::strcmp(value, "predecode") == 0) {
      tier = core::VictimTier::kPredecode;
    } else if (std::strcmp(value, "block") == 0) {
      tier = core::VictimTier::kBlock;
    } else {
      std::fprintf(stderr, "bench_perf: unknown --tier '%s' "
                           "(expected reference, predecode or block)\n", value);
      return 2;
    }
  }
  (void)bench::has_flag(argc, argv, "--json");  // the JSON is always written
  return run_json_harness(bench::has_flag(argc, argv, "--smoke"), tier);
}
