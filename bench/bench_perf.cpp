// Hot-path regression harness for the core primitives:
//
//   bench_perf [--smoke]
//
// Times the victim simulator's execution ladder (decode-per-step reference
// vs basic-block translation) and the shared-work
// template scoring against their pre-optimization references, plus
// segmentation / capture / NTT throughput, and writes BENCH_perf.json. The
// run fails (nonzero exit) if the fast paths are not byte-identical: every
// tier must produce identical InstrEvent streams, cycle counts and decoded
// noise, and the golden fixture's committed recovery
// (tests/data/golden_expected.txt) must replay exactly through the
// optimized pipeline. --smoke shrinks the iteration counts and skips the
// speedup thresholds (identity is still enforced) so CTest can run the gate
// quickly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/victim.hpp"
#include "lwe/dbdd.hpp"
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

/// Both tiers of the execution ladder over several seeds: event streams,
/// cycle/instruction counters and decoded noise must all match the
/// decode-per-step anchor exactly.
bool victim_identity_gate() {
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  riscv::Machine ref_machine(prog.memory_bytes);
  riscv::Machine blk_machine(prog.memory_bytes);
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    EventCollector ref_events;
    EventCollector blk_events;
    const core::VictimRun ref = core::run_victim_tier(
        prog, ref_machine, seed, core::VictimTier::kReference, &ref_events);
    const core::VictimRun blk = core::run_victim_tier(
        prog, blk_machine, seed, core::VictimTier::kBlock, &blk_events);
    if (blk.noise != ref.noise || blk.cycles != ref.cycles ||
        blk.instructions != ref.instructions ||
        blk_events.events.size() != ref_events.events.size())
      return false;
    for (std::size_t i = 0; i < blk_events.events.size(); ++i) {
      if (!events_equal(blk_events.events[i], ref_events.events[i])) return false;
    }
  }
  return true;
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
  core::RevealAttack attack(bench::gated_attack_config());
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

// --------------------------------------------------------------------------
// Observability-overhead leg inputs
// --------------------------------------------------------------------------

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
        sa.window_quality != sb.window_quality ||
        a.captures[i].guesses != b.captures[i].guesses)
      return false;
  }
  return a.hints == b.hints && a.hint_totals == b.hint_totals && a.report == b.report;
}

// --------------------------------------------------------------------------
// --json harness
// --------------------------------------------------------------------------

int run_json_harness(bool smoke) {
  bench::GateTable gates(smoke);
  bench::JsonWriter json;
  json.text("bench", "perf").flag("smoke", smoke);
  // Every timed leg folds its result into `sink`, printed at the end, so
  // the optimizer cannot elide the work.
  std::uint64_t sink = 0;
  double fsink = 0.0;

  // --- victim simulation: the execution ladder ----------------------------
  // Both tiers are timed every run (block, reference), each on its own
  // machine, through the bare nullptr-observer route.
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  const std::size_t victim_iters = smoke ? 20 : 300;
  riscv::Machine block_machine(prog.memory_bytes);
  riscv::Machine ref_machine(prog.memory_bytes);
  const auto victim_leg = [&](riscv::Machine& m, core::VictimTier tier) {
    return bench::leg(victim_iters, [&, tier](std::size_t i) {
      sink += core::run_victim_tier(prog, m, static_cast<std::uint32_t>(i + 1), tier).cycles;
    });
  };
  const auto [victim_block, victim_ref] =
      bench::time_legs(smoke, victim_leg(block_machine, core::VictimTier::kBlock),
                       victim_leg(ref_machine, core::VictimTier::kReference));
  const double victim_speedup = bench::speedup(victim_block, victim_ref);
  const bool victim_identical = victim_identity_gate();
  // Block tier vs the decode-per-step anchor: the gate of the translated
  // execution tier.
  gates.at_least("victim_speedup_min", victim_speedup, 10.0);
  gates.require("victim_identical", victim_identical);
  json.object("victim_sim")
      .timing("block_ns_per_run", victim_block).timing("reference_ns_per_run", victim_ref)
      .num("speedup", victim_speedup, "%.2f").flag("identical", victim_identical).end();

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
  const auto [score_fast, score_ref] = bench::time_legs(
      smoke,
      bench::leg(score_iters,
                 [&](std::size_t i) {
                   fsink += templates.mahalanobis(observations[i % observations.size()]).back();
                 }),
      bench::leg(score_iters, [&](std::size_t i) {
        fsink +=
            templates.mahalanobis_reference(observations[i % observations.size()]).back();
      }));
  const double score_speedup = bench::speedup(score_fast, score_ref);
  double score_max_delta = 0.0;
  for (const auto& obs : observations) {
    const auto fast = templates.mahalanobis(obs);
    const auto ref = templates.mahalanobis_reference(obs);
    for (std::size_t c = 0; c < fast.size(); ++c) {
      score_max_delta = std::max(score_max_delta, std::fabs(fast[c] - ref[c]));
    }
  }
  gates.at_least("template_speedup_min", score_speedup, 3.0);
  json.object("template_scoring")
      .timing("fast_ns_per_obs", score_fast).timing("baseline_ns_per_obs", score_ref)
      .num("speedup", score_speedup, "%.2f").count("classes", num_classes).count("dim", dim)
      .num("max_abs_delta", score_max_delta, "%.3e").end();

  // --- capture + segmentation throughput ---------------------------------
  // Per-capture ms and captures per second on the block tier every
  // campaign uses: the acquisition-plane throughput.
  core::CampaignConfig cfg = bench::default_campaign(64);
  cfg.num_workers = 0;
  core::SamplerCampaign campaign(cfg);
  core::FullCapture cap;
  const bench::Timing capture = bench::time_leg(smoke, smoke ? 10 : 100, [&](std::size_t i) {
    campaign.capture_into(i + 1, cap);
    sink += cap.trace.size();
  });
  json.object("capture").text("tier", "block").timing("ns_per_capture", capture)
      .num("ms_per_capture", capture.min_ns / 1e6, "%.4f")
      .num("captures_per_second", capture.min_ns > 0.0 ? 1e9 / capture.min_ns : 0.0, "%.1f")
      .end();
  campaign.capture_into(12345, cap);
  const bench::Timing segment = bench::time_leg(smoke, smoke ? 20 : 200, [&](std::size_t) {
    sink += sca::segment_trace(cap.trace, cfg.segmentation).size();
  });
  json.object("segmentation").timing("ns_per_trace", segment).end();

  // --- robust segmentation sweep: shared-work vs full re-segmentation ----
  // A mismatched expected count forces the complete sweep (the worst case
  // the degraded-capture pipeline hits); the fast path finds the bursts of
  // every (window, threshold) pair in one fused pass over the trace.
  const std::size_t sweep_expected = cfg.n + 5;
  const auto [sweep_fast, sweep_ref] = bench::time_legs(
      smoke,
      bench::leg(smoke ? 3 : 4,
                 [&](std::size_t) {
                   sink += sca::segment_trace_robust(cap.trace, sweep_expected).attempts;
                 }),
      bench::leg(smoke ? 3 : 2, [&](std::size_t) {
        sink += sca::segment_trace_robust_reference(cap.trace, sweep_expected).attempts;
      }));
  const double sweep_speedup = bench::speedup(sweep_fast, sweep_ref);
  bool sweep_identical = true;
  for (const std::size_t expected : {cfg.n, sweep_expected, cfg.n / 2}) {
    const auto fast = sca::segment_trace_robust(cap.trace, expected);
    const auto ref = sca::segment_trace_robust_reference(cap.trace, expected);
    if (!sweep_results_equal(fast, ref)) sweep_identical = false;
  }
  gates.at_least("segmentation_sweep_speedup_min", sweep_speedup, 3.0);
  gates.require("segmentation_sweep_identical", sweep_identical);
  json.object("segmentation_sweep")
      .timing("fast_ns_per_sweep", sweep_fast).timing("baseline_ns_per_sweep", sweep_ref)
      .num("speedup", sweep_speedup, "%.2f").flag("identical", sweep_identical).end();

  // --- alignment: FFT screen + exact re-score vs O(L * lag) scan ---------
  const std::size_t align_len = smoke ? 16384 : 65536;
  const std::size_t align_shift = smoke ? 256 : 512;
  const std::size_t align_iters = smoke ? 2 : 12;
  const AlignmentPair align_pair = make_alignment_pair(align_len, 137, 21);
  const auto align_leg = [&](auto find) {
    return bench::leg(align_iters, [&, find](std::size_t) {
      sink += static_cast<std::uint64_t>(
          find(align_pair.reference, align_pair.trace, align_shift).shift + 4096);
    });
  };
  const auto [align_fast, align_ref] =
      bench::time_legs(smoke, align_leg(sca::find_alignment),
                       align_leg(sca::find_alignment_reference));
  const double align_speedup = bench::speedup(align_fast, align_ref);
  bool align_identical = true;
  for (std::uint64_t seed = 31; seed <= 35; ++seed) {
    const AlignmentPair p = make_alignment_pair(
        8192, static_cast<std::ptrdiff_t>(seed % 7) * 29 - 87, seed);
    const auto fast = sca::find_alignment(p.reference, p.trace, 192);
    const auto ref = sca::find_alignment_reference(p.reference, p.trace, 192);
    if (fast.shift != ref.shift || fast.correlation != ref.correlation)
      align_identical = false;
  }
  gates.at_least("alignment_speedup_min", align_speedup, 4.0);
  gates.require("alignment_identical", align_identical);
  json.object("alignment_fft").count("length", align_len).count("max_shift", align_shift)
      .timing("fast_ns_per_align", align_fast).timing("baseline_ns_per_align", align_ref)
      .num("speedup", align_speedup, "%.2f").flag("identical", align_identical).end();

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
  core::RevealAttack obs_attack(bench::gated_attack_config());
  obs_attack.train(obs_profiler.collect_windows(smoke ? 60 : 120, /*seed_base=*/1));
  const lwe::DbddParams obs_params = bench::seal128_params();
  const core::HintPolicy obs_policy;
  const std::vector<std::uint64_t> obs_seeds =
      core::CampaignRunner::stream_seeds(777, smoke ? 3 : 8);
  core::CampaignRunner obs_runner(0);
  // The two legs do identical work, so host load, not the instrumentation,
  // is the main source of spread. The gate therefore reads the median of
  // per-campaign ratios: the off and on runs of one pair go back to back,
  // in alternating order, so a load drift lands on both halves of a pair
  // alike and a burst of load skews at most a few pairs.
  const std::size_t obs_pairs = smoke ? 3 : 24;
  const auto time_campaign = [&](core::CampaignDiagnostics* diag) {
    const auto t0 = std::chrono::steady_clock::now();
    sink += obs_runner
                .run_recovery_campaign(obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params,
                                       diag)
                .report.recovered_windows;
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> obs_off_ns, obs_on_ns, obs_ratios;
  for (std::size_t pair = 0; pair < obs_pairs; ++pair) {
    core::CampaignDiagnostics diag;
    const bool off_first = pair % 2 == 0;
    const double first = time_campaign(off_first ? nullptr : &diag);
    const double second = time_campaign(off_first ? &diag : nullptr);
    sink += diag.registry.counter_value("capture.count");
    obs_off_ns.push_back(off_first ? first : second);
    obs_on_ns.push_back(off_first ? second : first);
    obs_ratios.push_back(obs_on_ns.back() / obs_off_ns.back());
  }
  const bench::Timing obs_off = bench::timing_of(obs_off_ns);
  const bench::Timing obs_on = bench::timing_of(obs_on_ns);
  const double obs_overhead = bench::timing_of(obs_ratios).median_ns - 1.0;
  core::CampaignDiagnostics obs_diag;
  const core::RecoveryCampaignResult obs_plain = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params);
  const core::RecoveryCampaignResult obs_instrumented = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params, &obs_diag);
  const bool obs_identical =
      campaign_results_equal(obs_plain, obs_instrumented) &&
      obs_diag.registry.counter_value("capture.count") == obs_seeds.size();
  constexpr double kObsOverheadGate = 0.02;  // observability must cost < 2%
  gates.at_most("obs_overhead_max", obs_overhead, kObsOverheadGate);
  gates.require("observability_identical", obs_identical);
  json.object("observability")
      .count("captures", obs_seeds.size()).timing("off_ns_per_campaign", obs_off)
      .timing("on_ns_per_campaign", obs_on).num("overhead", obs_overhead, "%.4f")
      .num("overhead_max", kObsOverheadGate, "%.4f").flag("identical", obs_identical).end();

  // --- NTT throughput ----------------------------------------------------
  const seal::Modulus q(132120577);
  const seal::NttTables tables(1024, q);
  num::Xoshiro256StarStar ntt_rng(1);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = ntt_rng() % q.value();
  const bench::Timing ntt = bench::time_leg(smoke, smoke ? 200 : 4000, [&](std::size_t) {
    tables.forward_transform(poly.data());
    sink += poly[0];
  });
  json.object("ntt_forward_1024").timing("ns_per_transform", ntt).end();

  const bool golden_identical = golden_identity_gate();
  gates.require("golden_recovery_identical", golden_identical);
  json.flag("golden_recovery_identical", golden_identical);
  gates.write(json);

  std::printf("sinks: %llu %g\n", static_cast<unsigned long long>(sink), fsink);
  std::fputs(json.str().c_str(), stdout);
  const bool written = json.write("BENCH_perf.json");
  return gates.report("bench_perf") && written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_json_harness(bench::has_flag(argc, argv, "--smoke"));
}
