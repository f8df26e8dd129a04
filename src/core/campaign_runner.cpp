#include "core/campaign_runner.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace reveal::core {

namespace {

/// Lazily constructed per-worker SamplerCampaign replicas. Captures are
/// history-independent (run_victim resets the machine and reloads the
/// firmware), so a replica produces bit-identical captures to a shared
/// sequential campaign; each worker touches only its own slot.
class CampaignReplicas {
 public:
  CampaignReplicas(const CampaignConfig& config, std::size_t workers)
      : config_(config),
        replicas_(std::max<std::size_t>(workers, 1)),
        scratch_(replicas_.size()) {}

  SamplerCampaign& for_worker(std::size_t w) {
    if (!replicas_[w]) replicas_[w] = std::make_unique<SamplerCampaign>(config_);
    return *replicas_[w];
  }

  /// Per-worker capture scratch: capture_into() and acquire_into() reuse
  /// its buffers, so a worker's acquisition stops allocating after its
  /// first few captures.
  FullCapture& scratch_for(std::size_t w) { return scratch_[w]; }

  /// Replica-level fault activation counts folded in worker-index order.
  [[nodiscard]] power::FaultStats merged_fault_stats() const noexcept {
    power::FaultStats faults;
    for (const auto& replica : replicas_) {
      if (replica) faults.merge(replica->fault_stats());
    }
    return faults;
  }

 private:
  CampaignConfig config_;
  std::vector<std::unique_ptr<SamplerCampaign>> replicas_;
  std::vector<FullCapture> scratch_;
};

/// Metric handles for one worker's registry, resolved once so the capture
/// loop never does string lookups. Constructing this registers the full
/// counter schema, so even idle workers contribute stable (zero-valued)
/// names to the merged report.
struct CampaignCounters {
  explicit CampaignCounters(obs::Registry& reg)
      : capture_count(reg.counter("capture.count")),
        capture_faulted(reg.counter("capture.faulted")),
        seg_attempts(reg.counter("segmentation.attempts")),
        seg_retries(reg.counter("segmentation.retries")),
        seg_ok(reg.counter("segmentation.ok")),
        seg_recovered(reg.counter("segmentation.recovered")),
        seg_degraded(reg.counter("segmentation.degraded")),
        seg_failed(reg.counter("segmentation.failed")),
        guess_ok(reg.counter("classify.ok")),
        guess_low(reg.counter("classify.low_confidence")),
        guess_abstained(reg.counter("classify.abstained")),
        hints_perfect(reg.counter("hints.perfect")),
        hints_approximate(reg.counter("hints.approximate")),
        hints_sign_only(reg.counter("hints.sign_only")),
        hints_skipped(reg.counter("hints.skipped")),
        trace_samples_max(reg.gauge("capture.trace_samples.max")),
        window_quality(reg.histogram("segmentation.window_quality", 0.0, 1.0, 20)) {}

  obs::Registry::Id capture_count, capture_faulted;
  obs::Registry::Id seg_attempts, seg_retries, seg_ok, seg_recovered, seg_degraded,
      seg_failed;
  obs::Registry::Id guess_ok, guess_low, guess_abstained;
  obs::Registry::Id hints_perfect, hints_approximate, hints_sign_only, hints_skipped;
  obs::Registry::Id trace_samples_max;
  obs::Registry::Id window_quality;
};

/// One worker's private observability partial (merged in worker order).
struct WorkerObs {
  obs::Registry registry;
  obs::SpanTracer tracer;
  sca::ConfusionMatrix confusion;
  CampaignCounters ids{registry};
};

/// Folds one finished capture's outcome into the worker's counters.
void count_capture(WorkerObs& o, const CampaignConfig& config, const FullCapture& cap,
                   const RobustCaptureResult& res, const std::vector<HintRecord>& records) {
  obs::Registry& reg = o.registry;
  const CampaignCounters& ids = o.ids;
  reg.add(ids.capture_count);
  if (config.faults.any()) reg.add(ids.capture_faulted);
  reg.set_max(ids.trace_samples_max, static_cast<double>(cap.trace.size()));

  reg.add(ids.seg_attempts, res.segmentation.attempts);
  if (res.segmentation.attempts > 1)
    reg.add(ids.seg_retries, res.segmentation.attempts - 1);
  switch (res.segmentation.status) {
    case sca::SegmentationStatus::kOk: reg.add(ids.seg_ok); break;
    case sca::SegmentationStatus::kRecovered: reg.add(ids.seg_recovered); break;
    case sca::SegmentationStatus::kDegraded: reg.add(ids.seg_degraded); break;
    case sca::SegmentationStatus::kFailed: reg.add(ids.seg_failed); break;
  }
  for (const double q : res.segmentation.window_quality) reg.observe(ids.window_quality, q);

  for (const CoefficientGuess& g : res.guesses) {
    switch (g.quality) {
      case GuessQuality::kOk: reg.add(ids.guess_ok); break;
      case GuessQuality::kLowConfidence: reg.add(ids.guess_low); break;
      case GuessQuality::kAbstained: reg.add(ids.guess_abstained); break;
    }
  }
  for (const HintRecord& r : records) {
    switch (r.kind) {
      case HintRecord::Kind::kPerfect: reg.add(ids.hints_perfect); break;
      case HintRecord::Kind::kApproximate: reg.add(ids.hints_approximate); break;
      case HintRecord::Kind::kSignOnly: reg.add(ids.hints_sign_only); break;
      case HintRecord::Kind::kSkipped: reg.add(ids.hints_skipped); break;
    }
  }

  // Ground truth travels with the capture, so the per-class confusion of
  // the paper's Table I falls out of the campaign for free — but only when
  // every window produced a guess (a shorted segmentation loses the
  // window <-> coefficient correspondence).
  if (!res.guesses.empty() && res.guesses.size() == cap.noise.size()) {
    for (std::size_t j = 0; j < res.guesses.size(); ++j) {
      o.confusion.add(static_cast<std::int32_t>(cap.noise[j]), res.guesses[j].value);
    }
  }
}

}  // namespace

CampaignRunner::CampaignRunner(std::size_t num_workers) : pool_(num_workers) {}

std::vector<std::uint64_t> CampaignRunner::stream_seeds(std::uint64_t base_seed,
                                                        std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = stream_seed(base_seed, i);
  return seeds;
}

std::vector<WindowRecord> CampaignRunner::collect_windows(const CampaignConfig& config,
                                                          std::size_t runs,
                                                          std::uint64_t seed_base,
                                                          std::size_t* rejected) {
  // Each slot holds one capture's windows (empty + !ok when the
  // segmentation missed the expected count); the windows of accepted
  // captures are appended in capture order afterwards, exactly like the
  // sequential loop in SamplerCampaign::collect_windows.
  struct Slot {
    std::vector<WindowRecord> windows;
    bool ok = false;
  };
  std::vector<Slot> slots(runs);
  CampaignReplicas replicas(config, pool_.num_workers());
  pool_.run_indexed(runs, [&](std::size_t r, std::size_t w) {
    FullCapture& cap = replicas.scratch_for(w);
    replicas.for_worker(w).capture_into(seed_base + r, cap);
    if (cap.segments.size() != config.n) return;
    windows_from_capture(cap, slots[r].windows);
    slots[r].ok = true;
  });

  std::vector<WindowRecord> out;
  out.reserve(runs * config.n);
  std::size_t skipped = 0;
  for (Slot& slot : slots) {
    if (!slot.ok) {
      ++skipped;
      continue;
    }
    for (WindowRecord& w : slot.windows) out.push_back(std::move(w));
  }
  if (rejected != nullptr) *rejected = skipped;
  return out;
}

void CampaignRunner::train(RevealAttack& attack,
                           const std::vector<WindowRecord>& profiling) {
  attack.train(profiling, &pool_);
}

std::vector<CoefficientGuess> CampaignRunner::attack_capture(const RevealAttack& attack,
                                                             const FullCapture& capture) {
  return attack.attack_capture(capture, &pool_);
}

RobustCaptureResult CampaignRunner::attack_capture_robust(
    const RevealAttack& attack, const std::vector<double>& trace,
    std::size_t expected_windows, const sca::SegmentationConfig& seg_config) {
  return attack.attack_capture_robust(trace, expected_windows, seg_config, &pool_);
}

namespace {

/// The one campaign body, templated on whether a diagnostics sink is
/// attached. kDiag=false instantiates with obs::NullSpanTracer and no
/// counter code at all — it *is* the pre-observability pipeline, which is
/// how "observability off changes nothing" holds by construction; the
/// kDiag=true instantiation only ever reads pipeline outputs, so the two
/// return byte-identical results (pinned by the equivalence suite).
template <bool kDiag>
RecoveryCampaignResult run_campaign_impl(WorkerPool& pool, const RevealAttack& attack,
                                         const CampaignConfig& config,
                                         const std::vector<std::uint64_t>& seeds,
                                         const HintPolicy& policy,
                                         const lwe::DbddParams& params,
                                         CampaignDiagnostics* diag) {
  RecoveryCampaignResult out;
  out.captures.resize(seeds.size());
  out.hints.resize(seeds.size());

  // Per-capture stage on the workers. Each capture is one task: the inner
  // per-window attack stays sequential here (nesting run_indexed on the
  // same pool is not allowed), which is the right granularity anyway —
  // captures outnumber workers in every campaign-shaped sweep. The capture
  // is only acquired: the robust sweep segments the trace itself.
  const std::size_t worker_slots = std::max<std::size_t>(pool.num_workers(), 1);
  std::vector<HintTally> tallies(worker_slots);
  CampaignReplicas replicas(config, pool.num_workers());
  std::vector<WorkerObs> worker_obs(kDiag ? worker_slots : 0);
  pool.run_indexed(seeds.size(), [&](std::size_t i, std::size_t w) {
    FullCapture& cap = replicas.scratch_for(w);
    RobustCaptureResult res;
    std::vector<HintRecord> records;
    auto route_records = [&] {
      if (res.segmentation.status != sca::SegmentationStatus::kFailed) {
        records.reserve(res.guesses.size());
        for (const CoefficientGuess& g : res.guesses) {
          records.push_back(route_guess(g, policy));
          tallies[w].add(records.back());
        }
      }
    };
    if constexpr (kDiag) {
      WorkerObs& o = worker_obs[w];
      const auto index = static_cast<std::uint32_t>(i);
      {
        auto span = o.tracer.span(obs::Stage::kCapture, index);
        replicas.for_worker(w).acquire_into(seeds[i], cap);
      }
      res = attack.attack_capture_robust_traced(cap.trace, config.n,
                                                config.segmentation, o.tracer, index);
      {
        auto span = o.tracer.span(obs::Stage::kHints, index);
        route_records();
      }
      count_capture(o, config, cap, res, records);
    } else {
      replicas.for_worker(w).acquire_into(seeds[i], cap);
      res = attack.attack_capture_robust(cap.trace, config.n, config.segmentation);
      route_records();
    }
    out.captures[i] = std::move(res);
    out.hints[i] = std::move(records);
  });

  if constexpr (kDiag) {
    // Fold the per-worker partials in worker-index order (the campaign
    // merge contract) and the replica-level fault stats the same way.
    for (const WorkerObs& o : worker_obs) {
      diag->registry.merge(o.registry);
      diag->tracer.merge(o.tracer);
      diag->confusion.merge(o.confusion);
    }
    const power::FaultStats faults = replicas.merged_fault_stats();
    obs::Registry& reg = diag->registry;
    reg.add(reg.counter("faults.captures"), faults.captures);
    reg.add(reg.counter("faults.dropped_samples"), faults.dropped_samples);
    reg.add(reg.counter("faults.glitch_samples"), faults.glitch_samples);
    reg.add(reg.counter("faults.burst_windows"), faults.burst_windows);
    reg.add(reg.counter("faults.drifted_captures"), faults.drifted_captures);
    reg.add(reg.counter("faults.clipped_samples"), faults.clipped_samples);
    reg.add(reg.counter("faults.misaligned_captures"), faults.misaligned_captures);
    reg.add(reg.counter("faults.warped_captures"), faults.warped_captures);
  }

  // Merge the per-worker counter partials in worker-index order, then
  // cross-check them against an ordered recount. The integer counters of
  // both paths must agree exactly; a mismatch means some accumulation was
  // shared across workers and lost updates.
  HintTally merged;
  for (const HintTally& t : tallies) merged.merge(t);
  HintTally recount;
  for (const auto& records : out.hints) {
    for (const HintRecord& r : records) recount.add(r);
  }
  if (merged.perfect != recount.perfect || merged.approximate != recount.approximate ||
      merged.sign_only != recount.sign_only || merged.skipped != recount.skipped) {
    throw std::logic_error(
        "run_recovery_campaign: per-worker hint tallies diverge from the ordered "
        "recount (lost update in shared accumulation)");
  }
  // The float sum is taken from the recount: capture order is the one order
  // that exists for every worker count, so the summary stays byte-identical.
  out.hint_totals = recount.summary();

  // Estimator integration replays the routed hints in capture order on this
  // thread — its state update is floating-point order-sensitive, so this is
  // the only scheduling-independent way to integrate.
  lwe::DbddEstimator estimator(params);
  lwe::SecurityEstimate estimate;
  {
    auto integrate = [&] {
      for (const auto& records : out.hints) {
        for (const HintRecord& r : records) apply_hint(estimator, r);
      }
      estimate = estimator.estimate();
    };
    if constexpr (kDiag) {
      auto span = diag->tracer.span(obs::Stage::kEstimation);
      integrate();
    } else {
      integrate();
    }
  }

  sca::RecoveryReport& rep = out.report;
  rep.expected_windows = seeds.size() * config.n;
  rep.segmentation_status = sca::SegmentationStatus::kOk;
  double consistency_sum = 0.0;
  for (const RobustCaptureResult& res : out.captures) {
    rep.recovered_windows += res.segmentation.segments.size();
    rep.segmentation_attempts += res.segmentation.attempts;
    consistency_sum += res.segmentation.burst_consistency;
    rep.segmentation_status =
        std::max(rep.segmentation_status, res.segmentation.status);  // worst wins
    for (const CoefficientGuess& g : res.guesses) {
      switch (g.quality) {
        case GuessQuality::kOk: ++rep.ok_guesses; break;
        case GuessQuality::kLowConfidence: ++rep.low_confidence_guesses; break;
        case GuessQuality::kAbstained: ++rep.abstained_guesses; break;
      }
    }
  }
  if (!out.captures.empty())
    rep.burst_consistency = consistency_sum / static_cast<double>(out.captures.size());
  rep.perfect_hints = out.hint_totals.perfect;
  rep.approximate_hints = out.hint_totals.approximate;
  rep.sign_only_hints = out.hint_totals.sign_only;
  rep.dropped_hints = out.hint_totals.skipped;
  rep.bikz = estimate.beta;
  rep.bits = estimate.bits;
  return out;
}

}  // namespace

RecoveryCampaignResult CampaignRunner::run_recovery_campaign(
    const RevealAttack& attack, const CampaignConfig& config,
    const std::vector<std::uint64_t>& seeds, const HintPolicy& policy,
    const lwe::DbddParams& params, CampaignDiagnostics* diag) {
  if (diag != nullptr) {
    return run_campaign_impl<true>(pool_, attack, config, seeds, policy, params, diag);
  }
  return run_campaign_impl<false>(pool_, attack, config, seeds, policy, params, nullptr);
}

}  // namespace reveal::core
