#include "core/campaign_runner.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/campaign_obs.hpp"

namespace reveal::core {

using detail::CampaignReplicas;
using detail::WorkerObs;

CampaignRunner::CampaignRunner(std::size_t num_workers) : pool_(num_workers) {}

std::vector<std::uint64_t> CampaignRunner::stream_seeds(std::uint64_t base_seed,
                                                        std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = stream_seed(base_seed, i);
  return seeds;
}

std::vector<FullCapture> CampaignRunner::capture_many(
    const CampaignConfig& config, const std::vector<std::uint64_t>& seeds) {
  std::vector<FullCapture> out(seeds.size());
  CampaignReplicas replicas(config, pool_.num_workers());
  pool_.run_indexed(seeds.size(), [&](std::size_t i, std::size_t w) {
    // out[i] is the caller-owned slot — capture straight into it.
    replicas.for_worker(w).capture_into(seeds[i], out[i]);
  });
  return out;
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
  // captures outnumber workers in every campaign-shaped sweep.
  const std::size_t worker_slots = std::max<std::size_t>(pool.num_workers(), 1);
  std::vector<HintTally> tallies(worker_slots);
  CampaignReplicas replicas(config, pool.num_workers());
  std::vector<WorkerObs> worker_obs(kDiag ? worker_slots : 0);
  detail::run_capture_stage<kDiag>(pool, attack, config,
                                   std::span<const std::uint64_t>(seeds), policy,
                                   replicas, out.captures, out.hints, tallies,
                                   kDiag ? &worker_obs : nullptr);

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
