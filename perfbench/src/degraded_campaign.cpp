// degraded_campaign: the campaign engine's throughput path under
// acquisition faults. Each op is one CampaignRunner::run_recovery_campaign
// over 1, 2 or 4 fresh n = 1024 sampler-firmware captures on a pool of 1
// worker, with the L3-moderate FaultSpec of bench_fault_tolerance (jitter
// 1.0, dropout 0.05, 4 glitches), attacked with that bench's robust gates
// after clean default-noise profiling. Here the fault injector and the
// segmentation retry sweep do most of the work; at this jitter every window
// abstains (hint_yield ~1e-5, the jitter cliff), and capture_into's own
// segmentation result is computed and then discarded by the campaign.

#include <algorithm>
#include <iterator>

#include "common.hpp"
#include "power/fault_injector.hpp"
#include "sca/segmentation.hpp"

namespace perfbench {
namespace {

using namespace reveal;

constexpr std::size_t kN = 1024;
// Campaign sizes, cycled op by op. One fixed size gives op times within 5%
// of each other, so op_ms_p90 measured only how long other load on a shared
// host slowed the run: on a 4-vCPU VM it spread 0.41 of its median over
// five seeds with 1-capture ops. With these sizes the median op is a
// 2-capture campaign and the p90 op a 4-capture one.
constexpr std::size_t kCampaignSizes[] = {1, 2, 4};
constexpr std::size_t kMaxCampaignSize = 4;
// One worker runs a campaign's captures back to back; the campaign still
// hands them to its pool. With several workers the op waits for its slowest
// thread, so other load on the host lands in the op's tail: op_ms_p90
// spread 0.26-0.36 over ten seeds with 4 or 2 workers.
constexpr std::size_t kCampaignWorkers = 1;
constexpr std::size_t kProfilingRuns = 300;

power::FaultSpec l3_moderate() {
  power::FaultSpec spec;
  spec.jitter_sigma = 1.0;
  spec.dropout_rate = 0.05;
  spec.glitch_count = 4;
  return spec;
}

core::AttackConfig robust_gates() {
  core::AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  return acfg;
}

double span_ms(const obs::SpanTracer& tracer, obs::Stage stage) {
  return static_cast<double>(tracer.timing(stage).total_ns) / 1e6;
}

class DegradedCampaign final : public Workload {
 public:
  explicit DegradedCampaign(std::uint64_t seed) : seed_(seed), runner_(kCampaignWorkers) {}

  void setup(LayerLog* log) override {
    attack_ = train_attack(runner_, default_campaign(64), kProfilingRuns,
                           kProfilingSeed, robust_gates(), log);
    config_ = default_campaign(kN);
    config_.num_workers = kCampaignWorkers;
    config_.faults = l3_moderate();
    rig_ = std::make_unique<VictimRig>(core::build_sampler_firmware(kN, {kModulus}),
                                       config_.leakage);
    tally_ = {};
  }

  void check_determinism() override {
    const std::vector<std::uint64_t> seeds = op_seeds(0);
    const core::RecoveryCampaignResult plain = campaign(seeds, nullptr);
    core::CampaignDiagnostics diag;
    const core::RecoveryCampaignResult traced = campaign(seeds, &diag);
    require(plain.report == traced.report,
            "degraded_campaign: RecoveryReport differs with a diagnostics sink");
    // The ground truth mirrors capture_into's seed derivation.
    core::SamplerCampaign reference(config_);
    require(reference.capture(seeds[0]).noise == truth(seeds[0]),
            "degraded_campaign: ground-truth seed derivation disagrees with capture_into");
  }

  double run_op(std::size_t index, LayerLog* log) override {
    const std::vector<std::uint64_t> seeds = op_seeds(index);
    core::CampaignDiagnostics diag;
    const auto t0 = Clock::now();
    const core::RecoveryCampaignResult result = campaign(seeds, log != nullptr ? &diag : nullptr);
    const double op_ms = ms_since(t0);

    if (log != nullptr) log_layers(seeds, result, diag, *log);

    // Gate: no wrong perfect hint. Only windows aligned with the ground
    // truth can be scored; a perfect hint on a misaligned capture counts as
    // wrong.
    std::size_t wrong_perfect = 0;
    for (std::size_t c = 0; c < seeds.size(); ++c) {
      const std::vector<core::HintRecord>& records = result.hints[c];
      const bool any_perfect =
          std::any_of(records.begin(), records.end(), [](const core::HintRecord& r) {
            return r.kind == core::HintRecord::Kind::kPerfect;
          });
      if (!any_perfect && index >= kQualityOps) continue;
      const std::vector<std::int64_t> noise = truth(seeds[c]);
      const std::vector<core::CoefficientGuess>& guesses = result.captures[c].guesses;
      for (std::size_t j = 0; j < records.size(); ++j) {
        if (records[j].kind != core::HintRecord::Kind::kPerfect) continue;
        wrong_perfect += guesses.size() != noise.size() || guesses[j].value != noise[j];
      }
      if (index < kQualityOps) {
        tally_.add_windows(guesses, noise);
        tally_.add_hints(records, kN);
      }
    }
    require(wrong_perfect == 0,
            "degraded_campaign: " + std::to_string(wrong_perfect) + " wrong perfect hints");
    if (index < kQualityOps) tally_.bikz.push_back(result.report.bikz);
    return op_ms;
  }

  [[nodiscard]] Quality quality() const override { return tally_.quality(); }
  [[nodiscard]] std::size_t workers() const override { return kCampaignWorkers; }
  [[nodiscard]] std::size_t op_cycle() const override { return std::size(kCampaignSizes); }

 private:
  [[nodiscard]] std::vector<std::uint64_t> op_seeds(std::size_t index) const {
    std::vector<std::uint64_t> seeds(kCampaignSizes[index % std::size(kCampaignSizes)]);
    for (std::size_t c = 0; c < seeds.size(); ++c)
      seeds[c] = op_seed(seed_, Stream::kCapture, index * kMaxCampaignSize + c);
    return seeds;
  }

  core::RecoveryCampaignResult campaign(const std::vector<std::uint64_t>& seeds,
                                        core::CampaignDiagnostics* diag) {
    return runner_.run_recovery_campaign(*attack_, config_, seeds, policy_, seal128_params(),
                                         diag);
  }

  [[nodiscard]] std::vector<std::int64_t> truth(std::uint64_t capture_seed) {
    return rig_->run_bare(capture_seeds(capture_seed).prng).noise;
  }

  // The worker runs the op's captures back to back, so a worker stage's
  // per-op value is its span total. The capture span is split by a serial
  // replay of each of the op's captures on a fresh replica, cold like the
  // campaign's own per-op replicas: replica construction, victim, leakage model and noise (differential legs), the
  // fault injector, and the segmentation capture_into runs before the
  // campaign discards it.
  void log_layers(const std::vector<std::uint64_t>& seeds,
                  const core::RecoveryCampaignResult& result,
                  const core::CampaignDiagnostics& diag, LayerLog& log) {
    const obs::SpanTracer& tracer = diag.tracer;
    log.add_ms("sca.segment", span_ms(tracer, obs::Stage::kSegmentation));
    log.add_ms("sca.classify", span_ms(tracer, obs::Stage::kClassification));
    log.add_ms("core.hints", span_ms(tracer, obs::Stage::kHints));
    // The estimation span covers hint integration and estimate().
    log.add_ms("lwe.estimate", span_ms(tracer, obs::Stage::kEstimation));

    auto t = Clock::now();
    { const core::SamplerCampaign replica(config_); }
    log.add_ms("core.replica", ms_since(t));
    VictimRig rig(core::build_sampler_firmware(kN, {kModulus}), config_.leakage);
    const power::FaultInjector injector(config_.faults);
    for (const std::uint64_t capture_seed : seeds) {
      rig.log_capture_layers(capture_seeds(capture_seed), log);
      t = Clock::now();
      const std::vector<double> faulted = injector.apply(rig.trace(), capture_seed);
      log.add_ms("power.faults", ms_since(t));
      t = Clock::now();
      std::vector<sca::Segment> segments = sca::segment_trace(faulted, config_.segmentation);
      core::anchor_windows_at_burst_edge(faulted, segments, config_.segmentation.threshold);
      log.add_ms("sca.capture_segment", ms_since(t));
    }

    // Against the replay: what a capture costs on the campaign's worker.
    log.add_count("core.capture_span_ms", span_ms(tracer, obs::Stage::kCapture) /
                                              static_cast<double>(seeds.size()));
    const sca::RecoveryReport& rep = result.report;
    log.add_count("sca.segment_attempts", static_cast<double>(rep.segmentation_attempts));
    const std::size_t guesses = rep.ok_guesses + rep.low_confidence_guesses + rep.abstained_guesses;
    log.add_count("sca.abstained_share",
                  guesses == 0 ? 0.0
                               : static_cast<double>(rep.abstained_guesses) /
                                     static_cast<double>(guesses));
    std::vector<core::HintRecord> records;
    for (const auto& capture_records : result.hints)
      records.insert(records.end(), capture_records.begin(), capture_records.end());
    log_hint_kinds(records, log);
  }

  std::uint64_t seed_;
  core::CampaignRunner runner_;
  core::HintPolicy policy_;
  core::CampaignConfig config_;
  std::unique_ptr<core::RevealAttack> attack_;
  std::unique_ptr<VictimRig> rig_;
  QualityTally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_degraded_campaign(std::uint64_t seed) {
  return std::make_unique<DegradedCampaign>(seed);
}

}  // namespace perfbench
