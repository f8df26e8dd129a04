// paper_trace: the paper's unit of work. One n = 1024 SEAL encryption is
// captured as one power trace (e1 and e2: 2048 sampler windows), attacked
// with the robust single-trace pipeline, every guess is routed to a hint,
// and the 1024 e2 hints are integrated into the SEAL-128 DBDD instance for
// a closed-form bikz. Plaintext recovery is left out: the residual search
// cannot close n = 1024 (about 75 of the 1024 e2 ML values are wrong), which
// needs a lattice solve.

#include "common.hpp"
#include "obs/span_tracer.hpp"

namespace perfbench {
namespace {

using namespace reveal;

constexpr std::size_t kN = 1024;
constexpr std::size_t kWindows = 2 * kN;  // e1 then e2
constexpr std::size_t kProfilingRuns = 150;

class PaperTrace final : public Workload {
 public:
  explicit PaperTrace(std::uint64_t seed) : seed_(seed), runner_(kWorkers) {}

  void setup(LayerLog* log) override {
    const core::CampaignConfig profile = lab_campaign(64);
    segmentation_ = profile.segmentation;
    attack_ = train_attack(runner_, profile, kProfilingRuns,
                           kProfilingSeed, {}, log);
    rig_ = std::make_unique<VictimRig>(core::build_encryption_firmware(kN, {kModulus}),
                                       profile.leakage);
    tally_ = {};
  }

  void check_determinism() override {
    // Guesses and routed hints of the first trace are byte-identical on the
    // serial path and on the 4-worker pool.
    (void)rig_->capture(capture_seeds(op_seed(seed_, Stream::kCapture, 0)));
    core::WorkerPool serial(0);
    const core::RobustCaptureResult a =
        attack_->attack_capture_robust(rig_->trace(), kWindows, segmentation_, &serial);
    const core::RobustCaptureResult b =
        attack_->attack_capture_robust(rig_->trace(), kWindows, segmentation_, &runner_.pool());
    require(same_guesses(a.guesses, b.guesses),
            "paper_trace: guesses differ between 0 and 4 workers");
    require(same_records(route_all(a.guesses, policy_), route_all(b.guesses, policy_)),
            "paper_trace: hint records differ between 0 and 4 workers");
  }

  double run_op(std::size_t index, LayerLog* log) override {
    const CaptureSeeds seeds = capture_seeds(op_seed(seed_, Stream::kCapture, index));
    const auto t0 = Clock::now();
    const core::VictimRun run = rig_->capture(seeds);
    const double capture_ms = ms_since(t0);

    core::RobustCaptureResult res;
    obs::SpanTracer tracer;
    if (log != nullptr) {
      res = attack_->attack_capture_robust_traced(rig_->trace(), kWindows, segmentation_,
                                                  tracer, 0, &runner_.pool());
    } else {
      res = attack_->attack_capture_robust(rig_->trace(), kWindows, segmentation_,
                                           &runner_.pool());
    }

    auto t = Clock::now();
    const std::vector<core::HintRecord> records = route_all(res.guesses, policy_);
    const double hints_ms = ms_since(t);
    t = Clock::now();
    lwe::DbddEstimator estimator(seal128_params());
    for (std::size_t i = kN; i < records.size(); ++i) core::apply_hint(estimator, records[i]);
    const double integrate_ms = ms_since(t);
    t = Clock::now();
    const lwe::SecurityEstimate estimate = estimator.estimate();
    const double estimate_ms = ms_since(t);
    const double op_ms = ms_since(t0);

    if (log != nullptr) {
      rig_->log_differential(seeds, capture_ms, *log);
      log->add_ms("sca.segment",
                  static_cast<double>(tracer.timing(obs::Stage::kSegmentation).total_ns) / 1e6);
      log->add_ms("sca.classify",
                  static_cast<double>(tracer.timing(obs::Stage::kClassification).total_ns) /
                      1e6);
      log->add_ms("core.hints", hints_ms);
      log->add_ms("lwe.integrate", integrate_ms);
      log->add_ms("lwe.estimate", estimate_ms);
      log->add_count("sca.segment_attempts", static_cast<double>(res.segmentation.attempts));
      std::size_t abstained = 0;
      for (const auto& g : res.guesses) abstained += g.quality == core::GuessQuality::kAbstained;
      log->add_count("sca.abstained_share",
                     res.guesses.empty() ? 0.0
                                         : static_cast<double>(abstained) /
                                               static_cast<double>(res.guesses.size()));
      log_hint_kinds(records, *log);
    }

    // Gates: every window found, 100% sign recovery, no wrong perfect hint.
    require(res.guesses.size() == kWindows,
            "paper_trace: segmentation found " + std::to_string(res.guesses.size()) + " of " +
                std::to_string(kWindows) + " windows");
    std::size_t sign_errors = 0;
    std::size_t wrong_perfect = 0;
    for (std::size_t i = 0; i < kWindows; ++i) {
      const core::CoefficientGuess& g = res.guesses[i];
      sign_errors += !g.sign_trusted || g.sign != sign_of(run.noise[i]);
      wrong_perfect += records[i].kind == core::HintRecord::Kind::kPerfect &&
                       g.value != run.noise[i];
    }
    require(sign_errors == 0,
            "paper_trace: " + std::to_string(sign_errors) + " wrong or untrusted signs");
    require(wrong_perfect == 0,
            "paper_trace: " + std::to_string(wrong_perfect) + " wrong perfect hints");

    if (index < kQualityOps) {
      tally_.add_windows(res.guesses, run.noise);
      tally_.add_hints(records, kWindows);
      tally_.bikz.push_back(estimate.beta);
    }
    return op_ms;
  }

  [[nodiscard]] Quality quality() const override { return tally_.quality(); }

 private:
  std::uint64_t seed_;
  core::CampaignRunner runner_;
  core::HintPolicy policy_;
  sca::SegmentationConfig segmentation_;
  std::unique_ptr<core::RevealAttack> attack_;
  std::unique_ptr<VictimRig> rig_;
  QualityTally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_trace(std::uint64_t seed) {
  return std::make_unique<PaperTrace>(seed);
}

}  // namespace perfbench
