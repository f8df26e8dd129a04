// hint_curve: Tables III/IV as hint curves over the SEAL-128 instance, and
// the only workload that runs the lattice-layer BKZ simulator. Each op is
// one (adversary, k) point: a fresh estimator takes the first k e2 hints of
// the perfect, the sign-only or the measured adversary, then both the
// closed-form estimate() and the simulated estimate run. The measured and
// sign-only guesses come from one paper_trace capture made during set-up.

#include <cmath>

#include "common.hpp"
#include "lattice/bkz_sim.hpp"

namespace perfbench {
namespace {

using namespace reveal;

constexpr std::size_t kN = 1024;
constexpr std::size_t kWindows = 2 * kN;
constexpr std::size_t kProfilingRuns = 150;
// k = 0, 64, ..., 1024. A fine grid gives the ops a near-continuous cost
// distribution, so the median op does not jump between a few cost levels.
constexpr std::size_t kSteps = 16;
/// The 0-hint closed form pinned in EXPERIMENTS.md (Table III).
constexpr double kBaselineBikz = 386.06;

enum class Adversary { kPerfect, kSignOnly, kMeasured };
constexpr Adversary kAdversaries[] = {Adversary::kPerfect, Adversary::kSignOnly,
                                      Adversary::kMeasured};
constexpr std::size_t kAdversaryCount = 3;
constexpr std::size_t kPoints = kAdversaryCount * (kSteps + 1);

struct Point {
  Adversary adversary;
  std::size_t step;  ///< k = step * kN / kSteps
  [[nodiscard]] std::size_t k() const { return step * kN / kSteps; }
};

/// Op i visits point i mod kPoints; adversaries interleave so any prefix of
/// ops mixes their costs.
Point point_of(std::size_t index) {
  const std::size_t p = index % kPoints;
  return {kAdversaries[p % kAdversaryCount], p / kAdversaryCount};
}

class HintCurve final : public Workload {
 public:
  explicit HintCurve(std::uint64_t seed) : seed_(seed), runner_(kWorkers) {}

  void setup(LayerLog* log) override {
    const core::CampaignConfig profile = lab_campaign(64);
    attack_ = train_attack(runner_, profile, kProfilingRuns,
                           kProfilingSeed, {}, log);
    VictimRig rig(core::build_encryption_firmware(kN, {kModulus}), profile.leakage);
    const core::VictimRun run =
        rig.capture(capture_seeds(op_seed(seed_, Stream::kCurveCapture, 0)));
    const core::RobustCaptureResult res = attack_->attack_capture_robust(
        rig.trace(), kWindows, profile.segmentation, &runner_.pool());
    require(res.guesses.size() == kWindows,
            "hint_curve: segmentation found " + std::to_string(res.guesses.size()) + " of " +
                std::to_string(kWindows) + " windows");
    const std::vector<core::HintRecord> records = route_all(res.guesses, policy_);
    e2_guesses_.assign(res.guesses.begin() + kN, res.guesses.end());
    e2_records_.assign(records.begin() + kN, records.end());
    tally_ = {};
    tally_.add_windows(res.guesses, run.noise);
    tally_.add_hints(records, kWindows);

    // Gates: the 0-hint closed form is the pinned value, and the perfect
    // adversary's closed-form curve never rises with k.
    perfect_curve_.clear();
    for (std::size_t step = 0; step <= kSteps; ++step) {
      lwe::DbddEstimator estimator(seal128_params());
      estimator.integrate_perfect_error_hints(step * kN / kSteps);
      perfect_curve_.push_back(estimator.estimate().beta);
    }
    require(std::fabs(perfect_curve_[0] - kBaselineBikz) < 0.005,
            "hint_curve: 0-hint bikz " + std::to_string(perfect_curve_[0]) + " != 386.06");
    for (std::size_t step = 1; step <= kSteps; ++step) {
      require(perfect_curve_[step] <= perfect_curve_[step - 1],
              "hint_curve: perfect-hint bikz rises at k = " + std::to_string(step * kN / kSteps));
    }
  }

  void check_determinism() override {
    // The traced op splits estimate_simulated() into its lwe profile and
    // lattice simulator calls; both paths must give the same block size.
    lwe::DbddEstimator estimator(seal128_params());
    integrate(estimator, {Adversary::kMeasured, kSteps});
    const double whole = estimator.estimate_simulated().beta;
    const double split = lattice::simulated_intersect_beta(estimator.normalized_log_profile());
    require(whole == split, "hint_curve: split simulated estimate differs");
  }

  double run_op(std::size_t index, LayerLog* log) override {
    const Point point = point_of(index);
    const auto t0 = Clock::now();
    lwe::DbddEstimator estimator(seal128_params());
    integrate(estimator, point);
    const double integrate_ms = ms_since(t0);
    auto t = Clock::now();
    const lwe::SecurityEstimate closed = estimator.estimate();
    double estimate_ms = ms_since(t);
    double simulated = 0.0;
    double bkz_sim_ms = 0.0;
    if (log != nullptr) {
      t = Clock::now();
      const std::vector<double> profile = estimator.normalized_log_profile();
      estimate_ms += ms_since(t);
      t = Clock::now();
      simulated = lattice::simulated_intersect_beta(profile);
      bkz_sim_ms = ms_since(t);
    } else {
      simulated = estimator.estimate_simulated().beta;
    }
    const double op_ms = ms_since(t0);

    if (log != nullptr) {
      log->add_ms("lwe.integrate", integrate_ms);
      log->add_ms("lwe.estimate", estimate_ms);
      log->add_ms("lattice.bkz_sim", bkz_sim_ms);
    }

    require(closed.beta >= 2.0 && closed.beta <= kBaselineBikz + 0.005,
            "hint_curve: closed-form bikz " + std::to_string(closed.beta) + " out of range");
    require(simulated >= 2.0 && simulated <= static_cast<double>(estimator.dim()),
            "hint_curve: simulated bikz " + std::to_string(simulated) + " out of range");
    if (point.adversary == Adversary::kPerfect) {
      require(closed.beta == perfect_curve_[point.step],
              "hint_curve: perfect-hint bikz differs from the set-up curve");
    }
    if (index < kPoints) tally_.bikz.push_back(closed.beta);
    return op_ms;
  }

  [[nodiscard]] Quality quality() const override { return tally_.quality(); }
  [[nodiscard]] std::size_t op_cycle() const override { return kPoints; }

 private:
  void integrate(lwe::DbddEstimator& estimator, const Point& point) const {
    const std::size_t k = point.k();
    switch (point.adversary) {
      case Adversary::kPerfect:
        estimator.integrate_perfect_error_hints(k);
        break;
      case Adversary::kSignOnly: {
        const std::vector<core::CoefficientGuess> first(e2_guesses_.begin(),
                                                        e2_guesses_.begin() + k);
        (void)core::integrate_sign_only_hints(estimator, first, policy_.sigma,
                                              policy_.max_deviation);
        break;
      }
      case Adversary::kMeasured:
        for (std::size_t i = 0; i < k; ++i) core::apply_hint(estimator, e2_records_[i]);
        break;
    }
  }

  std::uint64_t seed_;
  core::CampaignRunner runner_;
  core::HintPolicy policy_;
  std::unique_ptr<core::RevealAttack> attack_;
  std::vector<core::CoefficientGuess> e2_guesses_;
  std::vector<core::HintRecord> e2_records_;
  std::vector<double> perfect_curve_;
  QualityTally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_hint_curve(std::uint64_t seed) {
  return std::make_unique<HintCurve>(seed);
}

}  // namespace perfbench
