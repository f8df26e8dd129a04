// toy_recovery: the only workload that recovers a plaintext, so the home of
// the core residual search and the seal layer. Each op captures one n = 64
// lab-grade sampler trace, encrypts a fresh message with the trace's e2 as
// the encryption noise, attacks the trace, searches the residual e2 space
// (10 000-try budget) and recovers the message via Eq. (2)/(3). Traces whose
// search exhausts the budget are not recovered (they set the p90).

#include "common.hpp"
#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "numeric/rng.hpp"
#include "sca/segmentation.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"
#include "seal/random.hpp"
#include "seal/sampler.hpp"

namespace perfbench {
namespace {

using namespace reveal;

constexpr std::size_t kN = 64;
constexpr std::uint64_t kPlainModulus = 256;
constexpr std::size_t kProfilingRuns = 150;
// 10 000 tries, not 50 000: the 10-20% of traces that exhaust the budget
// dominate the mean op time, and at 50 000 tries (~350 ms each) a run
// samples too few of them for ops_per_s to repeat across seeds. About 80%
// of traces are recovered within 10 000 tries.
constexpr std::size_t kSearchBudget = 10000;
// Serial: fanning 64 windows out over a pool costs more than it saves, and
// a single thread is less exposed to other load on a shared host.
constexpr std::size_t kToyWorkers = 0;

seal::EncryptionParameters bfv_params() {
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(kN);
  parms.set_coeff_modulus({seal::Modulus(kModulus)});
  parms.set_plain_modulus(kPlainModulus);
  return parms;
}

class ToyRecovery final : public Workload {
 public:
  explicit ToyRecovery(std::uint64_t seed)
      : seed_(seed), runner_(kToyWorkers), context_(bfv_params()) {
    search_.max_tries = kSearchBudget;
  }

  void setup(LayerLog* log) override {
    encryptor_.reset();  // holds the old public key
    keys_.reset();       // holds the old key RNG
    key_random_ = std::make_unique<seal::StandardRandomGenerator>(stream(seed_, Stream::kBfvKeys));
    keys_ = std::make_unique<seal::KeyGenerator>(context_, *key_random_);
    encryptor_ = std::make_unique<seal::Encryptor>(context_, keys_->public_key());
    const core::CampaignConfig profile = lab_campaign(kN);
    attack_ = train_attack(runner_, profile, kProfilingRuns, kProfilingSeed, {}, log);
    campaign_ = std::make_unique<core::SamplerCampaign>(profile);
    rig_ = std::make_unique<VictimRig>(core::build_sampler_firmware(kN, {kModulus}),
                                       profile.leakage);
    tally_ = {};
  }

  void check_determinism() override {
    // The differential legs replay capture_into's seed derivation.
    const std::uint64_t seed = op_seed(seed_, Stream::kCapture, 0);
    campaign_->capture_into(seed, capture_);
    const core::VictimRun run = rig_->capture(capture_seeds(seed));
    require(run.noise == capture_.noise && rig_->trace() == capture_.trace,
            "toy_recovery: replayed capture differs from capture_into");
  }

  double run_op(std::size_t index, LayerLog* log) override {
    const seal::Plaintext message = make_message(index);
    const std::uint64_t capture_seed = op_seed(seed_, Stream::kCapture, index);

    const auto t0 = Clock::now();
    campaign_->capture_into(capture_seed, capture_);
    require(capture_.segments.size() == kN,
            "toy_recovery: segmentation found " + std::to_string(capture_.segments.size()) +
                " of " + std::to_string(kN) + " windows");

    auto t = Clock::now();
    seal::StandardRandomGenerator random(op_seed(seed_, Stream::kBfvOp, index));
    seal::EncryptionWitness witness;
    seal::sample_poly_ternary(witness.u, random, context_);
    (void)seal::sample_error_poly(random, context_, &witness.e1);
    witness.e2 = capture_.noise;
    const seal::Ciphertext ct = encryptor_->encrypt_with_witness(message, witness);
    const double encrypt_ms = ms_since(t);

    t = Clock::now();
    const std::vector<core::CoefficientGuess> guesses = runner_.attack_capture(*attack_, capture_);
    const double classify_ms = ms_since(t);

    t = Clock::now();
    const std::vector<core::HintRecord> records = route_all(guesses, policy_);
    const double hints_ms = ms_since(t);
    t = Clock::now();
    lwe::DbddEstimator estimator(dbdd_params(kN));
    for (const core::HintRecord& r : records) core::apply_hint(estimator, r);
    const double integrate_ms = ms_since(t);
    t = Clock::now();
    const lwe::SecurityEstimate estimate = estimator.estimate();
    const double estimate_ms = ms_since(t);

    t = Clock::now();
    const core::ResidualSearchResult search =
        core::residual_search(context_, keys_->public_key(), ct, guesses, search_);
    const double search_ms = ms_since(t);
    t = Clock::now();
    std::optional<seal::Plaintext> recovered;
    if (search.found) recovered = core::recover_message(context_, keys_->public_key(), ct, search.e2);
    const double recover_ms = ms_since(t);
    const double op_ms = ms_since(t0);

    if (log != nullptr) {
      // capture_into = victim + recorder + copy + segment_trace/anchoring;
      // the first three are replayed differentially on the same seeds.
      rig_->log_capture_layers(capture_seeds(capture_seed), *log);
      t = Clock::now();
      std::vector<sca::Segment> segments =
          sca::segment_trace(capture_.trace, campaign_->config().segmentation);
      core::anchor_windows_at_burst_edge(capture_.trace, segments,
                                         campaign_->config().segmentation.threshold);
      log->add_ms("sca.capture_segment", ms_since(t));
      log->add_ms("seal.encrypt", encrypt_ms);
      log->add_ms("sca.classify", classify_ms);
      log->add_ms("core.hints", hints_ms);
      log->add_ms("lwe.integrate", integrate_ms);
      log->add_ms("lwe.estimate", estimate_ms);
      log->add_ms("core.residual_search", search_ms);
      log->add_ms("seal.recover", recover_ms);
      log->add_count("core.residual_tries", static_cast<double>(search.tried));
      log->add_count("core.recovered", search.found ? 1.0 : 0.0);
      log_hint_kinds(records, *log);
    }

    // Gate: every e2 the search finds decodes to exactly the encrypted
    // message.
    if (search.found) {
      require(recovered.has_value() && *recovered == message,
              "toy_recovery: found e2 decodes to a different plaintext");
    }
    if (index < kQualityOps) {
      tally_.add_windows(guesses, capture_.noise);
      tally_.add_hints(records, kN);
      tally_.bikz.push_back(estimate.beta);
      ++tally_.recovery_ops;
      tally_.recoveries += search.found;
    }
    return op_ms;
  }

  [[nodiscard]] Quality quality() const override { return tally_.quality(); }
  [[nodiscard]] std::size_t workers() const override { return kToyWorkers; }

 private:
  [[nodiscard]] seal::Plaintext make_message(std::size_t index) const {
    num::Xoshiro256StarStar random(op_seed(seed_, Stream::kMessage, index));
    std::vector<std::uint64_t> coeffs(kN);
    for (std::uint64_t& c : coeffs) c = random() % kPlainModulus;
    return seal::Plaintext(std::move(coeffs));
  }

  std::uint64_t seed_;
  core::CampaignRunner runner_;
  core::HintPolicy policy_;
  core::ResidualSearchConfig search_;
  seal::Context context_;
  std::unique_ptr<seal::StandardRandomGenerator> key_random_;
  std::unique_ptr<seal::KeyGenerator> keys_;
  std::unique_ptr<seal::Encryptor> encryptor_;
  std::unique_ptr<core::RevealAttack> attack_;
  std::unique_ptr<core::SamplerCampaign> campaign_;
  std::unique_ptr<VictimRig> rig_;
  core::FullCapture capture_;
  QualityTally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_toy_recovery(std::uint64_t seed) {
  return std::make_unique<ToyRecovery>(seed);
}

}  // namespace perfbench
