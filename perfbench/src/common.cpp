#include "common.hpp"

#include <algorithm>
#include <cstring>

#include "core/parallel.hpp"
#include "numeric/rng.hpp"

namespace perfbench {

using namespace reveal;

std::uint64_t stream(std::uint64_t seed, Stream s) {
  return core::stream_seed(seed, static_cast<std::uint64_t>(s));
}

std::uint64_t op_seed(std::uint64_t seed, Stream s, std::uint64_t index) {
  return core::stream_seed(stream(seed, s), index);
}

CaptureSeeds capture_seeds(std::uint64_t capture_seed) {
  num::Xoshiro256StarStar derive(capture_seed);
  CaptureSeeds out;
  out.prng = static_cast<std::uint32_t>(derive() | 1u);
  out.noise = derive();
  return out;
}

core::CampaignConfig default_campaign(std::size_t n) {
  core::CampaignConfig cfg;
  cfg.n = n;
  cfg.moduli = {kModulus};
  cfg.num_workers = kWorkers;
  return cfg;
}

core::CampaignConfig lab_campaign(std::size_t n) {
  core::CampaignConfig cfg = default_campaign(n);
  cfg.leakage.noise_sigma = 0.01;
  cfg.leakage.bit_deviation = 0.35;
  return cfg;
}

lwe::DbddParams dbdd_params(std::size_t n) {
  lwe::DbddParams params;
  params.secret_dim = n;
  params.error_dim = n;
  params.q = static_cast<double>(kModulus);
  params.secret_variance = 3.2 * 3.2;
  params.error_variance = 3.2 * 3.2;
  return params;
}

lwe::DbddParams seal128_params() { return dbdd_params(1024); }

namespace {

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool same_guesses(const std::vector<core::CoefficientGuess>& a,
                  const std::vector<core::CoefficientGuess>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::CoefficientGuess& x = a[i];
    const core::CoefficientGuess& y = b[i];
    if (x.sign != y.sign || x.value != y.value || x.support != y.support ||
        !same_doubles(x.posterior, y.posterior) || x.quality != y.quality ||
        x.sign_trusted != y.sign_trusted || !same_double(x.sign_margin, y.sign_margin))
      return false;
  }
  return true;
}

bool same_records(const std::vector<core::HintRecord>& a,
                  const std::vector<core::HintRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || !same_double(a[i].variance, b[i].variance)) return false;
  }
  return true;
}

VictimRig::VictimRig(core::VictimProgram program, const power::LeakageParams& leakage)
    : program_(std::move(program)),
      model_(leakage),
      machine_(program_.memory_bytes),
      recorder_(model_, /*noise_seed=*/0),
      model_observer_(model_) {
  const std::size_t budget = core::detail::victim_instruction_limit(program_);
  recorder_.reserve(budget);
  model_observer_.reserve(budget);
  core::configure_victim_tier(machine_, core::VictimTier::kBlock);
}

core::VictimRun VictimRig::capture(const CaptureSeeds& seeds) {
  recorder_.begin_capture(seeds.noise);
  return core::run_victim_with(program_, machine_, seeds.prng, recorder_);
}

core::VictimRun VictimRig::run_bare(std::uint32_t prng) {
  riscv::NullExecutionObserver null_observer;
  return core::run_victim_with(program_, machine_, prng, null_observer);
}

void VictimRig::log_differential(const CaptureSeeds& seeds, double full_ms, LayerLog& log) {
  auto t0 = Clock::now();
  const core::VictimRun bare = run_bare(seeds.prng);
  const double bare_ms = ms_since(t0);

  model_observer_.clear();
  t0 = Clock::now();
  (void)core::run_victim_with(program_, machine_, seeds.prng, model_observer_);
  const double model_ms = ms_since(t0);
  require(model_observer_.samples().size() == recorder_.samples().size(),
          "differential capture: model and recorder legs disagree on the sample count");

  log.add_ms("riscv.victim", bare_ms);
  log.add_ms("power.leakage", model_ms - bare_ms);
  log.add_ms("power.noise", full_ms - model_ms);
  log.add_count("riscv.instructions", static_cast<double>(bare.instructions));
  // One Gaussian draw per sample (the recorder's drift walk is off).
  log.add_count("power.samples", static_cast<double>(recorder_.samples().size()));
}

void VictimRig::log_capture_layers(const CaptureSeeds& seeds, LayerLog& log) {
  const auto t0 = Clock::now();
  (void)capture(seeds);
  log_differential(seeds, ms_since(t0), log);
}

void QualityTally::add_windows(const std::vector<core::CoefficientGuess>& guesses,
                               const std::vector<std::int64_t>& truth) {
  windows += truth.size();
  if (guesses.size() != truth.size()) return;  // misaligned: nothing scored correct
  for (std::size_t i = 0; i < truth.size(); ++i) {
    sign_correct += guesses[i].sign_trusted && guesses[i].sign == sign_of(truth[i]);
    value_correct += guesses[i].quality != core::GuessQuality::kAbstained &&
                     guesses[i].value == truth[i];
  }
}

void QualityTally::add_hints(const std::vector<core::HintRecord>& records,
                             std::size_t expected) {
  expected_hints += expected;
  for (const core::HintRecord& r : records) hinted += r.kind != core::HintRecord::Kind::kSkipped;
}

Quality QualityTally::quality() const {
  auto share = [](std::size_t num, std::size_t den) {
    return den == 0 ? -1.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  Quality q;
  q.sign_accuracy = share(sign_correct, windows);
  q.value_accuracy = share(value_correct, windows);
  q.hint_yield = share(hinted, expected_hints);
  q.recovery_rate = share(recoveries, recovery_ops);
  if (!bikz.empty()) q.bikz = median(bikz);
  return q;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::unique_ptr<core::RevealAttack> train_attack(core::CampaignRunner& runner,
                                                 const core::CampaignConfig& config,
                                                 std::size_t runs, std::uint64_t seed_base,
                                                 const core::AttackConfig& attack_config,
                                                 LayerLog* log) {
  auto t0 = Clock::now();
  const std::vector<core::WindowRecord> windows =
      runner.collect_windows(config, runs, seed_base);
  const double profile_ms = ms_since(t0);
  t0 = Clock::now();
  auto attack = std::make_unique<core::RevealAttack>(attack_config);
  runner.train(*attack, windows);
  if (log != nullptr) {
    log->add_setup_ms("core.profile", profile_ms);
    log->add_setup_ms("sca.train", ms_since(t0));
  }
  return attack;
}

std::vector<core::HintRecord> route_all(const std::vector<core::CoefficientGuess>& guesses,
                                       const core::HintPolicy& policy) {
  std::vector<core::HintRecord> records;
  records.reserve(guesses.size());
  for (const core::CoefficientGuess& g : guesses) records.push_back(core::route_guess(g, policy));
  return records;
}

void log_hint_kinds(const std::vector<core::HintRecord>& records, LayerLog& log) {
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const core::HintRecord& r : records) ++counts[static_cast<std::size_t>(r.kind)];
  log.add_count("core.hints_perfect", static_cast<double>(counts[0]));
  log.add_count("core.hints_approximate", static_cast<double>(counts[1]));
  log.add_count("core.hints_sign_only", static_cast<double>(counts[2]));
  log.add_count("core.hints_skipped", static_cast<double>(counts[3]));
}

}  // namespace perfbench
