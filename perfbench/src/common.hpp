#pragma once
// Shared plumbing of the end-to-end benchmark: seed streams, the fixed
// acquisition/estimator configurations, the per-layer log of traced ops,
// and the differential capture timer that splits one capture into victim
// ISS, leakage model and measurement noise.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/victim.hpp"
#include "lwe/dbdd.hpp"
#include "power/leakage_model.hpp"
#include "power/trace_recorder.hpp"
#include "riscv/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Default worker threads of a CampaignRunner/WorkerPool the benchmark
/// builds (degraded_campaign and toy_recovery choose fewer; see
/// Workload::workers). Fixed rather than taken from the host so that op
/// inputs and outputs never depend on the machine (outputs are worker-count
/// invariant anyway).
inline constexpr std::size_t kWorkers = 4;

/// Seed base of the profiling captures. Fixed, not derived from --seed:
/// the adversary profiles one clone device once, and the trained templates
/// then set how hard every residual search is, so a per-seed device would
/// move op times between seeds by more than the host's own noise.
inline constexpr std::uint64_t kProfilingSeed = 1;

/// Independent per-run input streams; every input is
/// stream_seed(seed, stream).
enum class Stream : std::uint64_t {
  kCapture = 1,    ///< per-op capture seeds
  kBfvKeys,        ///< BFV key generation
  kBfvOp,          ///< per-op encryption randomness (u, e1)
  kMessage,        ///< per-op plaintext
  kCurveCapture,   ///< the capture that supplies hint_curve's measured guesses
};

[[nodiscard]] std::uint64_t stream(std::uint64_t seed, Stream s);
/// Per-op seed of stream `s`: stream_seed(stream(seed, s), index).
[[nodiscard]] std::uint64_t op_seed(std::uint64_t seed, Stream s, std::uint64_t index);

/// The firmware PRNG seed and measurement-noise seed that
/// SamplerCampaign::capture_into derives from a capture seed. Used to drive
/// the victim directly on the same inputs (differential timing, ground
/// truth); the workloads' determinism checks compare the mirror with the
/// library.
struct CaptureSeeds {
  std::uint32_t prng = 0;
  std::uint64_t noise = 0;
};
[[nodiscard]] CaptureSeeds capture_seeds(std::uint64_t capture_seed);

/// SEAL-128 modulus and the acquisition regimes of the paper-style benches.
inline constexpr std::uint64_t kModulus = 132120577ULL;
[[nodiscard]] reveal::core::CampaignConfig default_campaign(std::size_t n);
/// Low noise, strong per-bit spread: near-deterministic posteriors.
[[nodiscard]] reveal::core::CampaignConfig lab_campaign(std::size_t n);
/// DBDD parameters of SEAL-128 (n = m = 1024, sigma = 3.2), as in Table III.
[[nodiscard]] reveal::lwe::DbddParams seal128_params();
/// The same instance shape at a smaller ring dimension.
[[nodiscard]] reveal::lwe::DbddParams dbdd_params(std::size_t n);

/// Throws std::runtime_error(what) unless cond holds. Gates use it: a
/// violation fails the op (or the run, outside ops).
inline void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

/// Linear-interpolated percentile (p in [0, 1]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Byte-identity of guesses and routed hints (doubles compared bitwise).
[[nodiscard]] bool same_guesses(const std::vector<reveal::core::CoefficientGuess>& a,
                                const std::vector<reveal::core::CoefficientGuess>& b);
[[nodiscard]] bool same_records(const std::vector<reveal::core::HintRecord>& a,
                                const std::vector<reveal::core::HintRecord>& b);

[[nodiscard]] inline int sign_of(std::int64_t v) { return (v > 0) - (v < 0); }

/// Per-op layer times (ms) and counts of the traced ops, plus per-setup
/// layer times. Layer names are the per_layer metric stems of
/// BENCHMARK.json ("power.noise" -> power.noise_ms / _min_ms / _share).
class LayerLog {
 public:
  void begin_op() { rows_.emplace_back(); }
  void discard_op() { rows_.pop_back(); }
  void add_ms(const std::string& layer, double ms) { rows_.back().ms[layer] += ms; }
  void add_count(const std::string& name, double value) {
    rows_.back().counts[name] += value;
  }
  void end_op(double op_ms) { rows_.back().op_ms = op_ms; }
  void add_setup_ms(const std::string& layer, double ms) { setup_[layer].push_back(ms); }

  struct Row {
    double op_ms = 0.0;
    std::map<std::string, double> ms;
    std::map<std::string, double> counts;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& setup() const noexcept {
    return setup_;
  }

 private:
  std::vector<Row> rows_;
  std::map<std::string, std::vector<double>> setup_;
};

/// Statically-bound observer that builds the noise-free power trace from
/// the public LeakageModel terms — the recorder's arithmetic without the
/// Gaussian draws. The middle leg of the differential capture timing.
class ModelObserver {
 public:
  explicit ModelObserver(const reveal::power::LeakageModel& model) : model_(model) {}
  void reserve(std::size_t samples) { samples_.reserve(samples); }
  void clear() { samples_.clear(); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

  void on_instruction(const reveal::riscv::InstrEvent& event) {
    const double base = model_.base_power(event.klass);
    double level = base;
    if (event.klass == reveal::riscv::InstrClass::kMul ||
        event.klass == reveal::riscv::InstrClass::kDiv) {
      level += model_.params().w_serial * 0.5 *
               (model_.weighted_hw(event.rs1_val) + model_.weighted_hw(event.rs2_val));
    }
    const double exec = model_.execute_cycle_power(event) + level - base;
    for (std::uint32_t c = 0; c + 1 < event.cycles; ++c) samples_.push_back(level);
    samples_.push_back(exec);
  }

 private:
  const reveal::power::LeakageModel& model_;
  std::vector<double> samples_;
};

/// A victim with its own machine, leakage model, recorder and noise-free
/// observer: captures one trace directly (Machine + TraceRecorder +
/// run_victim_with), or times the differential legs on the same seeds.
class VictimRig {
 public:
  VictimRig(reveal::core::VictimProgram program, const reveal::power::LeakageParams& leakage);
  VictimRig(const VictimRig&) = delete;
  VictimRig& operator=(const VictimRig&) = delete;

  /// Full capture into the recorder; returns the run (ground truth).
  reveal::core::VictimRun capture(const CaptureSeeds& seeds);
  [[nodiscard]] const std::vector<double>& trace() const noexcept {
    return recorder_.samples();
  }
  /// The victim alone (no observer work): ground-truth noise only.
  reveal::core::VictimRun run_bare(std::uint32_t prng);

  /// Times the victim alone and the noise-free model on `seeds`; with
  /// `full_ms`, the recorder run's time on the same seeds, logs
  /// riscv.victim = bare, power.leakage = model - bare and
  /// power.noise = full - model.
  void log_differential(const CaptureSeeds& seeds, double full_ms, LayerLog& log);
  /// Times the recorder leg too, then logs the three layers as above.
  void log_capture_layers(const CaptureSeeds& seeds, LayerLog& log);

 private:
  reveal::core::VictimProgram program_;
  reveal::power::LeakageModel model_;
  reveal::riscv::Machine machine_;
  reveal::power::TraceRecorder recorder_;
  ModelObserver model_observer_;
};

/// Profiles on `runs` captures of `config` (seeds seed_base + r) and trains
/// an attack on the runner's pool; with a log, records the setup layers
/// core.profile (collect_windows) and sca.train.
[[nodiscard]] std::unique_ptr<reveal::core::RevealAttack> train_attack(
    reveal::core::CampaignRunner& runner, const reveal::core::CampaignConfig& config,
    std::size_t runs, std::uint64_t seed_base, const reveal::core::AttackConfig& attack_config,
    LayerLog* log);

/// Routes every guess under `policy`, in window order.
[[nodiscard]] std::vector<reveal::core::HintRecord> route_all(
    const std::vector<reveal::core::CoefficientGuess>& guesses,
    const reveal::core::HintPolicy& policy);

/// Logs the hint counts by kind (core.hints_perfect, ...).
void log_hint_kinds(const std::vector<reveal::core::HintRecord>& records, LayerLog& log);

/// Deterministic quality of a workload over its first ops. Fields a
/// workload does not measure stay negative ("n/a").
struct Quality {
  double sign_accuracy = -1.0;
  double value_accuracy = -1.0;
  double hint_yield = -1.0;
  double recovery_rate = -1.0;
  double bikz = -1.0;
};

/// Running tallies behind Quality.
struct QualityTally {
  std::size_t windows = 0;
  std::size_t sign_correct = 0;
  std::size_t value_correct = 0;
  std::size_t expected_hints = 0;
  std::size_t hinted = 0;
  std::size_t recoveries = 0;
  std::size_t recovery_ops = 0;
  std::vector<double> bikz;

  /// Scores the windows against the ground truth; a misaligned guess
  /// vector scores none of them correct.
  void add_windows(const std::vector<reveal::core::CoefficientGuess>& guesses,
                   const std::vector<std::int64_t>& truth);
  /// `expected` windows could each have produced a hint.
  void add_hints(const std::vector<reveal::core::HintRecord>& records, std::size_t expected);
  [[nodiscard]] Quality quality() const;
};

/// Ops whose quality enters Quality (the first kQualityOps of every run),
/// so quality figures are a pure function of the seed.
inline constexpr std::size_t kQualityOps = 100;

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Builds everything an op needs: firmware, keys, profiling captures,
  /// templates. Runs several times per run; each run replaces the state.
  /// With a log, setup layers (core.profile, sca.train) are recorded.
  virtual void setup(LayerLog* log) = 0;
  /// Determinism checks on the first op's inputs (throws on a mismatch).
  virtual void check_determinism() = 0;
  /// One op; returns its wall time in ms (correctness checks excluded).
  /// Throws on a failed gate. With a log the traced variant runs and adds
  /// to the log's open row (differential legs run outside the returned
  /// time).
  virtual double run_op(std::size_t index, LayerLog* log) = 0;
  [[nodiscard]] virtual Quality quality() const = 0;
  /// The op loop only stops after a multiple of this many ops (a workload
  /// whose ops cycle through a fixed grid measures whole cycles).
  [[nodiscard]] virtual std::size_t op_cycle() const { return 1; }
  /// Worker threads of the workload's CampaignRunner (0: serial path).
  [[nodiscard]] virtual std::size_t workers() const { return kWorkers; }
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_trace(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_degraded_campaign(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_toy_recovery(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_hint_curve(std::uint64_t seed);

}  // namespace perfbench
