#pragma once
// Shared plumbing for the reproduction harnesses: default campaign
// configurations, a tiny CLI-flag reader, paper-vs-measured row printing,
// and the harness behind the benches that write BENCH_*.json: a windowed
// timer, a JSON writer and a gate table. Every bench prints the rows of one
// of the paper's tables or figures next to the values measured on the
// simulated target.

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "lwe/dbdd.hpp"
#include "obs/diagnostics.hpp"

namespace reveal::bench {

/// The acquisition configuration used by the paper-style experiments:
/// SEAL-128 modulus, default leakage model.
inline core::CampaignConfig default_campaign(std::size_t n = 64) {
  core::CampaignConfig cfg;
  cfg.n = n;
  cfg.moduli = {132120577ULL};
  return cfg;
}

/// "Lab-grade" acquisition (low noise, strong per-bit spread): the regime
/// in which per-coefficient posteriors become near-deterministic, like the
/// paper's Table II.
inline core::CampaignConfig lab_campaign(std::size_t n = 64) {
  core::CampaignConfig cfg = default_campaign(n);
  cfg.leakage.noise_sigma = 0.01;
  cfg.leakage.bit_deviation = 0.35;
  return cfg;
}

/// The paper's SEAL-128 LWE instance (n = m = 1024, q = 132120577,
/// sigma = 3.2), with both dimensions divided by `shrink`.
inline lwe::DbddParams seal128_params(std::size_t shrink = 1) {
  lwe::DbddParams p;
  p.secret_dim = 1024 / shrink;
  p.error_dim = 1024 / shrink;
  p.q = 132120577.0;
  p.secret_variance = 3.2 * 3.2;
  p.error_variance = 3.2 * 3.2;
  return p;
}

/// The degradation-aware attack gates (calibrated in
/// tests/test_fault_injection.cpp: clean-capture sign margins stay above
/// ~0.6, corrupted windows fall below ~0.3).
inline core::AttackConfig gated_attack_config() {
  core::AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  return acfg;
}

/// Wall-clock stopwatch started at construction.
struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }
};

/// True if the flag (e.g. "--full") is present on the command line.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// String value of "--name=<v>" or "--name <v>", or fallback
/// (e.g. --diag=diag.json, --diag diag.json).
inline std::string flag_string(int argc, char** argv, const char* name,
                               const char* fallback = "") {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return fallback;
}

/// Integer value of "--name=<v>" or "--name <v>", or fallback when the flag
/// is absent. A value that is not a whole decimal integer ends the program
/// with exit code 2 rather than running with a silently substituted number.
inline long flag_value(int argc, char** argv, const char* name, long fallback) {
  const std::string text = flag_string(argc, argv, name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", name, text.c_str());
    std::exit(2);
  }
  return value;
}

inline void print_header(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("RevEAL reproduction — %s\n", experiment);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

inline void print_row(const char* label, double paper, double measured,
                      const char* unit = "") {
  std::printf("  %-42s paper: %10.2f   measured: %10.2f %s\n", label, paper, measured,
              unit);
}

inline void print_note(const char* note) { std::printf("  note: %s\n", note); }

// ---------------------------------------------------------------------------
// Timer: every leg runs its iteration count in a fixed number of windows.
// ---------------------------------------------------------------------------

inline constexpr int kSmokeWindows = 3;
inline constexpr int kFullWindows = 5;
/// Turns the legs take inside one window (see time_legs).
inline constexpr std::size_t kRounds = 8;

/// Wall time per operation of one timed leg, over its windows. Speedups and
/// gates read the min: scheduler noise only ever adds time.
struct Timing {
  double min_ns = 0.0;
  double median_ns = 0.0;
};

/// One timed leg: a window calls fn(i) for i in [0, iters).
template <typename F>
struct Leg {
  std::size_t iters;
  F fn;
};

template <typename F>
Leg<F> leg(std::size_t iters, F fn) {
  return {iters, std::move(fn)};
}

/// The min and median of per-operation samples.
inline Timing timing_of(std::vector<double> ns) {
  std::sort(ns.begin(), ns.end());
  return {ns.front(), ns[ns.size() / 2]};
}

/// Runs round r of a window, calls r * iters / kRounds up to (but not
/// including) (r + 1) * iters / kRounds, and returns its wall time in ns.
template <typename F>
double run_round(Leg<F>& l, std::size_t r) {
  const std::size_t end = l.iters * (r + 1) / kRounds;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = l.iters * r / kRounds; i < end; ++i) l.fn(i);
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times the legs over kSmokeWindows or kFullWindows windows. Inside a
/// window the legs take turns in kRounds rounds, each running its next
/// share of the iterations, so a drift in host load lands on every leg
/// alike; even a leg of a few slow calls alternates call by call with the
/// leg it is compared against.
template <typename... F>
std::array<Timing, sizeof...(F)> time_legs(bool smoke, Leg<F>... legs) {
  constexpr std::size_t kLegs = sizeof...(F);
  const std::array<std::size_t, kLegs> iters = {legs.iters...};
  std::array<std::vector<double>, kLegs> per_op;
  for (int w = 0; w < (smoke ? kSmokeWindows : kFullWindows); ++w) {
    std::array<double, kLegs> window_ns{};
    for (std::size_t r = 0; r < kRounds; ++r) {
      std::size_t k = 0;
      ((window_ns[k++] += run_round(legs, r)), ...);
    }
    for (std::size_t k = 0; k < kLegs; ++k) {
      per_op[k].push_back(window_ns[k] / static_cast<double>(iters[k]));
    }
  }
  std::array<Timing, kLegs> out;
  for (std::size_t k = 0; k < kLegs; ++k) out[k] = timing_of(std::move(per_op[k]));
  return out;
}

template <typename F>
Timing time_leg(bool smoke, std::size_t iters, F fn) {
  return time_legs(smoke, leg(iters, std::move(fn)))[0];
}

/// How many times faster `fast` is than `baseline`, on the window minima.
inline double speedup(const Timing& fast, const Timing& baseline) {
  return fast.min_ns > 0.0 ? baseline.min_ns / fast.min_ns : 0.0;
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// Builds a BENCH_*.json document. Keys keep insertion order and numbers
/// the printf format the caller gives. Members of the root object and
/// elements of arrays each start a line; everything else stays inline.
/// Keys and string values are plain identifiers and are not escaped.
class JsonWriter {
 public:
  JsonWriter() { open('}'); }

  JsonWriter& text(const char* key, const std::string& value) {
    member(key);
    quote(value);
    return *this;
  }
  JsonWriter& flag(const char* key, bool value) {
    member(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& count(const char* key, std::size_t value) {
    member(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& num(const char* key, double value, const char* format) {
    member(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    out_ += buf;
    return *this;
  }
  /// `key` is the window minimum and `key`_median the window median, both
  /// in ns per operation times `scale`.
  JsonWriter& timing(const char* key, const Timing& t, const char* format = "%.1f",
                     double scale = 1.0) {
    num(key, t.min_ns * scale, format);
    return num((std::string(key) + "_median").c_str(), t.median_ns * scale, format);
  }
  /// Opens an object; pass no key for an array element.
  JsonWriter& object(const char* key = nullptr) {
    member(key);
    open('}');
    return *this;
  }
  JsonWriter& array(const char* key) {
    member(key);
    open(']');
    return *this;
  }
  /// Closes the innermost open object or array.
  JsonWriter& end() {
    const char close = frames_.back().close;
    frames_.pop_back();
    if (close == ']') newline(frames_.size());
    out_ += close;
    return *this;
  }

  /// The document so far, with the root object closed.
  [[nodiscard]] std::string str() const { return out_ + "\n}\n"; }

  /// Writes str() to `path`; prints why and returns false on any failure
  /// (open, short write or close).
  [[nodiscard]] bool write(const std::string& path) const {
    try {
      obs::write_json_file(str(), path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Frame {
    char close;
    bool first = true;
  };

  void open(char close) {
    out_ += close == '}' ? '{' : '[';
    frames_.push_back({close});
  }
  void newline(std::size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }
  void member(const char* key) {
    Frame& f = frames_.back();
    if (!f.first) out_ += ',';
    if (frames_.size() == 1 || key == nullptr) newline(frames_.size());
    else if (!f.first) out_ += ' ';
    f.first = false;
    if (key != nullptr) {
      quote(key);
      out_ += ": ";
    }
  }
  void quote(const std::string& s) { out_ += '"' + s + '"'; }

  std::string out_;
  std::vector<Frame> frames_;
};

// ---------------------------------------------------------------------------
// Gate table
// ---------------------------------------------------------------------------

/// The pass/fail gates of one bench run. A row compares a measured value
/// with its bound. Speedup and overhead bounds are enforced in full runs
/// only: smoke instances are too small and short for them to show.
class GateTable {
 public:
  explicit GateTable(bool smoke) : smoke_(smoke) {}

  void at_least(const char* name, double value, double bound) {
    rows_.push_back({name, value, bound, Direction::kAtLeast, false});
  }
  void at_most(const char* name, double value, double bound) {
    rows_.push_back({name, value, bound, Direction::kAtMost, false});
  }
  /// A check that must hold in every run (byte identity, sanity).
  void require(const char* name, bool holds) {
    rows_.push_back({name, holds ? 1.0 : 0.0, 1.0, Direction::kHolds, true});
  }

  [[nodiscard]] bool passed() const {
    return std::all_of(rows_.begin(), rows_.end(),
                       [&](const Row& r) { return !enforced(r) || r.holds(); });
  }

  /// Writes the "gates" block: each row's bound (`true` for a required
  /// check), whether the full-run bounds are enforced, and the verdict.
  void write(JsonWriter& json) const {
    json.object("gates");
    for (const Row& r : rows_) {
      if (r.direction == Direction::kHolds) json.flag(r.name.c_str(), true);
      else json.num(r.name.c_str(), r.bound, "%g");
    }
    json.flag("enforced", !smoke_).flag("passed", passed()).end();
  }

  /// Prints each enforced row that failed to stderr; returns passed().
  bool report(const char* bench) const {
    for (const Row& r : rows_) {
      if (!enforced(r) || r.holds()) continue;
      if (r.direction == Direction::kHolds) {
        std::fprintf(stderr, "%s: gate FAILED: %s does not hold\n", bench, r.name.c_str());
      } else {
        std::fprintf(stderr, "%s: gate FAILED: %s = %g, bound %s %g\n", bench,
                     r.name.c_str(), r.value,
                     r.direction == Direction::kAtLeast ? ">=" : "<=", r.bound);
      }
    }
    return passed();
  }

 private:
  enum class Direction { kAtLeast, kAtMost, kHolds };
  struct Row {
    std::string name;
    double value;
    double bound;
    Direction direction;
    bool in_smoke;
    [[nodiscard]] bool holds() const {
      return direction == Direction::kAtMost ? value <= bound : value >= bound;
    }
  };

  [[nodiscard]] bool enforced(const Row& r) const { return r.in_smoke || !smoke_; }

  bool smoke_;
  std::vector<Row> rows_;
};

}  // namespace reveal::bench
