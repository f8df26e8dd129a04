#pragma once
// Shared plumbing for the reproduction harnesses: default campaign
// configurations, a tiny CLI-flag reader, a best-of-N wall-clock timer, and
// paper-vs-measured row printing. Every bench prints the rows of one of the
// paper's tables or figures next to the values measured on the simulated
// target.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/acquisition.hpp"

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

/// Wall-clock stopwatch started at construction.
struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }
};

/// Best-of-`passes` wall time of f() in milliseconds (the first call
/// doubles as warmup for cheap, cold-start-sensitive legs).
template <typename F>
double time_best_ms(F&& f, int passes) {
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < passes; ++p) {
    Timer t;
    f();
    best = std::min(best, t.ms());
  }
  return best;
}

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

/// Value of "--name=<v>" or fallback.
inline long flag_value(int argc, char** argv, const char* name, long fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtol(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
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

}  // namespace reveal::bench
