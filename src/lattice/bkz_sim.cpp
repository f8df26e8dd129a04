#include "lattice/bkz_sim.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace reveal::lattice {

namespace {

constexpr double kTwoPiE = 2.0 * std::numbers::pi * std::numbers::e;
constexpr double kSmallBeta = 2.0;
constexpr double kSmallBetaDelta = 1.0219;  // experimental rhf of LLL-ish reduction
constexpr double kFormulaFloor = 36.0;
/// Below this block rank the Gaussian heuristic overstates reduction power
/// (tiny blocks "win" far too much per tour and flatten the profile); the
/// simulator switches to the root-Hermite model there. 45 is the CN11
/// choice of where GH behaviour sets in.
constexpr std::size_t kGhMinRank = 45;

double delta_formula(double beta) {
  return std::pow(std::pow(std::numbers::pi * beta, 1.0 / beta) * beta / kTwoPiE,
                  1.0 / (2.0 * (beta - 1.0)));
}

/// Shared per-tour update rule. The fast path carries the old-profile
/// prefix sums and the running new-prefix accumulator, and reads the
/// log_vol-independent part of log_block_head from a per-rank table; the
/// reference path re-sums both naively and calls log_block_head at every
/// position. Both accumulate in index order and evaluate the head with the
/// same operations in the same order, so every intermediate value — and
/// therefore the whole simulation — is bit-identical between the two.
std::vector<double> simulate_impl(std::vector<double> l, std::size_t beta,
                                  const BkzSimParams& params, bool fast) {
  const std::size_t d = l.size();
  if (d == 0) throw std::invalid_argument("bkz_sim: empty profile");
  if (beta < 2 || d < 2) return l;

  // head_const[b]: lgamma(b/2 + 1) for GH-regime ranks, (b-1)*ln(delta(b))
  // below kGhMinRank — the libm work of log_block_head, once per rank.
  std::vector<double> head_const;
  if (fast) {
    const std::size_t max_rank = std::min(beta, d);
    head_const.assign(max_rank + 1, 0.0);
    for (std::size_t b = 2; b <= max_rank; ++b) {
      const double bd = static_cast<double>(b);
      head_const[b] = b >= kGhMinRank
                          ? std::lgamma(0.5 * bd + 1.0)
                          : (bd - 1.0) * std::log(root_hermite_delta(bd));
    }
  }
  const double half_log_pi = 0.5 * std::log(std::numbers::pi);

  std::vector<double> next(d, 0.0);
  std::vector<double> prefix(d + 1, 0.0);
  for (std::size_t tour = 0; tour < params.max_tours; ++tour) {
    if (fast) {
      for (std::size_t j = 0; j < d; ++j) prefix[j + 1] = prefix[j] + l[j];
    }
    double new_acc = 0.0;
    bool untouched = true;  // CN11's phi: no position improved yet this tour
    double max_delta = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const std::size_t b = std::min(beta, d - k);
      // Volume of the projected block [k, k+b): what the first k+b old
      // positions held, minus what the already-fixed new prefix consumed.
      double log_vol;
      if (fast) {
        log_vol = prefix[k + b] - new_acc;
      } else {
        double po = 0.0;
        for (std::size_t j = 0; j < k + b; ++j) po += l[j];
        double pn = 0.0;
        for (std::size_t j = 0; j < k; ++j) pn += next[j];
        log_vol = po - pn;
      }
      double val;
      if (b == 1) {
        val = log_vol;  // last position absorbs the exact remainder
      } else {
        double g;
        if (!fast) {
          g = log_block_head(b, log_vol);
        } else if (b >= kGhMinRank) {
          g = (head_const[b] + log_vol) / static_cast<double>(b) - half_log_pi;
        } else {
          g = head_const[b] + log_vol / static_cast<double>(b);
        }
        if (untouched) {
          if (g < l[k]) {
            val = g;
            untouched = false;
          } else {
            val = l[k];
          }
        } else {
          val = g;
        }
      }
      max_delta = std::max(max_delta, std::fabs(val - l[k]));
      next[k] = val;
      if (fast) new_acc += val;
    }
    l.swap(next);
    if (max_delta <= params.convergence) break;
  }
  return l;
}

bool intersect_predicate(const std::vector<double>& profile, std::size_t beta,
                         const BkzSimParams& params, bool fast) {
  const std::size_t d = profile.size();
  const std::vector<double> sim = simulate_impl(profile, beta, params, fast);
  return 0.5 * std::log(static_cast<double>(beta)) <= sim[d - beta];
}

}  // namespace

double root_hermite_delta(double beta) {
  if (beta < kSmallBeta) beta = kSmallBeta;
  if (beta >= kFormulaFloor) return delta_formula(beta);
  // Log-linear interpolation between (2, 1.0219) and (36, formula(36)).
  const double lo = std::log(kSmallBetaDelta);
  const double hi = std::log(delta_formula(kFormulaFloor));
  const double t = (beta - kSmallBeta) / (kFormulaFloor - kSmallBeta);
  return std::exp(lo + t * (hi - lo));
}

double log_gaussian_heuristic(std::size_t b, double log_vol) {
  const double bd = static_cast<double>(b);
  return (std::lgamma(0.5 * bd + 1.0) + log_vol) / bd -
         0.5 * std::log(std::numbers::pi);
}

double log_block_head(std::size_t b, double log_vol) {
  if (b >= kGhMinRank) return log_gaussian_heuristic(b, log_vol);
  const double bd = static_cast<double>(b);
  return (bd - 1.0) * std::log(root_hermite_delta(bd)) + log_vol / bd;
}

std::vector<double> simulate_bkz_profile(std::vector<double> log_profile,
                                         std::size_t beta,
                                         const BkzSimParams& params) {
  return simulate_impl(std::move(log_profile), beta, params, /*fast=*/true);
}

std::vector<double> simulate_bkz_profile_reference(std::vector<double> log_profile,
                                                   std::size_t beta,
                                                   const BkzSimParams& params) {
  return simulate_impl(std::move(log_profile), beta, params, /*fast=*/false);
}

double simulated_intersect_beta(const std::vector<double>& log_profile,
                                const BkzSimParams& params) {
  const std::size_t d = log_profile.size();
  if (d < 2)
    throw std::invalid_argument("simulated_intersect_beta: profile too small");
  const auto pred = [&](std::size_t beta) {
    return intersect_predicate(log_profile, beta, params, /*fast=*/true);
  };
  if (pred(2)) return 2.0;
  if (!pred(d)) return static_cast<double>(d);
  // Bisection on the (empirically monotone) predicate. It ends with
  // hi == lo + 1 and pred(lo) already known false, so hi is the bottom of
  // the successful run it bracketed.
  std::size_t lo = 2;  // pred(lo) == false
  std::size_t hi = d;  // pred(hi) == true
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return static_cast<double>(hi);
}

double simulated_intersect_beta_reference(const std::vector<double>& log_profile,
                                          const BkzSimParams& params) {
  const std::size_t d = log_profile.size();
  if (d < 2)
    throw std::invalid_argument("simulated_intersect_beta: profile too small");
  for (std::size_t beta = 2; beta <= d; ++beta) {
    if (intersect_predicate(log_profile, beta, params, /*fast=*/false))
      return static_cast<double>(beta);
  }
  return static_cast<double>(d);
}

}  // namespace reveal::lattice
