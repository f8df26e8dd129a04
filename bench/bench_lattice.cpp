// Paper-scale lattice-plane regression harness: the BKZ-simulator bikz
// estimator, timed against its pre-optimization reference with identity
// gates, and the paper's bikz-vs-hints curves.
//
//   bench_lattice [--smoke]
//
// Writes BENCH_lattice.json and exits nonzero if an identity gate fails
// (always) or a speedup gate fails (full runs only; --smoke shrinks the
// instances below the regime where the asymptotic wins show).
//
// Paper anchor (RevEAL section V): n = m = 1024, q = 132120577,
// sigma = 3.2 — the full-attack (Table III) and sign-only (Table IV)
// bikz-vs-hints curves. The paper_curves leg reproduces both end-to-end
// through the simulator fast path and records the wall clock.

#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "bench_common.hpp"
#include "lattice/bkz_sim.hpp"
#include "lwe/dbdd.hpp"

using namespace reveal;

namespace {

constexpr double kCurveWallBudgetMs = 600000.0;  // "minutes, not hours"

int run_json_harness(bool smoke) {
  bench::GateTable gates(smoke);
  bench::JsonWriter json;
  json.text("bench", "lattice").flag("smoke", smoke);

  // ---- leg 1: BKZ-simulator bisection vs linear-scan anchor ------------
  // Overlapping-dimension anchor: moderate dim so the O(d^2)-per-tour
  // reference scan stays benchmarkable; q small enough that the intersect
  // lands mid-range.
  lwe::DbddParams sim_p;
  sim_p.secret_dim = sim_p.error_dim = smoke ? 64 : 256;
  sim_p.q = 3329.0;
  sim_p.secret_variance = sim_p.error_variance = 2.25;
  lattice::BkzSimParams sim_params;
  sim_params.max_tours = 48;
  const std::vector<double> sim_profile =
      lwe::DbddEstimator(sim_p).normalized_log_profile();

  double sim_beta_fast = 0.0;
  double sim_beta_ref = 0.0;
  const auto [sim_fast, sim_ref] = bench::time_legs(
      smoke,
      bench::leg(1,
                 [&](std::size_t) {
                   sim_beta_fast = lattice::simulated_intersect_beta(sim_profile, sim_params);
                 }),
      bench::leg(1, [&](std::size_t) {
        sim_beta_ref = lattice::simulated_intersect_beta_reference(sim_profile, sim_params);
      }));
  const double sim_speedup = bench::speedup(sim_fast, sim_ref);
  const auto prof_fast = lattice::simulate_bkz_profile(
      sim_profile, static_cast<std::size_t>(sim_beta_fast), sim_params);
  const auto prof_ref = lattice::simulate_bkz_profile_reference(
      sim_profile, static_cast<std::size_t>(sim_beta_fast), sim_params);
  // The found beta sits in the root-Hermite regime (rank < 45) at smoke
  // size; beta = 45 also compares the Gaussian-heuristic head formula.
  constexpr std::size_t gh_beta = 45;
  const bool gh_identical =
      lattice::simulate_bkz_profile(sim_profile, gh_beta, sim_params) ==
      lattice::simulate_bkz_profile_reference(sim_profile, gh_beta, sim_params);
  const bool sim_identical =
      sim_beta_fast == sim_beta_ref && prof_fast == prof_ref && gh_identical;
  gates.at_least("sim_speedup_min", sim_speedup, 5.0);
  gates.require("bkz_sim_identical", sim_identical);
  json.object("bkz_sim")
      .count("profile_dim", sim_profile.size()).num("beta", sim_beta_fast, "%.2f")
      .timing("fast_ms", sim_fast, "%.2f", 1e-6).timing("baseline_ms", sim_ref, "%.2f", 1e-6)
      .num("speedup", sim_speedup, "%.2f").flag("identical", sim_identical).end();

  // ---- leg 2: paper curves (Tables III/IV shape at n = 1024) -----------
  const lwe::DbddParams paper = bench::seal128_params(smoke ? 8 : 1);
  const std::vector<std::size_t> curve_counts =
      smoke ? std::vector<std::size_t>{0, 64, 128}
            : std::vector<std::size_t>{0, 128, 256, 512, 768, 900, 1000, 1024};
  // Sign-only hints: posterior replacement by the sign-conditioned
  // half-Gaussian variance sigma^2 * (1 - 2/pi) (paper Table IV).
  const double sign_var = paper.error_variance * (1.0 - 2.0 / std::numbers::pi);

  struct CurvePoint {
    std::size_t count;
    double closed_full, sim_full, closed_sign, sim_sign;
  };
  std::vector<CurvePoint> curve;
  const bench::Timing curve_wall = bench::time_leg(smoke, 1, [&](std::size_t) {
    curve.clear();
    for (const std::size_t c : curve_counts) {
      lwe::DbddEstimator full_est(paper);
      full_est.integrate_perfect_error_hints(c);
      lwe::DbddEstimator sign_est(paper);
      sign_est.integrate_posterior_error_hints(sign_var, c);
      curve.push_back({c, full_est.estimate().beta, full_est.estimate_simulated().beta,
                       sign_est.estimate().beta, sign_est.estimate_simulated().beta});
    }
  });

  bool curve_sane = curve_wall.min_ns * 1e-6 <= kCurveWallBudgetMs;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    // More hints can only lower (or hold) the attack cost.
    curve_sane = curve_sane && curve[i].sim_full <= curve[i - 1].sim_full &&
                 curve[i].sim_sign <= curve[i - 1].sim_sign + 1e-9;
  }
  // The simulator and the GSA closed form anchor each other at zero hints.
  curve_sane =
      curve_sane && std::fabs(curve.front().sim_full - curve.front().closed_full) <= 60.0;
  // Full knowledge of every error coordinate breaks the instance outright.
  curve_sane = curve_sane && curve.back().sim_full <= 40.0;
  gates.require("paper_curves_sane", curve_sane);
  json.object("paper_curves")
      .count("dim", lwe::DbddEstimator(paper).dim()).timing("wall_ms", curve_wall, "%.1f", 1e-6)
      .flag("sane", curve_sane).array("points");
  for (const CurvePoint& pt : curve) {
    json.object().count("hints", pt.count).num("closed_full", pt.closed_full, "%.2f")
        .num("sim_full", pt.sim_full, "%.2f").num("closed_sign", pt.closed_sign, "%.2f")
        .num("sim_sign", pt.sim_sign, "%.2f").end();
  }
  json.end().end();
  gates.write(json);

  std::fputs(json.str().c_str(), stdout);
  const bool written = json.write("BENCH_lattice.json");
  return gates.report("bench_lattice") && written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_json_harness(bench::has_flag(argc, argv, "--smoke"));
}
