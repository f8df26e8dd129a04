#pragma once
// Integer lattice reduction: Gram-Schmidt, size reduction, LLL,
// Fincke-Pohst enumeration (SVP oracle) and BKZ.
//
// The paper uses BKZ block size ("bikz") as its security metric and relies
// on lattice reduction to "explore the remaining search space". This module
// provides a real (laptop-scale) implementation so the hint-reduced toy
// instances can actually be solved, complementing the analytic estimator in
// src/lwe/.

#include <cstdint>
#include <vector>

namespace reveal::lattice {

/// Row-major integer basis; each inner vector is one basis row.
using Basis = std::vector<std::vector<std::int64_t>>;

/// Gram-Schmidt data over long double.
struct Gso {
  std::vector<std::vector<long double>> mu;      ///< mu[i][j], j < i
  std::vector<long double> norms_sq;             ///< ||b*_i||^2
};

/// Computes the GSO of `basis` from scratch.
[[nodiscard]] Gso compute_gso(const Basis& basis);

/// Flat row-major GSO state with lazy row validity.
///
/// GSO row i (star_i, mu[i][0..i), ||b*_i||^2) is a pure function of basis
/// rows 0..i, evaluated here with exactly the arithmetic of compute_gso's
/// row loop. A perturbation of basis row k invalidates the GSO from row k
/// on; rows past the high-water mark are recomputed on arrival. Reads
/// therefore always observe the same long double values a full compute_gso
/// of the current basis would produce — which is what keeps lll_reduce's
/// decisions identical to the full-recompute loop — while a size-reduction
/// subtraction costs one O(k*d) row refresh instead of a full O(n^2*d)
/// recompute.
class FlatGso {
 public:
  explicit FlatGso(const Basis& basis);

  [[nodiscard]] long double mu(std::size_t i, std::size_t j) const noexcept {
    return mu_[i * rows_ + j];
  }
  [[nodiscard]] long double norms_sq(std::size_t i) const noexcept {
    return norms_sq_[i];
  }

  /// Marks GSO rows >= row as stale (basis row `row` was just modified,
  /// swapped, or erased).
  void invalidate_from(std::size_t row) noexcept {
    valid_ = valid_ < row ? valid_ : row;
  }

  /// Recomputes stale rows up to and including `i` from the current basis,
  /// which may have lost rows since construction but never gained any.
  void ensure(std::size_t i, const Basis& basis);

 private:
  std::size_t rows_;  ///< buffer stride (the constructed row count)
  std::size_t cols_;
  std::size_t valid_ = 0;  ///< rows [0, valid_) agree with the current basis
  std::vector<long double> star_;
  std::vector<long double> mu_;
  std::vector<long double> norms_sq_;
};

/// Squared Euclidean norm of an integer vector (128-bit accumulation).
[[nodiscard]] long double norm_sq(const std::vector<std::int64_t>& v);

struct LllParams {
  double delta = 0.99;  ///< Lovász parameter in (1/4, 1]
};

/// In-place LLL reduction; returns the number of swaps performed.
///
/// Runs the flat-storage kernel: GSO rows live in a FlatGso, and a
/// perturbation of basis row k (size-reduction subtraction, swap, erase)
/// invalidates only rows >= k. The reduced basis and swap count are
/// byte-identical to the full-recompute loop kept in tests/support.
std::size_t lll_reduce(Basis& basis, const LllParams& params = {});

/// True if `basis` is (delta-)LLL-reduced (size-reduced + Lovász).
[[nodiscard]] bool is_lll_reduced(const Basis& basis, double delta = 0.99,
                                  double tolerance = 1e-6);

/// Result of an SVP enumeration call.
struct EnumResult {
  bool found = false;
  std::vector<std::int64_t> coefficients;  ///< w.r.t. the (projected) block
  long double norm_sq = 0.0;
};

/// Schnorr-Euchner enumeration of the projected block [begin, end) of the
/// GSO: finds the shortest nonzero vector in that projected sublattice with
/// squared norm below `radius_sq` (pass <= 0 to use ||b*_begin||^2).
[[nodiscard]] EnumResult enumerate_shortest(const Gso& gso, std::size_t begin,
                                            std::size_t end, long double radius_sq = 0.0);

struct BkzParams {
  std::size_t block_size = 20;
  std::size_t max_tours = 16;
  double delta = 0.99;
};

/// In-place BKZ reduction; returns the number of block insertions.
///
/// LLL first, then tours of block positions: at each position the GSO is
/// recomputed, the projected block is enumerated, and a shorter vector is
/// inserted and cleaned up by a dependency-removing LLL pass.
std::size_t bkz_reduce(Basis& basis, const BkzParams& params);

/// Shortest basis row after reduction (by Euclidean norm).
[[nodiscard]] std::vector<std::int64_t> shortest_row(const Basis& basis);

/// Babai's nearest-plane algorithm: the lattice vector close to `target`
/// found by rounding along the (ideally LLL-reduced) basis's Gram-Schmidt
/// directions. Succeeds exactly when the offset lies in the fundamental
/// parallelepiped of the GSO — i.e. for errors below ~min ||b*_i||/2.
[[nodiscard]] std::vector<std::int64_t> babai_nearest_plane(
    const Basis& basis, const std::vector<std::int64_t>& target);

}  // namespace reveal::lattice
