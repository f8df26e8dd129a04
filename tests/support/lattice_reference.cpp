#include "lattice_reference.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace reveal::lattice {

std::size_t lll_reduce_reference(Basis& basis, const LllParams& params) {
  if (!(params.delta > 0.25 && params.delta <= 1.0))
    throw std::invalid_argument("lll_reduce: delta must be in (1/4, 1]");
  Gso gso = compute_gso(basis);  // rejects empty and ragged bases
  std::size_t swaps = 0;
  std::size_t k = 1;
  while (k < basis.size()) {
    // Size-reduce b_k against b_{k-1} ... b_0, refreshing the GSO after
    // every subtraction (reducing with b_j only perturbs mu[k][j'] for
    // j' <= j, so one downward pass reaches a fixed point).
    for (std::size_t j = k; j-- > 0;) {
      const long double mu = gso.mu[k][j];
      if (fabsl(mu) > 0.5L) {
        const auto m = static_cast<std::int64_t>(llroundl(mu));
        for (std::size_t c = 0; c < basis[k].size(); ++c) basis[k][c] -= m * basis[j][c];
        gso = compute_gso(basis);
      }
    }

    const long double lhs = gso.norms_sq[k];
    const long double rhs =
        (static_cast<long double>(params.delta) - gso.mu[k][k - 1] * gso.mu[k][k - 1]) *
        gso.norms_sq[k - 1];
    if (lhs >= rhs) {
      ++k;
    } else {
      std::swap(basis[k], basis[k - 1]);
      gso = compute_gso(basis);
      ++swaps;
      k = k > 1 ? k - 1 : 1;
    }
  }
  return swaps;
}

}  // namespace reveal::lattice
