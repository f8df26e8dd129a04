#pragma once
// Full-recompute LLL, kept beside the tests as the oracle that
// lattice::lll_reduce's flat incremental kernel is fuzzed against.

#include <cstddef>

#include "lattice/lattice.hpp"

namespace reveal::lattice {

/// The LLL loop that recomputes the full GSO from scratch (compute_gso)
/// after every perturbation. lll_reduce must return the same swap count
/// and leave the same basis for every input.
std::size_t lll_reduce_reference(Basis& basis, const LllParams& params = {});

}  // namespace reveal::lattice
