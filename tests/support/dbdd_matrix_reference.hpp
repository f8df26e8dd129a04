#pragma once
// Full-covariance DBDD estimator: the test oracle for the lightweight
// dim/log-vol tracker in lwe/dbdd.hpp.
//
// Maintains the ellipsoid covariance Sigma over all secret+error
// coordinates explicitly, so hints along ARBITRARY directions v — not just
// coordinates — can be integrated with the DDGR20 update rules:
//
//   perfect hint <s, v> = l:
//     nu    += 1/2 ln(v^T Sigma v)        (normalized log-volume)
//     Sigma -= Sigma v v^T Sigma / (v^T Sigma v);  dim -= 1
//   approximate hint <s, v> = l + e,  e ~ N(0, eps):
//     nu    += 1/2 ln((v^T Sigma v + eps) / eps)
//     Sigma -= Sigma v v^T Sigma / (v^T Sigma v + eps)
//
// One dense matvec and one rank-1 downdate per hint on a num::Matrix. The
// side channel only yields coordinate hints, which the lightweight
// estimator takes in O(1) each; the tests assert that both estimators tell
// the same story on such hint streams.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lwe/dbdd.hpp"
#include "numeric/matrix.hpp"
#include "numeric/stats.hpp"

namespace reveal::lwe {

/// Typed result of a hint integration: degrade gracefully instead of
/// aborting a hint stream on a redundant hint.
enum class HintOutcome : std::uint8_t {
  kApplied,     ///< integrated; dim/log-volume updated
  kDegenerate,  ///< direction already (numerically) determined — rejected
  kExhausted,   ///< would eliminate the last live coordinate — rejected
};

class DbddMatrixEstimatorReference {
 public:
  explicit DbddMatrixEstimatorReference(const DbddParams& params);

  /// DBDD dimension (live coordinates + homogenization).
  [[nodiscard]] std::size_t dim() const noexcept { return sigma_.rows() - removed_ + 1; }
  [[nodiscard]] double logvol() const noexcept { return logvol_.value(); }
  /// Hints rejected as kDegenerate or kExhausted so far.
  [[nodiscard]] std::size_t rejected_hints() const noexcept { return rejected_; }
  [[nodiscard]] const num::Matrix& sigma() const noexcept { return sigma_; }

  /// Perfect hint along direction `v`, one entry per ambient coordinate in
  /// the layout [error_0 .. error_{m-1} | secret_0 .. secret_{n-1}].
  HintOutcome integrate_perfect_hint(const std::vector<double>& v);
  /// Approximate hint with measurement variance `eps` > 0.
  HintOutcome integrate_approximate_hint(const std::vector<double>& v, double eps);
  /// Perfect hint on error coordinate i.
  HintOutcome integrate_perfect_error_hint(std::size_t i);
  /// Perfect hints on ambient coordinates (indices into the layout above),
  /// one at a time in order.
  std::vector<HintOutcome> integrate_perfect_coordinate_hints(
      const std::vector<std::size_t>& coords);

  [[nodiscard]] SecurityEstimate estimate() const;

 private:
  double quadratic_form(const std::vector<double>& v,
                        std::vector<double>& sigma_v) const;
  void rank_one_downdate(const std::vector<double>& sigma_v, double denom);

  std::size_t error_dim_;
  std::size_t removed_ = 0;
  std::size_t rejected_ = 0;
  num::NeumaierSum logvol_;  // normalized: ln Vol(Lambda) - 1/2 ln det Sigma
  num::Matrix sigma_;
};

}  // namespace reveal::lwe
