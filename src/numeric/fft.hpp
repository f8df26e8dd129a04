#pragma once
// Small radix-2 complex FFT over doubles, plus the linear cross-correlation
// built on it.
//
// The SEAL layer's NTTs (seal/ntt_fast) are modular transforms and cannot
// serve floating-point signal processing, so the analysis plane gets its own
// iterative Cooley-Tukey machinery: precomputed bit-reversal permutation and
// twiddle table, in-place butterflies, O(n log n). Used by sca/alignment to
// replace the O(L * lag) time-domain cross-correlation scan.

#include <complex>
#include <cstddef>
#include <vector>

namespace reveal::num {

/// Iterative radix-2 decimation-in-time FFT with precomputed twiddles.
/// One instance serves any number of transforms of the same size.
class Fft {
 public:
  /// `n` must be a power of two >= 1; throws std::invalid_argument otherwise.
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2*pi*i*j*k/n).
  void forward(std::complex<double>* data) const noexcept;
  /// In-place inverse DFT, including the 1/n scaling.
  void inverse(std::complex<double>* data) const noexcept;

  /// Smallest power of two >= n (and >= 1).
  [[nodiscard]] static std::size_t next_pow2(std::size_t n) noexcept;

 private:
  void transform(std::complex<double>* data, bool invert) const noexcept;

  std::size_t n_ = 0;
  std::vector<std::size_t> rev_;                 // bit-reversal permutation
  std::vector<std::complex<double>> twiddles_;   // exp(-2*pi*i*k/n), k < n/2
};

/// Full linear cross-correlation of two real sequences via zero-padded FFT:
/// out[d + (a.size() - 1)] = sum_i a[i] * b[i + d]
/// for every lag d in [-(a.size()-1), b.size()-1]. O((n_a+n_b) log(n_a+n_b)).
[[nodiscard]] std::vector<double> cross_correlation(const std::vector<double>& a,
                                                    const std::vector<double>& b);

}  // namespace reveal::num
