#include "numeric/fft.hpp"

#include <cmath>
#include <stdexcept>

namespace reveal::num {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

Fft::Fft(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("Fft: size must be a power of two");
  rev_.resize(n);
  int log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log_n; ++b) r |= ((i >> b) & 1u) << (log_n - 1 - b);
    rev_[i] = r;
  }
  twiddles_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    twiddles_[k] = {std::cos(angle), std::sin(angle)};
  }
}

void Fft::transform(std::complex<double>* data, bool invert) const noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    if (i < rev_[i]) std::swap(data[i], data[rev_[i]]);
  }
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n_ / len;  // twiddle stride for this stage
    for (std::size_t block = 0; block < n_; block += len) {
      for (std::size_t j = 0; j < half; ++j) {
        std::complex<double> w = twiddles_[j * step];
        if (invert) w = std::conj(w);
        const std::complex<double> u = data[block + j];
        const std::complex<double> v = data[block + j + half] * w;
        data[block + j] = u + v;
        data[block + j + half] = u - v;
      }
    }
  }
  if (invert) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
  }
}

void Fft::forward(std::complex<double>* data) const noexcept { transform(data, false); }

void Fft::inverse(std::complex<double>* data) const noexcept { transform(data, true); }

std::size_t Fft::next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> cross_correlation(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.empty() || b.empty())
    throw std::invalid_argument("cross_correlation: empty input");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = Fft::next_pow2(a.size() + b.size());
  const Fft fft(n);

  // Pack both real sequences into one complex transform: with x = a + i*b,
  // the spectra separate through Hermitian symmetry, saving one forward FFT.
  std::vector<std::complex<double>> x(n, {0.0, 0.0});
  for (std::size_t i = 0; i < a.size(); ++i) x[i] = {a[i], 0.0};
  for (std::size_t i = 0; i < b.size(); ++i) x[i] += std::complex<double>{0.0, b[i]};
  fft.forward(x.data());

  // A[k] = (X[k] + conj(X[n-k]))/2, B[k] = (X[k] - conj(X[n-k]))/(2i);
  // the correlation spectrum is conj(A[k]) * B[k].
  std::vector<std::complex<double>> z(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::complex<double> xk = x[k];
    const std::complex<double> xnk = std::conj(x[(n - k) & (n - 1)]);
    const std::complex<double> ak = 0.5 * (xk + xnk);
    const std::complex<double> bk = std::complex<double>{0.0, -0.5} * (xk - xnk);
    z[k] = std::conj(ak) * bk;
  }
  fft.inverse(z.data());

  // z[k] = sum_i a[i] * b[(i + k) mod n]; zero padding to n >= n_a + n_b
  // keeps positive lags (k = d) and negative lags (k = n + d) from aliasing.
  std::vector<double> out(out_len);
  const auto a_n = static_cast<std::ptrdiff_t>(a.size());
  const auto b_n = static_cast<std::ptrdiff_t>(b.size());
  for (std::ptrdiff_t d = -(a_n - 1); d < b_n; ++d) {
    const std::size_t src = d >= 0 ? static_cast<std::size_t>(d)
                                   : n - static_cast<std::size_t>(-d);
    out[static_cast<std::size_t>(d + a_n - 1)] = z[src].real();
  }
  return out;
}

}  // namespace reveal::num
