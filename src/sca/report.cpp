#include "sca/report.hpp"

#include <iomanip>
#include <sstream>

namespace reveal::sca {

void ConfusionMatrix::add(std::int32_t truth, std::int32_t predicted) {
  ++counts_[{truth, predicted}];
  ++truth_totals_[truth];
  ++pred_totals_[predicted];
  ++total_;
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  for (const auto& [key, c] : other.counts_) counts_[key] += c;
  for (const auto& [t, c] : other.truth_totals_) truth_totals_[t] += c;
  for (const auto& [p, c] : other.pred_totals_) pred_totals_[p] += c;
  total_ += other.total_;
}

std::size_t ConfusionMatrix::count(std::int32_t truth, std::int32_t predicted) const {
  const auto it = counts_.find({truth, predicted});
  return it == counts_.end() ? 0 : it->second;
}

std::size_t ConfusionMatrix::truth_count(std::int32_t truth) const {
  const auto it = truth_totals_.find(truth);
  return it == truth_totals_.end() ? 0 : it->second;
}

double ConfusionMatrix::percent(std::int32_t truth, std::int32_t predicted) const {
  const std::size_t denom = truth_count(truth);
  if (denom == 0) return 0.0;
  return 100.0 * static_cast<double>(count(truth, predicted)) / static_cast<double>(denom);
}

double ConfusionMatrix::overall_accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (const auto& [key, c] : counts_) {
    if (key.first == key.second) correct += c;
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(total_);
}

std::vector<std::int32_t> ConfusionMatrix::truths() const {
  std::vector<std::int32_t> out;
  out.reserve(truth_totals_.size());
  for (const auto& [t, c] : truth_totals_) out.push_back(t);
  return out;
}

std::vector<std::int32_t> ConfusionMatrix::predictions() const {
  std::vector<std::int32_t> out;
  out.reserve(pred_totals_.size());
  for (const auto& [p, c] : pred_totals_) out.push_back(p);
  return out;
}

std::string ConfusionMatrix::to_table(std::int32_t row_lo, std::int32_t row_hi,
                                      std::int32_t col_lo, std::int32_t col_hi) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << std::setw(5) << "pred\\";
  for (std::int32_t c = col_lo; c <= col_hi; ++c) os << std::setw(7) << c;
  os << '\n';
  for (std::int32_t r = row_lo; r <= row_hi; ++r) {
    os << std::setw(5) << r;
    for (std::int32_t c = col_lo; c <= col_hi; ++c) {
      os << std::setw(7) << percent(c, r);
    }
    os << '\n';
  }
  return os.str();
}

const char* to_string(SegmentationStatus status) {
  switch (status) {
    case SegmentationStatus::kOk: return "ok";
    case SegmentationStatus::kRecovered: return "recovered";
    case SegmentationStatus::kDegraded: return "degraded";
    case SegmentationStatus::kFailed: return "failed";
  }
  return "?";
}

std::string RecoveryReport::to_string() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "segmentation: " << reveal::sca::to_string(segmentation_status) << " ("
     << recovered_windows << "/" << expected_windows << " windows, "
     << segmentation_attempts << " attempt" << (segmentation_attempts == 1 ? "" : "s")
     << ", burst consistency " << burst_consistency << ")\n";
  os << "guesses:      " << ok_guesses << " ok, " << low_confidence_guesses
     << " low-confidence, " << abstained_guesses << " abstained\n";
  os << "hints:        " << perfect_hints << " perfect, " << approximate_hints
     << " approximate, " << sign_only_hints << " sign-only, " << dropped_hints
     << " dropped\n";
  os << "residual:     " << bikz << " bikz (" << bits << " bits)";
  return os.str();
}

}  // namespace reveal::sca
