#include "core/anonymity.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/key_enumeration.h"
#include "core/sample_bounds.h"
#include "core/separation.h"
#include "data/partition.h"
#include "stream/tuple_sample.h"
#include "util/logging.h"

namespace qikey {

uint64_t AnonymityLevel(const Dataset& dataset, const AttributeSet& attrs) {
  Partition p = SeparationPartition(dataset, attrs);
  uint64_t min_class = ~uint64_t{0};
  for (uint32_t s : p.block_sizes()) {
    min_class = std::min<uint64_t>(min_class, s);
  }
  return p.num_blocks() == 0 ? 0 : min_class;
}

double RowsBelowK(const Dataset& dataset, const AttributeSet& attrs,
                  uint64_t k) {
  if (dataset.num_rows() == 0) return 0.0;
  Partition p = SeparationPartition(dataset, attrs);
  uint64_t at_risk = 0;
  for (uint32_t s : p.block_sizes()) {
    if (s < k) at_risk += s;
  }
  return static_cast<double>(at_risk) /
         static_cast<double>(dataset.num_rows());
}

std::vector<RowIndex> SuppressForKAnonymity(const Dataset& dataset,
                                            const AttributeSet& attrs,
                                            uint64_t k) {
  Partition p = SeparationPartition(dataset, attrs);
  std::vector<RowIndex> suppressed;
  for (RowIndex r = 0; r < dataset.num_rows(); ++r) {
    if (p.block_sizes()[p.block_of(r)] < k) suppressed.push_back(r);
  }
  return suppressed;
}

Result<RiskReport> AuditQuasiIdentifiers(const Dataset& dataset, double eps,
                                         uint32_t max_qi_size, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  QIKEY_RETURN_NOT_OK(ValidateEps(eps));
  // Enumerate candidate QIs on the paper's tuple sample (cheap), then
  // score the survivors exactly on the full data.
  uint64_t r = ResolveTupleSampleSize(0, dataset.num_attributes(), eps);
  Dataset sample =
      DrawTupleSample(dataset, 0, dataset.num_rows(), r, rng).sample;

  KeyEnumerationOptions enum_opts;
  enum_opts.eps = eps;
  enum_opts.max_size = max_qi_size;
  enum_opts.max_candidates = 1u << 18;
  Result<std::vector<AttributeSet>> keys =
      EnumerateMinimalKeys(sample, enum_opts);
  RiskReport report;
  std::vector<AttributeSet> candidates;
  if (keys.ok()) {
    candidates = std::move(keys).ValueOrDie();
  } else if (keys.status().code() == StatusCode::kOutOfRange) {
    report.truncated = true;
    return report;
  } else {
    return keys.status();
  }

  for (const AttributeSet& qi : candidates) {
    QuasiIdentifierRisk risk;
    risk.attrs = qi;
    risk.separation_ratio = SeparationRatio(dataset, qi);
    Partition p = SeparationPartition(dataset, qi);
    uint64_t min_class = ~uint64_t{0};
    uint64_t singletons = 0;
    uint64_t below2 = 0;
    for (uint32_t s : p.block_sizes()) {
      min_class = std::min<uint64_t>(min_class, s);
      if (s == 1) ++singletons;
      if (s < 2) below2 += s;
    }
    risk.anonymity_level = p.num_blocks() == 0 ? 0 : min_class;
    risk.uniqueness = static_cast<double>(singletons) /
                      static_cast<double>(dataset.num_rows());
    risk.suppression_for_k2 = static_cast<double>(below2) /
                              static_cast<double>(dataset.num_rows());
    report.quasi_identifiers.push_back(std::move(risk));
  }
  std::sort(report.quasi_identifiers.begin(),
            report.quasi_identifiers.end(),
            [](const QuasiIdentifierRisk& a, const QuasiIdentifierRisk& b) {
              return a.separation_ratio > b.separation_ratio;
            });
  return report;
}

std::string FormatRiskReport(const RiskReport& report, const Schema& schema) {
  std::ostringstream out;
  out << std::left << std::setw(44) << "quasi-identifier" << std::right
      << std::setw(11) << "sep-ratio" << std::setw(8) << "k-anon"
      << std::setw(12) << "uniqueness" << std::setw(12) << "suppr(k=2)"
      << "\n";
  for (const QuasiIdentifierRisk& r : report.quasi_identifiers) {
    out << std::left << std::setw(44) << r.attrs.ToString(&schema)
        << std::right << std::setw(11) << std::fixed << std::setprecision(6)
        << r.separation_ratio << std::setw(8) << r.anonymity_level
        << std::setw(11) << std::setprecision(2) << 100.0 * r.uniqueness
        << "%" << std::setw(11) << 100.0 * r.suppression_for_k2 << "%\n";
  }
  if (report.truncated) {
    out << "(enumeration truncated by candidate budget)\n";
  }
  return out.str();
}

}  // namespace qikey
