#ifndef SEMANDAQ_REPAIR_COST_MODEL_H_
#define SEMANDAQ_REPAIR_COST_MODEL_H_

#include <vector>

#include "relational/dictionary.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace semandaq::repair {

/// Tuning knobs of the repair cost model.
struct CostModelOptions {
  /// Per-column weights w(t, A) (confidence in the attribute's accuracy, as
  /// in Bohannon et al. [SIGMOD'05] / Cong et al. [VLDB'07]). Missing
  /// entries default to `default_weight`.
  std::vector<double> attr_weights;
  double default_weight = 1.0;

  /// Cost surcharge multiplier for repairing a cell to NULL (the
  /// termination-guaranteeing "don't know" value of [VLDB'07]); keeps NULL
  /// escapes as a last resort.
  double null_penalty = 1.5;
};

/// The repair cost model of the data cleanser (paper §2: "these alternatives
/// are ranked according to the cost model used in the underlying repair
/// algorithms"): cost(v -> v') = w(A) * dist(v, v') with dist the
/// Damerau-Levenshtein distance normalized by max(|v|, |v'|), so cost is in
/// [0, w(A)] for string repairs. Numeric cells use identity-0 / change-1.
class CostModel {
 public:
  explicit CostModel(const relational::Schema& schema, CostModelOptions options = {});

  /// Cost of changing column `col` from `from` to `to`. Zero when equal.
  double CellChangeCost(size_t col, const relational::Value& from,
                        const relational::Value& to) const;

  /// Code-level fast path of CellChangeCost through one column's shared
  /// dictionary: equal codes are equal values (dictionaries are injective),
  /// so the zero-cost case needs no decode at all; unequal codes decode
  /// once and fall into the value path. Both codes must have been issued by
  /// `dict` (or be kNullCode).
  double CellChangeCostCoded(size_t col, relational::Code from,
                             relational::Code to,
                             const relational::Dictionary& dict) const;

  double weight(size_t col) const {
    return col < options_.attr_weights.size() ? options_.attr_weights[col]
                                              : options_.default_weight;
  }

  const CostModelOptions& options() const { return options_; }

 private:
  relational::Schema schema_;
  CostModelOptions options_;
};

}  // namespace semandaq::repair

#endif  // SEMANDAQ_REPAIR_COST_MODEL_H_
