#include "repair/cost_model.h"

#include "common/string_util.h"

namespace semandaq::repair {

using relational::DataType;
using relational::Value;

CostModel::CostModel(const relational::Schema& schema, CostModelOptions options)
    : schema_(schema), options_(std::move(options)) {}

double CostModel::CellChangeCost(size_t col, const Value& from, const Value& to) const {
  if (from == to) return 0.0;
  const double w = weight(col);
  if (to.is_null() || from.is_null()) {
    // Introducing or overwriting NULL: a full change, with the NULL escape
    // surcharged so constant repairs win when available.
    return w * (to.is_null() ? options_.null_penalty : 1.0);
  }
  if (from.type() == DataType::kString && to.type() == DataType::kString) {
    return w * common::NormalizedEditDistance(from.AsString(), to.AsString());
  }
  return w;  // numeric or mixed-type change: unit cost
}

double CostModel::CellChangeCostCoded(size_t col, relational::Code from,
                                      relational::Code to,
                                      const relational::Dictionary& dict) const {
  if (from == to) return 0.0;  // injective codes: equal code <=> equal value
  return CellChangeCost(col, dict.Decode(from), dict.Decode(to));
}

}  // namespace semandaq::repair
