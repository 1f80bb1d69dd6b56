#ifndef SEMANDAQ_TESTS_TEST_UTIL_H_
#define SEMANDAQ_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"

/// Gtest glue for the Status/Result error model.
#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const ::semandaq::common::Status _st = (expr);             \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    const ::semandaq::common::Status _st = (expr);             \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  auto SEMANDAQ_CONCAT_(_r_, __LINE__) = (expr);               \
  ASSERT_TRUE(SEMANDAQ_CONCAT_(_r_, __LINE__).ok())            \
      << SEMANDAQ_CONCAT_(_r_, __LINE__).status().ToString();  \
  lhs = std::move(SEMANDAQ_CONCAT_(_r_, __LINE__)).value()

namespace semandaq::testing {

/// Builds an all-string relation from a header and string rows ("" = NULL).
inline relational::Relation MakeStringRelation(
    const std::string& name, std::initializer_list<std::string> attrs,
    std::initializer_list<std::initializer_list<const char*>> rows) {
  std::vector<std::string> names(attrs.begin(), attrs.end());
  relational::Relation rel{name, relational::Schema::AllStrings(names)};
  for (const auto& r : rows) {
    relational::Row row;
    for (const char* cell : r) {
      row.push_back(std::string(cell).empty()
                        ? relational::Value::Null()
                        : relational::Value::String(cell));
    }
    rel.MustInsert(std::move(row));
  }
  return rel;
}

/// The customer instance used in the paper's Section 3 walkthrough: UK
/// customers sharing zip EH2 4SD with three different streets (the Fig. 2
/// drill-down), a CC/CNT inconsistency, and clean Dutch/US tuples.
inline relational::Relation PaperCustomerRelation() {
  return MakeStringRelation(
      "customer", {"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"},
      {
          {"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield Rd", "44", "131"},
          {"Rick", "UK", "Edinburgh", "EH2 4SD", "Crichton St", "44", "131"},
          {"Joe", "UK", "Edinburgh", "EH2 4SD", "Mayfield Rd", "44", "131"},
          {"Mary", "UK", "Edinburgh", "EH8 9LE", "Princes St", "44", "131"},
          {"Anna", "NL", "Amsterdam", "1016", "Keizersgracht", "31", "20"},
          {"Bob", "US", "Chicago", "60614", "Clark St", "1", "312"},
          // CC says UK but CNT says US: violates the constant CFD phi4.
          {"Eve", "US", "NewYork", "10011", "Broadway", "44", "212"},
      });
}

/// The repaired relation of a plan: a clone of `input` with the plan's
/// changes applied by repair::ApplyChanges.
inline relational::Relation Repaired(const relational::Relation& input,
                                     const repair::RepairResult& result) {
  relational::Relation out = input.Clone();
  EXPECT_OK(repair::ApplyChanges(result.changes, &out));
  return out;
}

/// Sigma from the paper's Section 3 (phi2 and phi4), in parser notation.
inline const char* PaperCfdText() {
  return "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
         "customer: [CC=44] -> [CNT=UK]\n";
}

}  // namespace semandaq::testing

#endif  // SEMANDAQ_TESTS_TEST_UTIL_H_
