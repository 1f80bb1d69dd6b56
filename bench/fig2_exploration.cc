// FIG-2 — "Data Exploration using CFDs": regenerates the four drill-down
// tables of the paper's Figure 2 on the Section-3 customer instance. The
// user selects the embedded FD [CNT, ZIP] -> [STR], its pattern tuple
// (UK, _ || _), the LHS match (UK, EH2 4SD), and sees the distinct RHS
// street values with violation counts guiding each step.

#include <cstdio>
#include <utility>

#include "cfd/cfd_parser.h"
#include "core/explorer.h"
#include "detect/native_detector.h"
#include "relational/relation.h"

namespace {

semandaq::relational::Relation PaperInstance() {
  using semandaq::relational::Relation;
  using semandaq::relational::Schema;
  using semandaq::relational::Value;
  Relation rel{"customer",
               Schema::AllStrings({"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"})};
  auto add = [&](const char* n, const char* c, const char* ci, const char* z,
                 const char* s, const char* cc, const char* ac) {
    rel.MustInsert({Value::String(n), Value::String(c), Value::String(ci),
                    Value::String(z), Value::String(s), Value::String(cc),
                    Value::String(ac)});
  };
  add("Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield Rd", "44", "131");
  add("Rick", "UK", "Edinburgh", "EH2 4SD", "Crichton St", "44", "131");
  add("Joe", "UK", "Edinburgh", "EH2 4SD", "Mayfield Rd", "44", "131");
  add("Mary", "UK", "Edinburgh", "EH8 9LE", "Princes St", "44", "131");
  add("Anna", "NL", "Amsterdam", "1016", "Keizersgracht", "31", "20");
  add("Bob", "US", "Chicago", "60614", "Clark St", "1", "312");
  add("Eve", "US", "NewYork", "10011", "Broadway", "44", "212");
  return rel;
}

}  // namespace

int main() {
  using semandaq::relational::Row;
  using semandaq::relational::Value;

  std::printf("=== Figure 2: Data Exploration using CFDs ===\n\n");

  semandaq::relational::Relation rel = PaperInstance();
  auto cfds_or = semandaq::cfd::ParseCfdSet(
      "customer: [CNT=UK, ZIP=_] -> [STR=_]\n"
      "customer: [CC=44] -> [CNT=UK]\n");
  if (!cfds_or.ok()) {
    std::printf("CFD parse failed: %s\n", cfds_or.status().ToString().c_str());
    return 1;
  }
  auto cfds = std::move(*cfds_or);
  for (auto& c : cfds) {
    if (auto st = c.Resolve(rel.schema()); !st.ok()) {
      std::printf("resolve failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  semandaq::detect::NativeDetector detector(&rel, cfds);
  auto table = detector.Detect();
  if (!table.ok()) {
    std::printf("detect failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  // The explorer gets a copy: the reverse exploration below prints `cfds`.
  semandaq::core::DataExplorer explorer(&rel, cfds, std::move(*table));
  Row lhs = {Value::String("UK"), Value::String("EH2 4SD")};
  std::printf("%s\n", explorer.RenderDrilldown(0, 0, lhs).c_str());

  // Final step: the tuples behind the selected RHS value.
  auto tuples = explorer.TuplesFor(0, 0, lhs, Value::String("Mayfield Rd"));
  if (tuples.ok()) {
    std::printf("-- tuples for RHS 'Mayfield Rd' --\n");
    for (auto tid : *tuples) {
      const Row& row = rel.row(tid);
      std::printf("   #%lld:", static_cast<long long>(tid));
      for (const auto& v : row) std::printf(" %s", v.ToDisplayString().c_str());
      std::printf("\n");
    }
  }

  // Reverse exploration, the second bullet of the paper's Fig. 2 scenario.
  std::printf("\n-- reverse exploration: CFDs relevant to tuple #6 (Eve) --\n");
  auto relevant = explorer.CfdsForTuple(6);
  if (relevant.ok()) {
    for (const auto& [ci, pi] : *relevant) {
      std::printf("   CFD #%d pattern #%d: %s\n", ci, pi,
                  cfds[static_cast<size_t>(ci)].ToString().c_str());
    }
  }
  return 0;
}
