#include "detect/sql_generator.h"

#include <algorithm>

#include "cfd/tableau_store.h"
#include "common/string_util.h"

namespace semandaq::detect {

namespace {

/// Quotes an identifier for safe embedding in generated SQL (embedded `"`
/// doubled, the escape the SQL lexer reads back as one quote).
std::string Ident(const std::string& name) {
  return common::QuoteSqlString(name, '"');
}

/// `(t.X = tp.X OR tp.X IS NULL)` for every LHS attribute — the pattern
/// match predicate with NULL-encoded wildcards.
std::string LhsMatchPredicate(const std::vector<std::string>& lhs_attrs) {
  std::vector<std::string> parts;
  parts.reserve(lhs_attrs.size());
  for (const std::string& a : lhs_attrs) {
    parts.push_back("(t." + Ident(a) + " = tp." + Ident(a) + " OR tp." + Ident(a) +
                    " IS NULL)");
  }
  return common::Join(parts, " AND ");
}

}  // namespace

std::vector<DetectionQueries> GenerateDetectionSql(
    const std::vector<cfd::Cfd>& cfds, const std::string& relation,
    const std::vector<std::string>& tableau_names) {
  const std::vector<cfd::EmbeddedFdGroup> groups = cfd::GroupByEmbeddedFd(cfds);
  std::vector<DetectionQueries> out;
  out.reserve(groups.size());

  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const cfd::EmbeddedFdGroup& g = groups[gi];
    DetectionQueries q;
    q.fd_group = static_cast<int>(gi);
    q.tableau_relation = gi < tableau_names.size()
                             ? tableau_names[gi]
                             : std::string("__cfd_tableau_") + std::to_string(gi);
    q.keys_relation = "__vio_keys_" + std::to_string(gi);

    // The tableau stores a NULL constant as NULL, like a wildcard; only a
    // group that has one tests the marker column (cfd::TableauStore), so
    // every other group's queries keep their plain form.
    bool marked = false;
    for (const auto& [ci, pi] : g.members) {
      const cfd::PatternTuple& pt = cfds[ci].tableau()[pi];
      if (pt.is_constant_rhs()) {
        q.has_constant_rows = true;
      } else {
        q.has_variable_rows = true;
      }
      marked = marked || pt.rhs.is_null_constant() ||
               std::any_of(pt.lhs.begin(), pt.lhs.end(),
                           [](const cfd::PatternValue& v) { return v.is_null_constant(); });
    }

    const std::string rhs = Ident(g.rhs_attr);
    const std::string marker = "tp." + Ident(cfd::TableauStore::kNullConstColumn);
    // A row with a NULL LHS constant selects no tuple.
    const std::string match =
        LhsMatchPredicate(g.lhs_attrs) + (marked ? " AND " + marker + " <> 1" : "");
    // A constant row's RHS test. A NULL RHS cell is unknown, not wrong; a
    // NULL RHS constant differs from every other value.
    const std::string differs =
        marked ? " AND t." + rhs + " IS NOT NULL AND (t." + rhs + " <> tp." + rhs +
                     " OR " + marker + " = 2)"
               : " AND tp." + rhs + " IS NOT NULL AND t." + rhs + " <> tp." + rhs;
    const std::string variable =
        " AND tp." + rhs + " IS NULL" + (marked ? " AND " + marker + " = 0" : "");

    // Q_C: one row per violating (tuple, CFD) pair; DISTINCT collapses
    // multiple tableau rows of the same CFD flagging the same tuple.
    q.qc = "SELECT DISTINCT t.__tid AS tid, tp.__cfd_id AS cfd_id, "
           "tp.__pattern_id AS pattern_id FROM " +
           Ident(relation) + " t, " + Ident(q.tableau_relation) + " tp WHERE " +
           match + differs;

    // Q_V step 1: violating LHS keys among tuples matching a variable-RHS
    // row. Tuples with NULL LHS values cannot witness equality, hence the
    // IS NOT NULL guards.
    std::string key_cols;
    std::string group_cols;
    std::string notnull;
    for (size_t i = 0; i < g.lhs_attrs.size(); ++i) {
      const std::string col = "t." + Ident(g.lhs_attrs[i]);
      if (i > 0) {
        key_cols += ", ";
        group_cols += ", ";
      }
      key_cols += col + " AS k" + std::to_string(i);
      group_cols += col;
      notnull += " AND " + col + " IS NOT NULL";
    }
    q.qv_keys = "SELECT " + key_cols + " FROM " + Ident(relation) + " t, " +
                Ident(q.tableau_relation) + " tp WHERE " + match + variable +
                notnull + " GROUP BY " + group_cols +
                " HAVING COUNT(DISTINCT t." + rhs + ") > 1";

    // Q_V step 2: join the materialized keys back to enumerate members.
    std::string back_join;
    for (size_t i = 0; i < g.lhs_attrs.size(); ++i) {
      back_join += " AND t." + Ident(g.lhs_attrs[i]) + " = m.k" + std::to_string(i);
    }
    std::string select_keys;
    for (size_t i = 0; i < g.lhs_attrs.size(); ++i) {
      select_keys += ", m.k" + std::to_string(i) + " AS k" + std::to_string(i);
    }
    // DISTINCT collapses tuples matching several variable rows; the member
    // set per key is what matters (the representative CFD is recovered from
    // the tableau group by the caller).
    q.qv_members = "SELECT DISTINCT t.__tid AS tid" + select_keys + ", t." + rhs +
                   " AS rhs FROM " + Ident(relation) + " t, " +
                   Ident(q.tableau_relation) + " tp, " + Ident(q.keys_relation) +
                   " m WHERE " + match + variable + back_join;

    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace semandaq::detect
