#include "sql/binder.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace semandaq::sql {

namespace {

using common::Result;
using common::Status;

bool IsAggregateName(const std::string& upper) {
  return upper == "COUNT" || upper == "SUM" || upper == "AVG" || upper == "MIN" ||
         upper == "MAX";
}

class Binder {
 public:
  Binder(SelectStmt stmt, const relational::Database& db) : db_(db) {
    q_.stmt = std::move(stmt);
  }

  Result<BoundQuery> Run() {
    SEMANDAQ_RETURN_IF_ERROR(BindTables());
    // WHERE and GROUP BY: no aggregates allowed.
    if (q_.stmt.where) {
      SEMANDAQ_RETURN_IF_ERROR(BindExpr(q_.stmt.where.get(), /*allow_agg=*/false));
    }
    for (auto& g : q_.stmt.group_by) {
      SEMANDAQ_RETURN_IF_ERROR(BindExpr(g.get(), /*allow_agg=*/false));
    }
    // Select list (stars expanded), HAVING, ORDER BY: aggregates allowed.
    SEMANDAQ_RETURN_IF_ERROR(ExpandOutputs());
    for (auto& out : q_.outputs) {
      SEMANDAQ_RETURN_IF_ERROR(BindExpr(out.expr.get(), /*allow_agg=*/true));
    }
    if (q_.stmt.having) {
      SEMANDAQ_RETURN_IF_ERROR(BindExpr(q_.stmt.having.get(), /*allow_agg=*/true));
    }
    for (auto& o : q_.stmt.order_by) {
      ResolveOutputAlias(&o.expr);
      SEMANDAQ_RETURN_IF_ERROR(BindExpr(o.expr.get(), /*allow_agg=*/true));
    }
    q_.is_aggregate = !q_.stmt.group_by.empty() || !q_.aggregates.empty();
    if (q_.stmt.having && !q_.is_aggregate) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    SEMANDAQ_RETURN_IF_ERROR(UniquifyOutputNames());
    return std::move(q_);
  }

 private:
  Status BindTables() {
    if (q_.stmt.from.empty()) {
      return Status::InvalidArgument("FROM clause is required");
    }
    std::unordered_set<std::string> seen;
    for (const TableRef& tr : q_.stmt.from) {
      const relational::Relation* rel = db_.FindRelation(tr.table_name);
      if (rel == nullptr) {
        return Status::NotFound("no relation named " + tr.table_name);
      }
      std::string eff = common::ToLower(tr.effective_name());
      if (!seen.insert(eff).second) {
        return Status::InvalidArgument("duplicate table name/alias in FROM: " +
                                       tr.effective_name());
      }
      q_.tables.push_back(rel);
    }
    return Status::OK();
  }

  Status ExpandOutputs() {
    for (SelectItem& item : q_.stmt.items) {
      if (item.expr->kind == ExprKind::kStar) {
        const std::string& qual = item.expr->qualifier;
        bool matched = false;
        for (size_t t = 0; t < q_.tables.size(); ++t) {
          if (!qual.empty() &&
              !common::EqualsIgnoreCase(qual, q_.stmt.from[t].effective_name())) {
            continue;
          }
          matched = true;
          const auto& schema = q_.tables[t]->schema();
          for (size_t c = 0; c < schema.size(); ++c) {
            auto ref = Expr::Column(q_.stmt.from[t].effective_name(),
                                    schema.attr(c).name);
            q_.outputs.push_back(OutputColumn{std::move(ref), schema.attr(c).name});
          }
        }
        if (!matched) {
          return Status::NotFound("star qualifier does not name a FROM table: " + qual);
        }
        continue;
      }
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                       : item.expr->ToString();
      }
      q_.outputs.push_back(OutputColumn{CloneExpr(*item.expr), std::move(name)});
    }
    if (q_.outputs.empty()) {
      return Status::InvalidArgument("empty select list");
    }
    return Status::OK();
  }

  /// Standard SQL resolves an unqualified ORDER BY name against the select
  /// list's aliases before the FROM tables: `ORDER BY n` sorts by the
  /// expression that `... AS n` names.
  void ResolveOutputAlias(std::unique_ptr<Expr>* e) const {
    if ((*e)->kind != ExprKind::kColumnRef || !(*e)->qualifier.empty()) return;
    for (const SelectItem& item : q_.stmt.items) {
      if (!item.alias.empty() && common::EqualsIgnoreCase(item.alias, (*e)->column)) {
        *e = CloneExpr(*item.expr);
        return;
      }
    }
  }

  Status BindExpr(Expr* e, bool allow_agg) {
    switch (e->kind) {
      case ExprKind::kLiteral:
        return Status::OK();
      case ExprKind::kStar:
        return Status::InvalidArgument("'*' is only valid in the select list");
      case ExprKind::kColumnRef:
        return BindColumn(e);
      case ExprKind::kUnary:
        return BindExpr(e->left.get(), allow_agg);
      case ExprKind::kBinary:
        SEMANDAQ_RETURN_IF_ERROR(BindExpr(e->left.get(), allow_agg));
        return BindExpr(e->right.get(), allow_agg);
      case ExprKind::kFuncCall: {
        if (!IsAggregateName(e->func_name)) {
          return Status::InvalidArgument("unknown function: " + e->func_name);
        }
        if (!allow_agg) {
          return Status::InvalidArgument(
              "aggregate " + e->func_name + " is not allowed in WHERE or GROUP BY");
        }
        if (e->star_arg && e->func_name != "COUNT") {
          return Status::InvalidArgument(e->func_name + "(*) is not valid");
        }
        if (!e->star_arg) {
          if (e->args.size() != 1) {
            return Status::InvalidArgument(e->func_name +
                                           " takes exactly one argument");
          }
          // The argument is evaluated per input row: no nested aggregates.
          SEMANDAQ_RETURN_IF_ERROR(BindExpr(e->args[0].get(), /*allow_agg=*/false));
        }
        e->agg_index = static_cast<int>(q_.aggregates.size());
        q_.aggregates.push_back(e);
        return Status::OK();
      }
      case ExprKind::kInList: {
        SEMANDAQ_RETURN_IF_ERROR(BindExpr(e->left.get(), allow_agg));
        for (auto& item : e->in_list) {
          SEMANDAQ_RETURN_IF_ERROR(BindExpr(item.get(), allow_agg));
        }
        return Status::OK();
      }
      case ExprKind::kIsNull:
        return BindExpr(e->left.get(), allow_agg);
      case ExprKind::kLike:
        SEMANDAQ_RETURN_IF_ERROR(BindExpr(e->left.get(), allow_agg));
        return BindExpr(e->right.get(), allow_agg);
    }
    return Status::Internal("unreachable expression kind");
  }

  Status BindColumn(Expr* e) {
    int found_table = -1;
    int found_col = -1;
    for (size_t t = 0; t < q_.tables.size(); ++t) {
      if (!e->qualifier.empty() &&
          !common::EqualsIgnoreCase(e->qualifier, q_.stmt.from[t].effective_name())) {
        continue;
      }
      int col;
      if (common::EqualsIgnoreCase(e->column, kTidPseudoColumn)) {
        col = Expr::kTidColumn;
      } else {
        col = q_.tables[t]->schema().IndexOf(e->column);
        if (col < 0) continue;
      }
      if (found_table >= 0) {
        return Status::InvalidArgument("ambiguous column reference: " + e->ToString());
      }
      found_table = static_cast<int>(t);
      found_col = col;
    }
    if (found_table < 0) {
      return Status::NotFound("unresolved column reference: " + e->ToString());
    }
    e->bound_table = found_table;
    e->bound_col = found_col;
    return Status::OK();
  }

  Status UniquifyOutputNames() {
    std::unordered_map<std::string, int> counts;
    for (auto& out : q_.outputs) {
      std::string key = common::ToLower(out.name);
      int& n = counts[key];
      ++n;
      if (n > 1) out.name += "_" + std::to_string(n);
    }
    return Status::OK();
  }

  BoundQuery q_;
  const relational::Database& db_;
};

}  // namespace

common::Result<BoundQuery> Bind(SelectStmt stmt, const relational::Database& db) {
  Binder binder(std::move(stmt), db);
  return binder.Run();
}

}  // namespace semandaq::sql
