#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/simd/simd.h"
#include "common/string_util.h"
#include "relational/encoded_relation.h"

namespace semandaq::sql {

namespace {

using common::Result;
using common::Status;
using relational::Code;
using relational::DataType;
using relational::EncodedRelation;
using relational::kNullCode;
using relational::Relation;
using relational::Row;
using relational::RowEq;
using relational::RowHash;
using relational::TupleId;
using relational::Value;

/// A partial or complete cross-product row: one base-table row pointer and
/// tuple id per FROM entry (null until that table is joined).
struct JoinedRow {
  std::vector<const Row*> rows;
  std::vector<TupleId> tids;
};

/// Tri-state boolean for SQL three-valued logic.
enum class TriBool { kFalse, kTrue, kUnknown };

TriBool ValueToTri(const Value& v, Status* status) {
  if (v.is_null()) return TriBool::kUnknown;
  double num = 0;
  if (v.ToNumeric(&num)) return num != 0 ? TriBool::kTrue : TriBool::kFalse;
  *status = Status::InvalidArgument("string value used as a boolean: " +
                                    v.ToDisplayString());
  return TriBool::kFalse;
}

Value TriToValue(TriBool b) {
  switch (b) {
    case TriBool::kFalse:
      return Value::Int(0);
    case TriBool::kTrue:
      return Value::Int(1);
    case TriBool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

/// State of one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool saw_double = false;
  bool has_minmax = false;
  Value min;
  Value max;
  std::unordered_set<Value, relational::ValueHash> distinct;
};

/// Per-row / per-group expression evaluation context.
struct EvalContext {
  const JoinedRow* row = nullptr;                ///< null only for empty global group
  const std::vector<Value>* agg_values = nullptr;  ///< set in group context
};

/// Executor batch size between cancel checkpoints: big enough that an
/// unarmed token costs one branch per ~4k rows, small enough that a cancel
/// lands within tens of milliseconds of work.
constexpr size_t kCancelBatch = 4096;

class ExecutorImpl {
 public:
  ExecutorImpl(const BoundQuery& q, common::CancelToken* cancel)
      : q_(q), cancel_(cancel), enc_(q.tables.size()) {}

  Result<Relation> Run(std::string_view result_name) {
    SEMANDAQ_ASSIGN_OR_RETURN(std::vector<JoinedRow> rows, BuildJoin());
    std::vector<Row> produced;      // projected output rows
    std::vector<Row> sort_keys;     // parallel, only when ORDER BY present
    if (q_.is_aggregate) {
      SEMANDAQ_RETURN_IF_ERROR(RunAggregate(rows, &produced, &sort_keys));
    } else {
      SEMANDAQ_RETURN_IF_ERROR(RunProjection(rows, &produced, &sort_keys));
    }
    if (q_.stmt.distinct) Deduplicate(&produced, &sort_keys);
    SortRows(&produced, &sort_keys);
    if (q_.stmt.limit.has_value() &&
        produced.size() > static_cast<size_t>(*q_.stmt.limit)) {
      produced.resize(static_cast<size_t>(std::max<int64_t>(0, *q_.stmt.limit)));
    }
    return Materialize(std::move(produced), result_name);
  }

 private:
  /// One cancel checkpoint per kCancelBatch calls; the hot loops below
  /// thread every processed row through here.
  Status MaybeCheckCancel() {
    if (cancel_ == nullptr) return Status::OK();
    if (++rows_since_check_ < kCancelBatch) return Status::OK();
    rows_since_check_ = 0;
    return cancel_->Check();
  }

  // -- Expression evaluation -----------------------------------------------

  Result<Value> Eval(const Expr& e, const EvalContext& ctx) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        if (ctx.row == nullptr || ctx.row->rows[e.bound_table] == nullptr) {
          return Value::Null();  // empty global aggregate group
        }
        if (e.bound_col == Expr::kTidColumn) {
          return Value::Int(ctx.row->tids[e.bound_table]);
        }
        return (*ctx.row->rows[e.bound_table])[static_cast<size_t>(e.bound_col)];
      }
      case ExprKind::kUnary: {
        SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*e.left, ctx));
        if (e.unary_op == UnaryOp::kNegate) {
          if (v.is_null()) return Value::Null();
          if (v.type() == DataType::kInt) return Value::Int(-v.AsInt());
          double num = 0;
          if (v.ToNumeric(&num)) return Value::Double(-num);
          return Status::InvalidArgument("cannot negate " + v.ToDisplayString());
        }
        Status st;
        TriBool b = ValueToTri(v, &st);
        if (!st.ok()) return st;
        switch (b) {
          case TriBool::kTrue:
            return Value::Int(0);
          case TriBool::kFalse:
            return Value::Int(1);
          case TriBool::kUnknown:
            return Value::Null();
        }
        return Value::Null();
      }
      case ExprKind::kBinary:
        return EvalBinary(e, ctx);
      case ExprKind::kFuncCall: {
        if (ctx.agg_values == nullptr || e.agg_index < 0) {
          return Status::Internal("aggregate evaluated outside group context: " +
                                  e.ToString());
        }
        return (*ctx.agg_values)[static_cast<size_t>(e.agg_index)];
      }
      case ExprKind::kInList: {
        SEMANDAQ_ASSIGN_OR_RETURN(Value probe, Eval(*e.left, ctx));
        if (probe.is_null()) return Value::Null();
        bool saw_null = false;
        for (const auto& item : e.in_list) {
          SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*item, ctx));
          if (v.is_null()) {
            saw_null = true;
            continue;
          }
          if (EqualForSql(probe, v)) {
            return TriToValue(e.negated ? TriBool::kFalse : TriBool::kTrue);
          }
        }
        if (saw_null) return Value::Null();
        return TriToValue(e.negated ? TriBool::kTrue : TriBool::kFalse);
      }
      case ExprKind::kIsNull: {
        SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*e.left, ctx));
        const bool isnull = v.is_null();
        return Value::Int((isnull != e.negated) ? 1 : 0);
      }
      case ExprKind::kLike: {
        SEMANDAQ_ASSIGN_OR_RETURN(Value text, Eval(*e.left, ctx));
        SEMANDAQ_ASSIGN_OR_RETURN(Value pat, Eval(*e.right, ctx));
        if (text.is_null() || pat.is_null()) return Value::Null();
        if (text.type() != DataType::kString || pat.type() != DataType::kString) {
          return Status::InvalidArgument("LIKE requires string operands");
        }
        const bool m = common::LikeMatch(text.AsString(), pat.AsString());
        return TriToValue((m != e.negated) ? TriBool::kTrue : TriBool::kFalse);
      }
      case ExprKind::kStar:
        return Status::Internal("unexpanded star reached the executor");
    }
    return Status::Internal("unreachable expression kind");
  }

  /// SQL equality for non-null values: numeric cross-type compare, exact
  /// otherwise. (Distinct types like 'a' = 1 simply compare unequal.)
  static bool EqualForSql(const Value& a, const Value& b) {
    double x = 0;
    double y = 0;
    if (a.ToNumeric(&x) && b.ToNumeric(&y)) return x == y;
    if (a.type() != b.type()) return false;
    return a == b;
  }

  Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx) {
    // AND/OR need short-circuit-ish three-valued logic.
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      SEMANDAQ_ASSIGN_OR_RETURN(Value lv, Eval(*e.left, ctx));
      Status st;
      TriBool l = ValueToTri(lv, &st);
      if (!st.ok()) return st;
      if (e.bin_op == BinOp::kAnd && l == TriBool::kFalse) return Value::Int(0);
      if (e.bin_op == BinOp::kOr && l == TriBool::kTrue) return Value::Int(1);
      SEMANDAQ_ASSIGN_OR_RETURN(Value rv, Eval(*e.right, ctx));
      TriBool r = ValueToTri(rv, &st);
      if (!st.ok()) return st;
      if (e.bin_op == BinOp::kAnd) {
        if (r == TriBool::kFalse) return Value::Int(0);
        if (l == TriBool::kUnknown || r == TriBool::kUnknown) return Value::Null();
        return Value::Int(1);
      }
      if (r == TriBool::kTrue) return Value::Int(1);
      if (l == TriBool::kUnknown || r == TriBool::kUnknown) return Value::Null();
      return Value::Int(0);
    }

    SEMANDAQ_ASSIGN_OR_RETURN(Value l, Eval(*e.left, ctx));
    SEMANDAQ_ASSIGN_OR_RETURN(Value r, Eval(*e.right, ctx));
    switch (e.bin_op) {
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        if (l.is_null() || r.is_null()) return Value::Null();
        const int c = l.Compare(r);
        bool res = false;
        switch (e.bin_op) {
          case BinOp::kEq:
            res = (c == 0);
            break;
          case BinOp::kNe:
            res = (c != 0);
            break;
          case BinOp::kLt:
            res = (c < 0);
            break;
          case BinOp::kLe:
            res = (c <= 0);
            break;
          case BinOp::kGt:
            res = (c > 0);
            break;
          default:
            res = (c >= 0);
            break;
        }
        return Value::Int(res ? 1 : 0);
      }
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv: {
        if (l.is_null() || r.is_null()) return Value::Null();
        double x = 0;
        double y = 0;
        if (!l.ToNumeric(&x) || !r.ToNumeric(&y)) {
          return Status::InvalidArgument("arithmetic on non-numeric values: " +
                                         e.ToString());
        }
        const bool both_int =
            l.type() == DataType::kInt && r.type() == DataType::kInt;
        switch (e.bin_op) {
          case BinOp::kAdd:
            return both_int ? Value::Int(l.AsInt() + r.AsInt()) : Value::Double(x + y);
          case BinOp::kSub:
            return both_int ? Value::Int(l.AsInt() - r.AsInt()) : Value::Double(x - y);
          case BinOp::kMul:
            return both_int ? Value::Int(l.AsInt() * r.AsInt()) : Value::Double(x * y);
          default:
            if (y == 0) return Value::Null();  // SQL: division by zero -> NULL here
            return Value::Double(x / y);
        }
      }
      default:
        return Status::Internal("unhandled binary operator");
    }
  }

  // -- Join construction ----------------------------------------------------

  /// Splits the WHERE tree into top-level AND conjuncts.
  static void CollectConjuncts(Expr* e, std::vector<Expr*>* out) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
      CollectConjuncts(e->left.get(), out);
      CollectConjuncts(e->right.get(), out);
      return;
    }
    out->push_back(e);
  }

  /// Bitmask of FROM tables referenced by an expression.
  static uint64_t TableMask(const Expr& e) {
    uint64_t mask = 0;
    if (e.kind == ExprKind::kColumnRef && e.bound_table >= 0) {
      mask |= (uint64_t{1} << e.bound_table);
    }
    if (e.left) mask |= TableMask(*e.left);
    if (e.right) mask |= TableMask(*e.right);
    for (const auto& a : e.args) mask |= TableMask(*a);
    for (const auto& a : e.in_list) mask |= TableMask(*a);
    return mask;
  }

  /// The codes of FROM table t when the table carries the code columns it
  /// was built from and is unmutated (Relation::has_columns): adopted once
  /// per table index, in O(columns). nullptr keeps the value paths.
  const EncodedRelation* EncodedFor(size_t t) {
    const Relation* rel = q_.tables[t];
    if (enc_[t] == nullptr && rel->has_columns()) {
      enc_[t] = std::make_unique<EncodedRelation>(rel);
    }
    return enc_[t].get();
  }

  /// True when conjunct `e` is `col = 'string literal'` (either side order)
  /// over table t's real columns — the shape that compiles to one
  /// dictionary lookup plus a code-column equality kernel. Restricted to
  /// non-NULL *string* literals: a numeric literal can cross-type equal a
  /// differently-coded cell (Compare treats Int(2) and Double(2.0) as
  /// equal), which code equality cannot express; string-vs-anything-else
  /// never compares equal, so exact code equality is the whole predicate.
  static bool IsCodeEq(const Expr& e, size_t t, const Expr** col,
                       const Expr** lit) {
    if (e.kind != ExprKind::kBinary || e.bin_op != BinOp::kEq) return false;
    const Expr* a = e.left.get();
    const Expr* b = e.right.get();
    if (a->kind == ExprKind::kColumnRef && b->kind == ExprKind::kLiteral) {
      *col = a;
      *lit = b;
    } else if (b->kind == ExprKind::kColumnRef && a->kind == ExprKind::kLiteral) {
      *col = b;
      *lit = a;
    } else {
      return false;
    }
    if ((*col)->bound_table != static_cast<int>(t) || (*col)->bound_col < 0) {
      return false;
    }
    const Value& v = (*lit)->literal;
    return !v.is_null() && v.type() == DataType::kString;
  }

  /// Scans table t into (tid, row) pairs, applying the single-table
  /// conjuncts. With an encoded snapshot, `col = 'lit'` conjuncts become
  /// one MaskLive + FilterEqMulti32 kernel pass over the code columns (a
  /// literal absent from the dictionary yields the empty scan for free);
  /// residual conjuncts evaluate row-at-a-time over the surviving bits.
  /// Emission is ascending-tid either way, so both paths produce the same
  /// scan in the same order.
  Status ScanTable(size_t t, const std::vector<Expr*>& local,
                   std::vector<std::pair<TupleId, const Row*>>* scan) {
    const size_t n = q_.tables.size();
    const Relation* rel = q_.tables[t];
    std::vector<const uint32_t*> cols;
    std::vector<uint32_t> consts;
    std::vector<Expr*> residual;
    const EncodedRelation* enc = EncodedFor(t);
    if (enc != nullptr) {
      for (Expr* c : local) {
        const Expr* col = nullptr;
        const Expr* lit = nullptr;
        if (IsCodeEq(*c, t, &col, &lit)) {
          // kAbsentCode (literal never encoded) matches no cell: the
          // kernel then clears the whole mask, which is the right answer.
          cols.push_back(enc->column(static_cast<size_t>(col->bound_col)).data());
          consts.push_back(
              enc->dictionary(static_cast<size_t>(col->bound_col)).Lookup(lit->literal));
        } else {
          residual.push_back(c);
        }
      }
    } else {
      residual = local;
    }

    Status scan_status;
    auto probe_row = [&](TupleId tid, const Row& row) {
      if (!scan_status.ok()) return;
      scan_status = MaybeCheckCancel();
      if (!scan_status.ok()) return;
      JoinedRow probe;
      probe.rows.assign(n, nullptr);
      probe.tids.assign(n, -1);
      probe.rows[t] = &row;
      probe.tids[t] = tid;
      EvalContext ctx{.row = &probe, .agg_values = nullptr};
      for (Expr* c : residual) {
        auto v = Eval(*c, ctx);
        if (!v.ok()) {
          scan_status = v.status();
          return;
        }
        Status st;
        if (ValueToTri(*v, &st) != TriBool::kTrue) {
          if (!st.ok()) scan_status = st;
          return;
        }
      }
      scan->emplace_back(tid, &row);
    };
    if (!cols.empty()) {
      const size_t bound = static_cast<size_t>(rel->IdBound());
      std::vector<uint64_t> mask(common::simd::MaskWords(bound));
      const common::simd::Kernels& k = common::simd::KernelsFor();
      k.MaskLive(rel->live_data(), nullptr, 0, kNullCode, bound, mask.data());
      k.FilterEqMulti32(cols.data(), consts.data(), cols.size(), bound,
                        mask.data());
      common::simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t i) {
        const TupleId tid = static_cast<TupleId>(i);
        probe_row(tid, rel->row(tid));
      });
    } else {
      rel->ForEach(probe_row);
    }
    return scan_status;
  }

  Result<std::vector<JoinedRow>> BuildJoin() {
    const size_t n = q_.tables.size();
    std::vector<Expr*> conjuncts;
    CollectConjuncts(q_.stmt.where.get(), &conjuncts);
    std::vector<bool> applied(conjuncts.size(), false);

    std::vector<JoinedRow> acc;
    uint64_t joined_mask = 0;

    for (size_t t = 0; t < n; ++t) {
      SEMANDAQ_RETURN_IF_CANCELLED(cancel_);
      const uint64_t t_bit = uint64_t{1} << t;

      // Scan table t, applying single-table conjuncts on the fly.
      std::vector<Expr*> local;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (!applied[ci] && TableMask(*conjuncts[ci]) == t_bit) {
          local.push_back(conjuncts[ci]);
          applied[ci] = true;
        }
      }
      std::vector<std::pair<TupleId, const Row*>> scan;
      SEMANDAQ_RETURN_IF_ERROR(ScanTable(t, local, &scan));

      if (t == 0) {
        acc.reserve(scan.size());
        for (auto& [tid, row] : scan) {
          JoinedRow jr;
          jr.rows.assign(n, nullptr);
          jr.tids.assign(n, -1);
          jr.rows[0] = row;
          jr.tids[0] = tid;
          acc.push_back(std::move(jr));
        }
        joined_mask = t_bit;
      } else {
        // Find usable equi conjuncts: left side in joined prefix, right side
        // exactly table t (or mirrored).
        std::vector<std::pair<Expr*, Expr*>> keys;  // (prefix side, t side)
        for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
          Expr* c = conjuncts[ci];
          if (applied[ci] || c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) {
            continue;
          }
          const uint64_t lm = TableMask(*c->left);
          const uint64_t rm = TableMask(*c->right);
          if (lm != 0 && (lm & ~joined_mask) == 0 && rm == t_bit) {
            keys.emplace_back(c->left.get(), c->right.get());
            applied[ci] = true;
          } else if (rm != 0 && (rm & ~joined_mask) == 0 && lm == t_bit) {
            keys.emplace_back(c->right.get(), c->left.get());
            applied[ci] = true;
          }
        }

        std::vector<JoinedRow> next;
        // A key pair comparing one relation's column to itself (the
        // self-join shape of detection queries) shares a dictionary on both
        // sides, so exact-equality hash keys can be uint32 codes instead of
        // hashed Values. The Row-keyed join below already uses exact
        // equality (never numeric coercion), so the code join is not just
        // faster but identical, NULL-skips included.
        bool code_join = !keys.empty();
        for (auto& [pl, pt] : keys) {
          if (pl->kind != ExprKind::kColumnRef || pt->kind != ExprKind::kColumnRef ||
              pl->bound_col < 0 || pt->bound_col < 0 ||
              pl->bound_col != pt->bound_col ||
              q_.tables[static_cast<size_t>(pl->bound_table)] !=
                  q_.tables[static_cast<size_t>(pt->bound_table)] ||
              EncodedFor(static_cast<size_t>(pt->bound_table)) == nullptr) {
            code_join = false;
            break;
          }
        }
        if (code_join) {
          auto code_key = [&](const std::vector<TupleId>& tids,
                              bool probe_side) -> std::optional<std::vector<Code>> {
            std::vector<Code> key;
            key.reserve(keys.size());
            for (auto& [pl, pt] : keys) {
              const Expr* side = probe_side ? pt : pl;
              const size_t st = static_cast<size_t>(side->bound_table);
              const Code c = EncodedFor(st)->code(
                  tids[st], static_cast<size_t>(side->bound_col));
              if (c == kNullCode) return std::nullopt;  // NULL never joins
              key.push_back(c);
            }
            return key;
          };
          std::unordered_map<std::vector<Code>, std::vector<size_t>,
                             relational::CodeVecHash>
              ht;
          std::vector<TupleId> probe_tids(n, -1);
          for (size_t si = 0; si < scan.size(); ++si) {
            probe_tids[t] = scan[si].first;
            if (auto key = code_key(probe_tids, /*probe_side=*/true)) {
              ht[std::move(*key)].push_back(si);
            }
          }
          for (JoinedRow& jr : acc) {
            SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
            auto key = code_key(jr.tids, /*probe_side=*/false);
            if (!key) continue;
            auto it = ht.find(*key);
            if (it == ht.end()) continue;
            for (size_t si : it->second) {
              JoinedRow ext = jr;
              ext.rows[t] = scan[si].second;
              ext.tids[t] = scan[si].first;
              next.push_back(std::move(ext));
            }
          }
        } else if (!keys.empty()) {
          // Hash the new table side.
          std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> ht;
          for (size_t si = 0; si < scan.size(); ++si) {
            JoinedRow probe;
            probe.rows.assign(n, nullptr);
            probe.tids.assign(n, -1);
            probe.rows[t] = scan[si].second;
            probe.tids[t] = scan[si].first;
            EvalContext ctx{.row = &probe, .agg_values = nullptr};
            Row key;
            key.reserve(keys.size());
            bool null_key = false;
            for (auto& [pl, pt] : keys) {
              SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*pt, ctx));
              if (v.is_null()) {
                null_key = true;
                break;
              }
              key.push_back(std::move(v));
            }
            if (null_key) continue;  // NULL never joins
            ht[std::move(key)].push_back(si);
          }
          for (JoinedRow& jr : acc) {
            SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
            EvalContext ctx{.row = &jr, .agg_values = nullptr};
            Row key;
            key.reserve(keys.size());
            bool null_key = false;
            for (auto& [pl, pt] : keys) {
              SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*pl, ctx));
              if (v.is_null()) {
                null_key = true;
                break;
              }
              key.push_back(std::move(v));
            }
            if (null_key) continue;
            auto it = ht.find(key);
            if (it == ht.end()) continue;
            for (size_t si : it->second) {
              JoinedRow ext = jr;
              ext.rows[t] = scan[si].second;
              ext.tids[t] = scan[si].first;
              next.push_back(std::move(ext));
            }
          }
        } else {
          next.reserve(acc.size() * std::max<size_t>(1, scan.size()));
          for (const JoinedRow& jr : acc) {
            SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
            for (auto& [tid, row] : scan) {
              JoinedRow ext = jr;
              ext.rows[t] = row;
              ext.tids[t] = tid;
              next.push_back(std::move(ext));
            }
          }
        }
        acc = std::move(next);
        joined_mask |= t_bit;
      }

      // Apply any pending conjuncts fully covered by the joined prefix.
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (applied[ci]) continue;
        const uint64_t m = TableMask(*conjuncts[ci]);
        if ((m & ~joined_mask) != 0) continue;
        applied[ci] = true;
        std::vector<JoinedRow> kept;
        kept.reserve(acc.size());
        for (JoinedRow& jr : acc) {
          EvalContext ctx{.row = &jr, .agg_values = nullptr};
          SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*conjuncts[ci], ctx));
          Status st;
          if (ValueToTri(v, &st) == TriBool::kTrue) kept.push_back(std::move(jr));
          SEMANDAQ_RETURN_IF_ERROR(st);
        }
        acc = std::move(kept);
      }
    }
    return acc;
  }

  // -- Aggregation and projection -------------------------------------------

  Status AccumulateAgg(const Expr& call, const EvalContext& ctx, AggState* st) {
    if (call.star_arg) {
      ++st->count;
      return Status::OK();
    }
    SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*call.args[0], ctx));
    if (v.is_null()) return Status::OK();  // aggregates skip NULLs
    if (call.distinct) {
      if (!st->distinct.insert(v).second) return Status::OK();
    }
    ++st->count;
    double num = 0;
    if (v.ToNumeric(&num)) {
      st->sum += num;
      if (v.type() == DataType::kDouble) st->saw_double = true;
    } else if (call.func_name == "SUM" || call.func_name == "AVG") {
      return Status::InvalidArgument(call.func_name + " over non-numeric value: " +
                                     v.ToDisplayString());
    }
    if (!st->has_minmax) {
      st->min = v;
      st->max = v;
      st->has_minmax = true;
    } else {
      if (v.Compare(st->min) < 0) st->min = v;
      if (v.Compare(st->max) > 0) st->max = v;
    }
    return Status::OK();
  }

  static Value FinalizeAgg(const Expr& call, const AggState& st) {
    if (call.func_name == "COUNT") return Value::Int(st.count);
    if (st.count == 0) return Value::Null();
    if (call.func_name == "SUM") {
      return st.saw_double ? Value::Double(st.sum)
                           : Value::Int(static_cast<int64_t>(st.sum));
    }
    if (call.func_name == "AVG") {
      return Value::Double(st.sum / static_cast<double>(st.count));
    }
    if (call.func_name == "MIN") return st.min;
    return st.max;  // MAX
  }

  Status RunAggregate(const std::vector<JoinedRow>& rows, std::vector<Row>* produced,
                      std::vector<Row>* sort_keys) {
    // GROUP BY over plain column refs of encoded tables keys the group
    // hash on uint32 codes. Code equality is exact Value equality — the
    // same grouping the Row-keyed path computes (NULLs all carry
    // kNullCode, matching Row keys' exact NULL equality) — without
    // hashing a Value per row per key column.
    bool code_keys = !q_.stmt.group_by.empty();
    for (const auto& g : q_.stmt.group_by) {
      if (g->kind != ExprKind::kColumnRef || g->bound_col < 0 ||
          EncodedFor(static_cast<size_t>(g->bound_table)) == nullptr) {
        code_keys = false;
        break;
      }
    }
    if (code_keys) {
      auto make_key = [&](const JoinedRow& jr, std::vector<Code>* key) -> Status {
        key->reserve(q_.stmt.group_by.size());
        for (const auto& g : q_.stmt.group_by) {
          const size_t gt = static_cast<size_t>(g->bound_table);
          key->push_back(EncodedFor(gt)->code(jr.tids[gt],
                                              static_cast<size_t>(g->bound_col)));
        }
        return Status::OK();
      };
      return RunAggregateKeyed<std::vector<Code>, relational::CodeVecHash,
                               std::equal_to<std::vector<Code>>>(
          rows, make_key, produced, sort_keys);
    }
    auto make_key = [&](const JoinedRow& jr, Row* key) -> Status {
      EvalContext ctx{.row = &jr, .agg_values = nullptr};
      key->reserve(q_.stmt.group_by.size());
      for (const auto& g : q_.stmt.group_by) {
        SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*g, ctx));
        key->push_back(std::move(v));
      }
      return Status::OK();
    };
    return RunAggregateKeyed<Row, RowHash, RowEq>(rows, make_key, produced,
                                                  sort_keys);
  }

  template <typename Key, typename Hash, typename Eq, typename KeyFn>
  Status RunAggregateKeyed(const std::vector<JoinedRow>& rows, const KeyFn& make_key,
                           std::vector<Row>* produced, std::vector<Row>* sort_keys) {
    struct Group {
      std::vector<AggState> states;
      const JoinedRow* representative = nullptr;
    };
    std::unordered_map<Key, Group, Hash, Eq> groups;

    for (const JoinedRow& jr : rows) {
      SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
      EvalContext ctx{.row = &jr, .agg_values = nullptr};
      Key key;
      SEMANDAQ_RETURN_IF_ERROR(make_key(jr, &key));
      Group& grp = groups[key];
      if (grp.states.empty()) {
        grp.states.resize(q_.aggregates.size());
        grp.representative = &jr;
      }
      for (size_t a = 0; a < q_.aggregates.size(); ++a) {
        SEMANDAQ_RETURN_IF_ERROR(AccumulateAgg(*q_.aggregates[a], ctx, &grp.states[a]));
      }
    }
    // Global aggregate over empty input still yields one group.
    if (groups.empty() && q_.stmt.group_by.empty()) {
      groups[Key{}] = Group{std::vector<AggState>(q_.aggregates.size()), nullptr};
    }

    for (auto& [key, grp] : groups) {
      std::vector<Value> agg_values;
      agg_values.reserve(q_.aggregates.size());
      for (size_t a = 0; a < q_.aggregates.size(); ++a) {
        agg_values.push_back(FinalizeAgg(*q_.aggregates[a], grp.states[a]));
      }
      EvalContext ctx{.row = grp.representative, .agg_values = &agg_values};
      if (q_.stmt.having) {
        SEMANDAQ_ASSIGN_OR_RETURN(Value hv, Eval(*q_.stmt.having, ctx));
        Status st;
        const TriBool keep = ValueToTri(hv, &st);
        SEMANDAQ_RETURN_IF_ERROR(st);
        if (keep != TriBool::kTrue) continue;
      }
      SEMANDAQ_RETURN_IF_ERROR(EmitRow(ctx, produced, sort_keys));
    }
    return Status::OK();
  }

  Status RunProjection(const std::vector<JoinedRow>& rows, std::vector<Row>* produced,
                       std::vector<Row>* sort_keys) {
    for (const JoinedRow& jr : rows) {
      SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
      EvalContext ctx{.row = &jr, .agg_values = nullptr};
      SEMANDAQ_RETURN_IF_ERROR(EmitRow(ctx, produced, sort_keys));
    }
    return Status::OK();
  }

  Status EmitRow(const EvalContext& ctx, std::vector<Row>* produced,
                 std::vector<Row>* sort_keys) {
    Row out;
    out.reserve(q_.outputs.size());
    for (const auto& oc : q_.outputs) {
      SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*oc.expr, ctx));
      out.push_back(std::move(v));
    }
    if (!q_.stmt.order_by.empty()) {
      Row key;
      key.reserve(q_.stmt.order_by.size());
      for (const auto& oi : q_.stmt.order_by) {
        SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*oi.expr, ctx));
        key.push_back(std::move(v));
      }
      sort_keys->push_back(std::move(key));
    }
    produced->push_back(std::move(out));
    return Status::OK();
  }

  void Deduplicate(std::vector<Row>* produced, std::vector<Row>* sort_keys) {
    std::unordered_set<Row, RowHash, RowEq> seen;
    std::vector<Row> rows_out;
    std::vector<Row> keys_out;
    for (size_t i = 0; i < produced->size(); ++i) {
      if (!seen.insert((*produced)[i]).second) continue;
      rows_out.push_back(std::move((*produced)[i]));
      if (!sort_keys->empty()) keys_out.push_back(std::move((*sort_keys)[i]));
    }
    *produced = std::move(rows_out);
    *sort_keys = std::move(keys_out);
  }

  void SortRows(std::vector<Row>* produced, std::vector<Row>* sort_keys) {
    if (q_.stmt.order_by.empty()) return;
    std::vector<size_t> order(produced->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const Row& ka = (*sort_keys)[a];
      const Row& kb = (*sort_keys)[b];
      for (size_t k = 0; k < q_.stmt.order_by.size(); ++k) {
        const int c = ka[k].Compare(kb[k]);
        if (c != 0) return q_.stmt.order_by[k].ascending ? c < 0 : c > 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(produced->size());
    for (size_t i : order) sorted.push_back(std::move((*produced)[i]));
    *produced = std::move(sorted);
  }

  Result<Relation> Materialize(std::vector<Row> rows, std::string_view name) {
    relational::Schema schema;
    for (size_t c = 0; c < q_.outputs.size(); ++c) {
      DataType t = DataType::kString;
      for (const Row& r : rows) {
        if (!r[c].is_null()) {
          t = r[c].type();
          break;
        }
      }
      SEMANDAQ_RETURN_IF_ERROR(schema.AddAttribute(
          relational::AttributeDef{q_.outputs[c].name, t, {}}));
    }
    Relation rel{std::string(name), std::move(schema)};
    for (Row& r : rows) {
      auto ins = rel.Insert(std::move(r));
      if (!ins.ok()) return ins.status();
    }
    return rel;
  }

  const BoundQuery& q_;
  common::CancelToken* cancel_ = nullptr;
  size_t rows_since_check_ = 0;
  /// Per-FROM-table adopted codes (see EncodedFor), filled on first use;
  /// nullptr = the value paths for that table.
  std::vector<std::unique_ptr<EncodedRelation>> enc_;
};

}  // namespace

common::Result<relational::Relation> Execute(const BoundQuery& query,
                                             std::string_view result_name,
                                             common::CancelToken* cancel) {
  ExecutorImpl impl(query, cancel);
  return impl.Run(result_name);
}

}  // namespace semandaq::sql
