#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/simd/simd.h"
#include "common/string_util.h"
#include "relational/dictionary.h"

namespace semandaq::sql {

namespace {

using common::Result;
using common::Status;
using relational::Code;
using relational::DataType;
using relational::kNullCode;
using relational::Relation;
using relational::Row;
using relational::RowEq;
using relational::RowHash;
using relational::TupleId;
using relational::Value;

/// Partial or complete cross-product rows, flat: row i is the `width`
/// tuple ids at tids[i * width], one slot per FROM entry (kUnjoined until
/// that table is joined). A column reference decodes its one cell.
constexpr TupleId kUnjoined = -1;

struct JoinedRows {
  size_t width = 0;
  std::vector<TupleId> tids;

  size_t size() const { return width == 0 ? 0 : tids.size() / width; }
  const TupleId* row(size_t i) const { return tids.data() + i * width; }
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
  const TupleId* row = nullptr;                  ///< null only for empty global group
  const std::vector<Value>* agg_values = nullptr;  ///< set in group context
};

/// Executor batch size between cancel checkpoints: big enough that an
/// unarmed token costs one branch per ~4k rows, small enough that a cancel
/// lands within tens of milliseconds of work.
constexpr size_t kCancelBatch = 4096;

class ExecutorImpl {
 public:
  ExecutorImpl(const BoundQuery& q, common::CancelToken* cancel)
      : q_(q), cancel_(cancel) {}

  Result<Relation> Run(std::string_view result_name) {
    SEMANDAQ_ASSIGN_OR_RETURN(JoinedRows rows, BuildJoin());
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
        const TupleId tid =
            ctx.row == nullptr ? kUnjoined : ctx.row[e.bound_table];
        if (tid == kUnjoined) return Value::Null();  // empty global group
        if (e.bound_col == Expr::kTidColumn) return Value::Int(tid);
        return q_.tables[static_cast<size_t>(e.bound_table)]->cell(
            tid, static_cast<size_t>(e.bound_col));
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

  /// The code of column `col` of FROM table t's tuple `tid`.
  Code CodeOf(size_t t, TupleId tid, size_t col) const {
    return q_.tables[t]->columns()[col][static_cast<size_t>(tid)];
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

  /// Scans table t into its surviving tuple ids (ascending), applying the
  /// single-table conjuncts: one MaskLive + FilterEqMulti32 kernel pass
  /// over the code columns for the `col = 'lit'` conjuncts (a literal
  /// absent from the dictionary yields the empty scan for free), then the
  /// residual conjuncts per surviving tuple, decoding only the cells they
  /// reference.
  Status ScanTable(size_t t, const std::vector<Expr*>& local,
                   std::vector<TupleId>* scan) {
    const Relation* rel = q_.tables[t];
    std::vector<const uint32_t*> cols;
    std::vector<uint32_t> consts;
    std::vector<Expr*> residual;
    for (Expr* c : local) {
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (IsCodeEq(*c, t, &col, &lit)) {
        // kAbsentCode (literal never encoded) matches no cell: the
        // kernel then clears the whole mask, which is the right answer.
        const size_t ci = static_cast<size_t>(col->bound_col);
        cols.push_back(rel->columns()[ci].data());
        consts.push_back(rel->dictionaries()[ci]->Lookup(lit->literal));
      } else {
        residual.push_back(c);
      }
    }

    const size_t bound = static_cast<size_t>(rel->IdBound());
    std::vector<uint64_t> mask(common::simd::MaskWords(bound));
    const common::simd::Kernels& k = common::simd::KernelsFor();
    k.MaskLive(rel->live_data(), nullptr, 0, kNullCode, bound, mask.data());
    if (!cols.empty()) {
      k.FilterEqMulti32(cols.data(), consts.data(), cols.size(), bound,
                        mask.data());
    }
    Status scan_status;
    std::vector<TupleId> probe(q_.tables.size(), kUnjoined);
    common::simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t i) {
      if (!scan_status.ok()) return;
      scan_status = MaybeCheckCancel();
      if (!scan_status.ok()) return;
      const TupleId tid = static_cast<TupleId>(i);
      probe[t] = tid;
      EvalContext ctx{.row = probe.data(), .agg_values = nullptr};
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
      scan->push_back(tid);
    });
    return scan_status;
  }

  /// Appends `row` with slot t set to `tid` to `out`.
  static void Extend(const TupleId* row, size_t t, TupleId tid,
                     JoinedRows* out) {
    out->tids.insert(out->tids.end(), row, row + out->width);
    out->tids[out->tids.size() - out->width + t] = tid;
  }

  /// Hash-joins `acc` with table t's `scan` on the key pairs (prefix side,
  /// t side): a row extends with every scanned tuple whose key equals its
  /// own. `key_of(row, t_side, &key)` fills one side's key and returns
  /// false for a key that never joins (NULL).
  template <typename Key, typename Hash, typename KeyFn>
  Status HashJoin(const JoinedRows& acc, size_t t,
                  const std::vector<TupleId>& scan, const KeyFn& key_of,
                  JoinedRows* next) {
    std::unordered_map<Key, std::vector<TupleId>, Hash> ht;
    std::vector<TupleId> probe(acc.width, kUnjoined);
    for (TupleId tid : scan) {
      probe[t] = tid;
      Key key;
      SEMANDAQ_ASSIGN_OR_RETURN(bool joins, key_of(probe.data(), true, &key));
      if (joins) ht[std::move(key)].push_back(tid);
    }
    for (size_t i = 0; i < acc.size(); ++i) {
      SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
      Key key;
      SEMANDAQ_ASSIGN_OR_RETURN(bool joins, key_of(acc.row(i), false, &key));
      if (!joins) continue;
      auto it = ht.find(key);
      if (it == ht.end()) continue;
      for (TupleId tid : it->second) Extend(acc.row(i), t, tid, next);
    }
    return Status::OK();
  }

  Result<JoinedRows> BuildJoin() {
    const size_t n = q_.tables.size();
    std::vector<Expr*> conjuncts;
    CollectConjuncts(q_.stmt.where.get(), &conjuncts);
    std::vector<bool> applied(conjuncts.size(), false);

    JoinedRows acc;
    acc.width = n;
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
      std::vector<TupleId> scan;
      SEMANDAQ_RETURN_IF_ERROR(ScanTable(t, local, &scan));

      if (t == 0) {
        const std::vector<TupleId> unjoined(n, kUnjoined);
        acc.tids.reserve(scan.size() * n);
        for (TupleId tid : scan) Extend(unjoined.data(), 0, tid, &acc);
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

        JoinedRows next;
        next.width = n;
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
                  q_.tables[static_cast<size_t>(pt->bound_table)]) {
            code_join = false;
            break;
          }
        }
        if (code_join) {
          auto code_key = [&](const TupleId* row, bool t_side,
                              std::vector<Code>* key) -> Result<bool> {
            key->reserve(keys.size());
            for (auto& [pl, pt] : keys) {
              const Expr* side = t_side ? pt : pl;
              const size_t st = static_cast<size_t>(side->bound_table);
              const Code c =
                  CodeOf(st, row[st], static_cast<size_t>(side->bound_col));
              if (c == kNullCode) return false;  // NULL never joins
              key->push_back(c);
            }
            return true;
          };
          SEMANDAQ_RETURN_IF_ERROR(
              (HashJoin<std::vector<Code>, relational::CodeVecHash>(
                  acc, t, scan, code_key, &next)));
        } else if (!keys.empty()) {
          auto value_key = [&](const TupleId* row, bool t_side,
                               Row* key) -> Result<bool> {
            EvalContext ctx{.row = row, .agg_values = nullptr};
            key->reserve(keys.size());
            for (auto& [pl, pt] : keys) {
              SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(t_side ? *pt : *pl, ctx));
              if (v.is_null()) return false;  // NULL never joins
              key->push_back(std::move(v));
            }
            return true;
          };
          SEMANDAQ_RETURN_IF_ERROR(
              (HashJoin<Row, RowHash>(acc, t, scan, value_key, &next)));
        } else {
          next.tids.reserve(acc.tids.size() * std::max<size_t>(1, scan.size()));
          for (size_t i = 0; i < acc.size(); ++i) {
            SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
            for (TupleId tid : scan) Extend(acc.row(i), t, tid, &next);
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
        JoinedRows kept;
        kept.width = n;
        for (size_t i = 0; i < acc.size(); ++i) {
          EvalContext ctx{.row = acc.row(i), .agg_values = nullptr};
          SEMANDAQ_ASSIGN_OR_RETURN(Value v, Eval(*conjuncts[ci], ctx));
          Status st;
          if (ValueToTri(v, &st) == TriBool::kTrue) {
            kept.tids.insert(kept.tids.end(), acc.row(i), acc.row(i) + n);
          }
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

  Status RunAggregate(const JoinedRows& rows, std::vector<Row>* produced,
                      std::vector<Row>* sort_keys) {
    // GROUP BY over plain column refs keys the group hash on uint32 codes.
    // Code equality is exact Value equality — the same grouping the
    // Row-keyed path computes (NULLs all carry kNullCode, matching Row
    // keys' exact NULL equality) — without decoding or hashing a Value per
    // row per key column.
    bool code_keys = !q_.stmt.group_by.empty();
    for (const auto& g : q_.stmt.group_by) {
      if (g->kind != ExprKind::kColumnRef || g->bound_col < 0) {
        code_keys = false;
        break;
      }
    }
    if (code_keys) {
      auto make_key = [&](const TupleId* row, std::vector<Code>* key) -> Status {
        key->reserve(q_.stmt.group_by.size());
        for (const auto& g : q_.stmt.group_by) {
          const size_t gt = static_cast<size_t>(g->bound_table);
          key->push_back(CodeOf(gt, row[gt], static_cast<size_t>(g->bound_col)));
        }
        return Status::OK();
      };
      return RunAggregateKeyed<std::vector<Code>, relational::CodeVecHash,
                               std::equal_to<std::vector<Code>>>(
          rows, make_key, produced, sort_keys);
    }
    auto make_key = [&](const TupleId* row, Row* key) -> Status {
      EvalContext ctx{.row = row, .agg_values = nullptr};
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
  Status RunAggregateKeyed(const JoinedRows& rows, const KeyFn& make_key,
                           std::vector<Row>* produced, std::vector<Row>* sort_keys) {
    struct Group {
      std::vector<AggState> states;
      const TupleId* representative = nullptr;
    };
    std::unordered_map<Key, Group, Hash, Eq> groups;

    for (size_t i = 0; i < rows.size(); ++i) {
      SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
      const TupleId* row = rows.row(i);
      EvalContext ctx{.row = row, .agg_values = nullptr};
      Key key;
      SEMANDAQ_RETURN_IF_ERROR(make_key(row, &key));
      Group& grp = groups[key];
      if (grp.states.empty()) {
        grp.states.resize(q_.aggregates.size());
        grp.representative = row;
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

  Status RunProjection(const JoinedRows& rows, std::vector<Row>* produced,
                       std::vector<Row>* sort_keys) {
    for (size_t i = 0; i < rows.size(); ++i) {
      SEMANDAQ_RETURN_IF_ERROR(MaybeCheckCancel());
      EvalContext ctx{.row = rows.row(i), .agg_values = nullptr};
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
};

}  // namespace

common::Result<relational::Relation> Execute(const BoundQuery& query,
                                             std::string_view result_name,
                                             common::CancelToken* cancel) {
  ExecutorImpl impl(query, cancel);
  return impl.Run(result_name);
}

}  // namespace semandaq::sql
