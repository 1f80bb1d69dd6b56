#include "repair/batch_repair.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "detect/native_detector.h"
#include "detect/pattern_scan.h"

namespace semandaq::repair {

namespace {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Result;
using common::Status;
using detect::SingleViolation;
using detect::ViolationGroup;
using detect::ViolationTable;
using relational::Code;
using relational::kNullCode;
using relational::Relation;
using relational::TupleId;
using relational::Value;

/// A candidate assignment for one cell with its cost.
struct Candidate {
  Value value;
  double cost = 0;
};

/// Phase-A output for one single-tuple violation: the resolution decided
/// against the round-start state, not yet applied.
struct SingleEval {
  bool actionable = false;
  double rhs_cost = 0;
  /// Best LHS break, when one exists (< 0 = none considered/found).
  double lhs_cost = -1;
  size_t lhs_col = 0;
  Value lhs_value;
  std::vector<std::pair<Value, double>> alts;
};

/// One live group member at round start. `label` is the dictionary code of
/// the member's RHS value (kNullCode for NULL): label equality means value
/// equality, which is what lets the apply phase run on integers.
struct GroupMember {
  TupleId tid = -1;
  Code label = kNullCode;
};

/// Phase-A output for one multi-tuple violation group.
struct GroupEval {
  bool actionable = false;
  std::vector<GroupMember> members;
  Value best;
  Code best_label = kNullCode;
  double best_cost = 0;
  double escape_cost = 0;
  std::vector<size_t> escapees;  ///< indices into `members`
  std::vector<std::pair<Value, double>> alts;
};

/// A violation table's entries in the canonical apply order: singles by
/// (cfd, pattern, tid), then groups by (fd group, first member).
struct CanonicalOrder {
  explicit CanonicalOrder(const ViolationTable& table) {
    singles.reserve(table.singles().size());
    for (const SingleViolation& sv : table.singles()) singles.push_back(&sv);
    std::sort(singles.begin(), singles.end(),
              [](const SingleViolation* a, const SingleViolation* b) {
                if (a->cfd_index != b->cfd_index) return a->cfd_index < b->cfd_index;
                if (a->pattern_index != b->pattern_index)
                  return a->pattern_index < b->pattern_index;
                return a->tid < b->tid;
              });
    groups.reserve(table.groups().size());
    for (const ViolationGroup& vg : table.groups()) groups.push_back(&vg);
    std::sort(groups.begin(), groups.end(),
              [](const ViolationGroup* a, const ViolationGroup* b) {
                if (a->fd_group != b->fd_group) return a->fd_group < b->fd_group;
                const TupleId ta = a->members.empty() ? -1 : a->members.front();
                const TupleId tb = b->members.empty() ? -1 : b->members.front();
                return ta < tb;
              });
  }

  std::vector<const SingleViolation*> singles;
  std::vector<const ViolationGroup*> groups;
};

class RepairEngine {
 public:
  RepairEngine(const Relation* rel, std::vector<Cfd> cfds, CostModel cost_model,
               RepairOptions options)
      : work_(*rel),
        cfds_(std::move(cfds)),
        cost_model_(std::move(cost_model)),
        options_(std::move(options)) {}

  Result<RepairResult> Run() {
    SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, work_.schema()));
    kernels_ = &common::simd::KernelsFor(options_.simd_level);
    ComputeFrequentValues();

    // One detector for the whole run over the working copy: every edit
    // writes its cell's code (ApplyChange), so each round's re-detection is
    // a kernel scan of the current codes.
    detect::DetectorOptions dopts;
    dopts.simd_level = options_.simd_level;
    // The re-detection scans inherit the token (kernel-block granularity);
    // the round loop below adds the round-boundary checkpoint.
    dopts.cancel = options_.cancel;
    detect::NativeDetector detector(&work_, cfds_, dopts);

    // `table` is the last detection of the working copy and `stale` says
    // whether an edit was written after it, so a table that is still
    // current is never detected twice.
    RepairResult result;
    ViolationTable table;
    bool stale = true;
    int it = 0;
    for (; it < options_.max_iterations; ++it) {
      SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);
      SEMANDAQ_ASSIGN_OR_RETURN(table, detector.Detect());
      stale = false;
      if (table.TotalVio() == 0) break;
      if (ResolveRound(table, &result) == 0) break;  // stuck: defer to the escape pass
      stale = true;
    }
    result.iterations = it;

    // Termination escape. Overlapping embedded FDs can constrain the same
    // cell in incompatible ways; whatever is left now gets the NULL
    // treatment of [VLDB'07] — but surgically: only the cells that actually
    // disagree with their group's majority, never whole groups.
    if (stale) {
      SEMANDAQ_ASSIGN_OR_RETURN(table, detector.Detect());
    }
    const size_t escapes_before = result.null_escapes;
    if (table.TotalVio() > 0) EscapePass(table, &result);
    if (result.null_escapes > escapes_before) {
      // Final audit: after the escape pass nothing is left to flag. Each
      // escape-pass edit counts one NULL escape.
      SEMANDAQ_ASSIGN_OR_RETURN(table, detector.Detect());
    }
    result.remaining_violations = static_cast<size_t>(table.TotalVio());

    // The change log, in (tid, col) order (the key order of `changed_`):
    // each written cell's code before its first write against its code now,
    // decoded only for the cells that differ.
    for (auto& [cell, logged] : changed_) {
      const TupleId tid = static_cast<TupleId>(cell >> 16);
      const size_t col = static_cast<size_t>(cell & 0xFFFF);
      const Code repaired = work_.code(tid, col);
      if (repaired == logged.original) continue;  // net no-op across rounds
      CellChange ch;
      ch.tid = tid;
      ch.col = col;
      ch.original = work_.dictionary(col).Decode(logged.original);
      ch.repaired = work_.dictionary(col).Decode(repaired);
      ch.cost = cost_model_.CellChangeCost(col, ch.original, ch.repaired);
      ch.alternatives = std::move(logged.alternatives);
      result.total_cost += ch.cost;
      result.changes.push_back(std::move(ch));
    }
    return result;
  }

 private:
  static uint64_t CellKey(TupleId tid, size_t col) {
    return (static_cast<uint64_t>(tid) << 16) | static_cast<uint64_t>(col);
  }

  /// One repair round over a fresh violation table, in two phases.
  ///
  /// Phase A evaluates every violation's resolution against the round-start
  /// state only — each slot is a pure function of (table, the working codes
  /// at round start, frequent_, cost model), and nothing is written. Phase
  /// B then applies the decisions in the CanonicalOrder, with the
  /// pending-target/touched-cell conflict machinery arbitrating cells
  /// claimed by more than one violation.
  size_t ResolveRound(const ViolationTable& table, RepairResult* result) {
    touched_this_round_.clear();
    pending_targets_.clear();
    const CanonicalOrder order(table);
    const auto& singles = order.singles;
    const auto& groups = order.groups;

    // Phase A: evaluate.
    std::vector<SingleEval> single_evals(singles.size());
    for (size_t i = 0; i < singles.size(); ++i) {
      EvalSingle(*singles[i], &single_evals[i]);
    }
    std::vector<GroupEval> group_evals(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      EvalGroup(*groups[i], &group_evals[i]);
    }

    // Phase B: apply in canonical order.
    size_t edits = 0;
    for (size_t i = 0; i < singles.size(); ++i) {
      edits += ApplySingle(*singles[i], single_evals[i], result);
    }
    for (size_t i = 0; i < groups.size(); ++i) {
      edits += ApplyGroup(*groups[i], group_evals[i], result);
    }
    return edits;
  }

  void EvalSingle(const SingleViolation& sv, SingleEval* out) const {
    const Cfd& c = cfds_[static_cast<size_t>(sv.cfd_index)];
    const PatternTuple& pt = c.tableau()[static_cast<size_t>(sv.pattern_index)];
    if (!work_.IsLive(sv.tid)) return;
    const std::optional<detect::CompiledPattern> cp =
        detect::CompilePattern(work_, c, pt);
    if (!cp) return;
    for (const auto& [pos, code] : cp->lhs_consts) {
      if (work_.code(sv.tid, c.lhs_cols()[pos]) != code) return;
    }
    const size_t rhs_col = c.rhs_col();
    const Code cur = work_.code(sv.tid, rhs_col);
    if (cur == kNullCode || cur == cp->rhs_code) return;

    out->actionable = true;
    out->rhs_cost = cost_model_.CellChangeCost(
        rhs_col, work_.dictionary(rhs_col).Decode(cur), pt.rhs.constant());
    out->alts = RankAlternatives({{pt.rhs.constant(), out->rhs_cost}});

    // Option B: break the LHS match at a constant-pattern position.
    // Candidate replacement values: frequent column values that differ from
    // the pattern constant, and the NULL escape.
    if (!options_.enable_lhs_repairs) return;
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (!pt.lhs[i].is_constant()) continue;  // wildcard matches any value
      const size_t col = c.lhs_cols()[i];
      // Phase A writes nothing, so the decoded reference stays valid.
      const Value& from = work_.dictionary(col).Decode(work_.code(sv.tid, col));
      for (const Value& v : frequent_[col]) {
        if (v == pt.lhs[i].constant()) continue;
        const double cost = cost_model_.CellChangeCost(col, from, v);
        if (out->lhs_cost < 0 || cost < out->lhs_cost) {
          out->lhs_cost = cost;
          out->lhs_col = col;
          out->lhs_value = v;
        }
      }
      const double null_cost = cost_model_.CellChangeCost(col, from, Value::Null());
      if (out->lhs_cost < 0 || null_cost < out->lhs_cost) {
        out->lhs_cost = null_cost;
        out->lhs_col = col;
        out->lhs_value = Value::Null();
      }
    }
  }

  /// Returns the number of edits applied (0 when skipped/stale).
  size_t ApplySingle(const SingleViolation& sv, const SingleEval& e,
                     RepairResult* result) {
    if (!e.actionable) return 0;
    const Cfd& c = cfds_[static_cast<size_t>(sv.cfd_index)];
    const PatternTuple& pt = c.tableau()[static_cast<size_t>(sv.pattern_index)];
    const size_t rhs_col = c.rhs_col();
    if (const Value* pending = PendingTarget(sv.tid, rhs_col)) {
      if (*pending == pt.rhs.constant()) return 0;  // already decided our way
      // Conflicting demand on the RHS cell: detach the tuple from this
      // pattern via a constant-LHS position instead of flip-flopping.
      if (options_.enable_lhs_repairs) {
        for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
          if (!pt.lhs[i].is_constant()) continue;
          ApplyChange(sv.tid, c.lhs_cols()[i], Value::Null(), {});
          ++result->null_escapes;
          return 1;
        }
      }
      return 0;  // all-wildcard LHS: leave it to the escape pass
    }
    if (touched_this_round_.count(CellKey(sv.tid, rhs_col)) > 0) return 0;
    if (e.lhs_cost >= 0 && e.lhs_cost < e.rhs_cost &&
        touched_this_round_.count(CellKey(sv.tid, e.lhs_col)) == 0) {
      ApplyChange(sv.tid, e.lhs_col, e.lhs_value, {});
      return 1;
    }
    ApplyChange(sv.tid, rhs_col, pt.rhs.constant(), e.alts);
    return 1;
  }

  void EvalGroup(const ViolationGroup& vg, GroupEval* out) const {
    if (vg.cfd_index < 0) return;
    const Cfd& c = cfds_[static_cast<size_t>(vg.cfd_index)];
    const size_t rhs_col = c.rhs_col();

    out->members.reserve(vg.members.size());
    for (TupleId tid : vg.members) {
      if (!work_.IsLive(tid)) continue;
      out->members.push_back({tid, work_.code(tid, rhs_col)});
    }

    // Distinct non-NULL RHS codes in first-occurrence order. Counting runs
    // on integers: the member codes gather into a scratch column and
    // CountEq32 tallies each distinct code, which is the same kernel pass
    // the detector's partner counts use.
    std::vector<Code> distinct;
    std::vector<Code> codes;  // the gathered scratch column (all members)
    codes.reserve(out->members.size());
    int64_t nulls = 0;
    for (const GroupMember& m : out->members) {
      codes.push_back(m.label);
      if (m.label == kNullCode) {
        ++nulls;
        continue;
      }
      if (std::find(distinct.begin(), distinct.end(), m.label) == distinct.end()) {
        distinct.push_back(m.label);
      }
    }
    if (distinct.size() < 2) return;  // already resolved

    std::vector<int64_t> counts(distinct.size());
    for (size_t d = 0; d < distinct.size(); ++d) {
      counts[d] = static_cast<int64_t>(
          kernels_->CountEq32(codes.data(), codes.size(), distinct[d]));
    }

    // Candidate targets with total weighted rewrite cost over the members,
    // summed per distinct code (count x per-value cost — one CellChangeCost
    // per (code, candidate) pair instead of one per member).
    auto total_cost = [&](Code target, const Value& target_v) {
      double cost = 0;
      for (size_t d = 0; d < distinct.size(); ++d) {
        cost += static_cast<double>(counts[d]) *
                cost_model_.CellChangeCostCoded(rhs_col, distinct[d], target,
                                                work_.dictionary(rhs_col));
      }
      if (nulls > 0) {
        cost += static_cast<double>(nulls) *
                cost_model_.CellChangeCost(rhs_col, Value::Null(), target_v);
      }
      return cost;
    };

    std::vector<size_t> order(distinct.size());
    std::vector<double> costs(distinct.size());
    for (size_t d = 0; d < distinct.size(); ++d) {
      order[d] = d;
      costs[d] = total_cost(distinct[d], work_.dictionary(rhs_col).Decode(distinct[d]));
    }
    // Ties break to the first-occurring value.
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return costs[a] < costs[b]; });
    std::vector<Candidate> candidates;
    candidates.reserve(distinct.size());
    for (size_t d : order) {
      candidates.push_back({work_.dictionary(rhs_col).Decode(distinct[d]), costs[d]});
    }
    out->actionable = true;
    out->best = candidates.front().value;
    out->best_label = distinct[order.front()];
    out->best_cost = candidates.front().cost;
    out->alts = RankAlternatives(candidates);

    // Alternative resolution (the attribute-modification option of
    // [VLDB'07]): move the disagreeing members out of the group by breaking
    // the LHS key instead of rewriting their RHS. Wins when the RHS carries
    // far more weight than the LHS.
    if (options_.enable_lhs_repairs) {
      const size_t escape_col = c.lhs_cols().back();
      for (size_t i = 0; i < out->members.size(); ++i) {
        const GroupMember& m = out->members[i];
        if (m.label == out->best_label) continue;
        out->escapees.push_back(i);
        out->escape_cost += cost_model_.CellChangeCostCoded(
            escape_col, work_.code(m.tid, escape_col), kNullCode,
            work_.dictionary(escape_col));
      }
    }
  }

  /// Returns the number of edits applied.
  size_t ApplyGroup(const ViolationGroup& vg, const GroupEval& e,
                    RepairResult* result) {
    if (!e.actionable) return 0;
    const Cfd& c = cfds_[static_cast<size_t>(vg.cfd_index)];
    const size_t rhs_col = c.rhs_col();
    const size_t escape_col = c.lhs_cols().back();

    if (options_.enable_lhs_repairs && !e.escapees.empty() &&
        e.escape_cost < e.best_cost) {
      size_t edits = 0;
      for (size_t i : e.escapees) {
        const GroupMember& m = e.members[i];
        if (touched_this_round_.count(CellKey(m.tid, escape_col)) > 0) continue;
        ApplyChange(m.tid, escape_col, Value::Null(), {});
        ++result->null_escapes;
        ++edits;
      }
      if (edits > 0) return edits;
    }

    size_t edits = 0;
    for (const GroupMember& m : e.members) {
      if (m.label == e.best_label) continue;
      if (const Value* pending = PendingTarget(m.tid, rhs_col)) {
        if (*pending == e.best) continue;
        // Another FD group already claimed this cell with a different
        // value: the tuple's LHS attributes are mutually inconsistent
        // (e.g. a Denver city with a Phoenix zip). Detach it from THIS
        // group by clearing the group's key attribute.
        if (options_.enable_lhs_repairs) {
          ApplyChange(m.tid, escape_col, Value::Null(), {});
          ++result->null_escapes;
          ++edits;
        }
        continue;
      }
      if (touched_this_round_.count(CellKey(m.tid, rhs_col)) > 0) continue;
      ApplyChange(m.tid, rhs_col, e.best, e.alts);
      ++edits;
    }
    return edits;
  }

  /// The surgical NULL pass over whatever detection still flags, in the
  /// same canonical violation order as the rounds.
  void EscapePass(const ViolationTable& table, RepairResult* result) {
    const CanonicalOrder order(table);
    const auto& groups = order.groups;

    // Detect-time RHS codes per group, taken before ANY escape edit:
    // groups carry no RHS values, and the majorities below must not see
    // edits this very pass applies.
    std::vector<std::vector<Code>> group_rhs(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      const Cfd& c = cfds_[static_cast<size_t>(groups[g]->cfd_index)];
      group_rhs[g].reserve(groups[g]->members.size());
      for (TupleId tid : groups[g]->members) {
        group_rhs[g].push_back(work_.code(tid, c.rhs_col()));
      }
    }

    for (const SingleViolation* sv : order.singles) {
      const Cfd& c = cfds_[static_cast<size_t>(sv->cfd_index)];
      ApplyChange(sv->tid, c.rhs_col(), Value::Null(), {});
      ++result->null_escapes;
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      const ViolationGroup* vg = groups[g];
      const Cfd& c = cfds_[static_cast<size_t>(vg->cfd_index)];
      // Deterministic majority: max count, ties to the first-occurring
      // value (the old hash-iteration pick was tie-unstable). kNullCode
      // when every member is NULL.
      std::vector<Code> distinct;
      std::vector<int64_t> counts;
      for (Code code : group_rhs[g]) {
        if (code == kNullCode) continue;
        const size_t d = static_cast<size_t>(
            std::find(distinct.begin(), distinct.end(), code) - distinct.begin());
        if (d == distinct.size()) {
          distinct.push_back(code);
          counts.push_back(0);
        }
        ++counts[d];
      }
      Code majority = kNullCode;
      int64_t best_n = 0;
      for (size_t d = 0; d < distinct.size(); ++d) {
        if (counts[d] > best_n) {
          best_n = counts[d];
          majority = distinct[d];
        }
      }
      for (TupleId tid : vg->members) {
        const Code rhs = work_.code(tid, c.rhs_col());
        if (rhs == kNullCode || rhs == majority) continue;
        ApplyChange(tid, c.rhs_col(), Value::Null(), {});
        ++result->null_escapes;
      }
    }
  }

  /// Per-column frequent values (count descending, ties to first
  /// occurrence) from one histogram pass over each live code column —
  /// integer increments, no Value hashing.
  void ComputeFrequentValues() {
    const size_t ncols = work_.columns().size();
    const TupleId bound = work_.IdBound();
    frequent_.resize(ncols);
    for (size_t col = 0; col < ncols; ++col) {
      const relational::CodeColumn& codes = work_.columns()[col];
      std::vector<int64_t> counts(work_.dictionary(col).size() + 1, 0);
      std::vector<Code> order;
      for (TupleId tid = 0; tid < bound; ++tid) {
        if (!work_.IsLive(tid)) continue;
        const Code code = codes[static_cast<size_t>(tid)];
        if (code == kNullCode) continue;
        if (counts[code]++ == 0) order.push_back(code);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](Code a, Code b) { return counts[a] > counts[b]; });
      const size_t keep = std::min<size_t>(order.size(), 4);
      for (size_t i = 0; i < keep; ++i) {
        frequent_[col].push_back(work_.dictionary(col).Decode(order[i]));
      }
    }
  }

  /// Writes `v` into the working copy. A cell's first write logs its code
  /// before it, the change log's `original`. `v` is taken by value: the
  /// write may grow the column's dictionary, which invalidates references
  /// that Decode returned.
  void ApplyChange(TupleId tid, size_t col, Value v,
                   std::vector<std::pair<Value, double>> alternatives) {
    const uint64_t key = CellKey(tid, col);
    auto [logged, first_write] = changed_.try_emplace(key);
    if (first_write) logged->second.original = work_.code(tid, col);
    if (!alternatives.empty()) logged->second.alternatives = std::move(alternatives);
    const Status written = work_.SetCell(tid, col, v);
    assert(written.ok());  // edits target live tuples the detector reported
    (void)written;
    pending_targets_[key] = std::move(v);
    touched_this_round_.insert(key);
  }

  /// This round's decision for a cell, if one was already made. Two
  /// overlapping FD groups demanding different values for the same cell is
  /// the conflict the equivalence classes of [VLDB'07] exist to catch; we
  /// detect it here and resolve by detaching the tuple via an LHS edit.
  const Value* PendingTarget(TupleId tid, size_t col) const {
    auto it = pending_targets_.find(CellKey(tid, col));
    return it == pending_targets_.end() ? nullptr : &it->second;
  }

  std::vector<std::pair<Value, double>> RankAlternatives(
      const std::vector<Candidate>& cands) const {
    std::vector<std::pair<Value, double>> out;
    out.reserve(cands.size());
    for (const Candidate& c : cands) out.emplace_back(c.value, c.cost);
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
    if (out.size() > options_.alternatives_k) out.resize(options_.alternatives_k);
    return out;
  }

  /// A cell some edit wrote: its code before the first write, and the
  /// ranked alternatives of the last edit that had any.
  struct LoggedCell {
    Code original = kNullCode;
    std::vector<std::pair<Value, double>> alternatives;
  };

  /// The working state: a copy of the input, sharing its dictionaries and
  /// code chunks until an edit detaches them (copy-on-write), so the input
  /// is never written.
  Relation work_;
  std::vector<Cfd> cfds_;
  CostModel cost_model_;
  RepairOptions options_;
  const common::simd::Kernels* kernels_ = nullptr;

  std::vector<std::vector<Value>> frequent_;  // per column, most frequent first
  std::unordered_set<uint64_t> touched_this_round_;
  std::unordered_map<uint64_t, Value> pending_targets_;  // per round
  std::map<uint64_t, LoggedCell> changed_;               // by cell key
};

}  // namespace

BatchRepair::BatchRepair(const Relation* rel, std::vector<Cfd> cfds,
                         CostModel cost_model, RepairOptions options)
    : rel_(rel),
      cfds_(std::move(cfds)),
      cost_model_(std::move(cost_model)),
      options_(std::move(options)) {}

common::Result<RepairResult> BatchRepair::Run() {
  RepairEngine engine(rel_, cfds_, cost_model_, options_);
  return engine.Run();
}

common::Status ApplyChanges(const std::vector<CellChange>& changes,
                            Relation* rel) {
  for (const CellChange& ch : changes) {
    SEMANDAQ_RETURN_IF_ERROR(rel->SetCell(ch.tid, ch.col, ch.repaired));
  }
  return Status::OK();
}

}  // namespace semandaq::repair
