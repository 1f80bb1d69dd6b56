#include "repair/inc_repair.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace semandaq::repair {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Status;
using detect::IncrementalDetector;
using relational::Relation;
using relational::TupleId;
using relational::Update;
using relational::UpdateBatch;
using relational::Value;

IncRepairEngine::IncRepairEngine(Relation* rel, std::vector<Cfd> cfds,
                                 CostModel cost_model, RepairOptions options)
    : rel_(rel),
      cfds_(std::move(cfds)),
      cost_model_(std::move(cost_model)),
      options_(std::move(options)) {}

common::Status IncRepairEngine::Start() {
  detector_ = std::make_unique<IncrementalDetector>(rel_, cfds_);
  return detector_->Initialize();
}

common::Result<IncBatchResult> IncRepairEngine::ApplyAndRepair(
    const UpdateBatch& batch) {
  if (detector_ == nullptr) {
    return Status::FailedPrecondition("IncRepairEngine::Start was not called");
  }
  IncBatchResult result;

  std::vector<TupleId> inserted;
  SEMANDAQ_RETURN_IF_ERROR(detector_->ApplyAndDetect(batch, &inserted));
  delta_.clear();
  for (TupleId tid : inserted) delta_.insert(tid);
  for (const Update& u : batch) {
    if (u.kind == Update::Kind::kModify && rel_->IsLive(u.tid)) delta_.insert(u.tid);
  }
  result.delta_tids.assign(delta_.begin(), delta_.end());
  std::sort(result.delta_tids.begin(), result.delta_tids.end());

  // Repair rounds over the delta only. Fixing one tuple can re-expose
  // another delta tuple (they may share buckets), hence the small loop;
  // detector state is updated by every edit, so reads are always current.
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    size_t edits = 0;
    for (TupleId tid : result.delta_tids) {
      if (!rel_->IsLive(tid)) continue;
      if (detector_->Vio(tid) == 0) continue;
      SEMANDAQ_ASSIGN_OR_RETURN(size_t n, RepairTuple(tid, &result));
      edits += n;
    }
    if (edits == 0) break;
  }

  // Escape pass: NULL the RHS of anything still stuck.
  for (TupleId tid : result.delta_tids) {
    if (!rel_->IsLive(tid) || detector_->Vio(tid) == 0) continue;
    for (const auto& [ci, pi] : detector_->SinglesOf(tid)) {
      const size_t rhs_col = detector_->cfds()[ci].rhs_col();
      SEMANDAQ_RETURN_IF_ERROR(
          detector_->ApplyAndDetect({Update::Modify(tid, rhs_col, Value::Null())}));
      ++result.null_escapes;
    }
    for (const auto& view : detector_->ViolatingGroupsOf(tid)) {
      SEMANDAQ_RETURN_IF_ERROR(detector_->ApplyAndDetect(
          {Update::Modify(tid, view.rhs_col, Value::Null())}));
      ++result.null_escapes;
      break;  // views were invalidated by the edit; re-read next round
    }
  }

  // Residual accounting and change-log costs.
  for (TupleId tid : result.delta_tids) {
    if (rel_->IsLive(tid)) {
      result.remaining_violations += static_cast<size_t>(detector_->Vio(tid));
    }
  }
  for (CellChange& ch : result.changes) {
    ch.repaired = rel_->cell(ch.tid, ch.col);
    ch.cost = cost_model_.CellChangeCost(ch.col, ch.original, ch.repaired);
    result.total_cost += ch.cost;
  }
  return result;
}

common::Result<size_t> IncRepairEngine::RepairTuple(TupleId tid,
                                                    IncBatchResult* result) {
  size_t edits = 0;
  auto record_change = [&](size_t col, const Value& original,
                           std::vector<std::pair<Value, double>> alternatives) {
    for (CellChange& ch : result->changes) {
      if (ch.tid == tid && ch.col == col) {
        if (!alternatives.empty()) ch.alternatives = std::move(alternatives);
        return;
      }
    }
    CellChange ch;
    ch.tid = tid;
    ch.col = col;
    ch.original = original;
    ch.alternatives = std::move(alternatives);
    result->changes.push_back(std::move(ch));
  };

  // Single-tuple violations: set the RHS to the pattern constant (the
  // cheaper LHS option of BatchRepair needs column statistics; for the
  // delta-local path the forced constant is the faithful [VLDB'07] move).
  for (const auto& [ci, pi] : detector_->SinglesOf(tid)) {
    const Cfd& c = detector_->cfds()[ci];
    const PatternTuple& pt = c.tableau()[pi];
    const Value original = rel_->cell(tid, c.rhs_col());
    record_change(c.rhs_col(), original,
                  {{pt.rhs.constant(),
                    cost_model_.CellChangeCost(c.rhs_col(), original,
                                               pt.rhs.constant())}});
    SEMANDAQ_RETURN_IF_ERROR(detector_->ApplyAndDetect(
        {Update::Modify(tid, c.rhs_col(), pt.rhs.constant())}));
    ++edits;
  }

  // Multi-tuple violations: adopt the value pinned by the immutable
  // majority; if the frozen tuples disagree among themselves, escape via
  // the LHS. Each edit invalidates the views, so re-read after every fix.
  for (int guard = 0; guard < 8; ++guard) {
    auto views = detector_->ViolatingGroupsOf(tid);
    if (views.empty()) break;
    const auto& view = views.front();

    // Frozen = members outside the delta, tallied by RHS code (code
    // equality is value equality) in member order.
    const relational::CodeColumn& rhs_codes = rel_->columns()[view.rhs_col];
    const relational::Dictionary& rhs_dict = *rel_->dictionaries()[view.rhs_col];
    std::vector<relational::Code> frozen;  // distinct, first-occurrence order
    for (TupleId member : *view.members) {
      if (delta_.count(member) > 0) continue;
      const relational::Code c = rhs_codes[static_cast<size_t>(member)];
      if (c != relational::kNullCode &&
          std::find(frozen.begin(), frozen.end(), c) == frozen.end()) {
        frozen.push_back(c);
      }
    }

    const Value original_rhs = rel_->cell(tid, view.rhs_col);
    if (frozen.size() > 1) {
      // Clean data disagrees with itself (it was not actually clean):
      // move this tuple out of the group.
      const size_t col = view.escape_lhs_col;
      record_change(col, rel_->cell(tid, col), {});
      SEMANDAQ_RETURN_IF_ERROR(
          detector_->ApplyAndDetect({Update::Modify(tid, col, Value::Null())}));
      ++result->null_escapes;
      ++edits;
      continue;
    }

    Value target;
    std::vector<std::pair<Value, double>> alternatives;
    if (frozen.size() == 1) {
      target = rhs_dict.Decode(frozen.front());
    } else {
      // Group is all-delta: pick the cheapest consensus value by weighted
      // change cost, exactly as BatchRepair does. The candidates come out
      // of the detector's unordered code tally, so decode and order them
      // first — cost ties must break the same way on every platform and run.
      std::vector<Value> candidates;
      candidates.reserve(view.rhs_counts->size());
      for (const auto& [code, n] : *view.rhs_counts) {
        candidates.push_back(rhs_dict.Decode(code));
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Value& a, const Value& b) {
                  const int c = a.Compare(b);
                  if (c != 0) return c < 0;
                  // Compare coerces numerics (1 == 1.0); fall back to the
                  // rendering for a total order over distinct values.
                  return a.ToDisplayString() < b.ToDisplayString();
                });
      double best_cost = -1;
      for (const Value& v : candidates) {
        double cost = 0;
        for (TupleId member : *view.members) {
          if (delta_.count(member) == 0) continue;
          cost += cost_model_.CellChangeCost(view.rhs_col,
                                             rel_->cell(member, view.rhs_col), v);
        }
        alternatives.emplace_back(v, cost);
        if (best_cost < 0 || cost < best_cost) {
          best_cost = cost;
          target = v;
        }
      }
      std::stable_sort(alternatives.begin(), alternatives.end(),
                       [](const auto& a, const auto& b) { return a.second < b.second; });
      if (alternatives.size() > options_.alternatives_k) {
        alternatives.resize(options_.alternatives_k);
      }
    }
    if (original_rhs == target) break;  // this tuple already agrees
    record_change(view.rhs_col, original_rhs, std::move(alternatives));
    SEMANDAQ_RETURN_IF_ERROR(detector_->ApplyAndDetect(
        {Update::Modify(tid, view.rhs_col, target)}));
    ++edits;
  }
  return edits;
}

}  // namespace semandaq::repair
