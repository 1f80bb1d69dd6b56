#include "repair/repair_review.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace semandaq::repair {

using common::Status;
using relational::Row;
using relational::TupleId;
using relational::Update;
using relational::Value;

RepairReview::RepairReview(const relational::Relation* original, RepairResult result,
                           std::vector<cfd::Cfd> cfds)
    : original_(original), result_(std::move(result)), cfds_(std::move(cfds)) {}

common::Status RepairReview::Start() {
  repaired_ = original_->Clone();
  SEMANDAQ_RETURN_IF_ERROR(ApplyChanges(result_.changes, &repaired_));
  detector_ = std::make_unique<detect::IncrementalDetector>(&repaired_, cfds_);
  return detector_->Initialize();
}

const CellChange* RepairReview::FindChange(TupleId tid, size_t col) const {
  for (const CellChange& ch : result_.changes) {
    if (ch.tid == tid && ch.col == col) return &ch;
  }
  return nullptr;
}

common::Result<std::vector<TupleId>> RepairReview::OverrideCell(TupleId tid,
                                                                size_t col,
                                                                Value v) {
  if (detector_ == nullptr) {
    return Status::FailedPrecondition("RepairReview::Start was not called");
  }
  std::vector<TupleId> before = detector_->Snapshot().ViolatingTuples();
  SEMANDAQ_RETURN_IF_ERROR(
      detector_->ApplyAndDetect({Update::Modify(tid, col, std::move(v))}));
  std::vector<TupleId> after = detector_->Snapshot().ViolatingTuples();

  // Newly conflicting tuples = after \ before.
  std::vector<TupleId> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));

  // Keep the change log in sync with the user's decision.
  bool found = false;
  for (CellChange& ch : result_.changes) {
    if (ch.tid == tid && ch.col == col) {
      ch.repaired = repaired_.cell(tid, col);
      found = true;
      break;
    }
  }
  if (!found) {
    CellChange ch;
    ch.tid = tid;
    ch.col = col;
    ch.original = original_->cell(tid, col);
    ch.repaired = repaired_.cell(tid, col);
    result_.changes.push_back(std::move(ch));
  }
  return fresh;
}

std::string RepairReview::RenderDiff(size_t max_rows) const {
  const auto& schema = original_->schema();
  std::ostringstream out;
  out << "Cleansing review (" << result_.changes.size() << " modified cell(s), cost "
      << result_.total_cost;
  if (result_.null_escapes > 0) {
    out << ", " << result_.null_escapes << " null escape(s)";
  }
  out << ")\n";

  // One pass over the change log instead of an O(|changes|) FindChange per
  // rendered cell — diffs of wide repairs stay linear.
  std::unordered_map<uint64_t, const CellChange*> by_cell;
  by_cell.reserve(result_.changes.size());
  for (const CellChange& ch : result_.changes) {
    by_cell.emplace((static_cast<uint64_t>(ch.tid) << 16) | ch.col, &ch);
  }
  auto change_at = [&](TupleId tid, size_t c) -> const CellChange* {
    auto it = by_cell.find((static_cast<uint64_t>(tid) << 16) | c);
    return it == by_cell.end() ? nullptr : it->second;
  };

  // Column headers.
  out << "tid";
  for (size_t c = 0; c < schema.size(); ++c) out << " | " << schema.attr(c).name;
  out << "\n";

  // The changed tuples in id order, each decoded once; the rest of the
  // relation is never read.
  std::vector<TupleId> tids;
  tids.reserve(result_.changes.size());
  for (const CellChange& ch : result_.changes) tids.push_back(ch.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  size_t shown = 0;
  for (TupleId tid : tids) {
    if (shown >= max_rows) break;
    if (!original_->IsLive(tid)) continue;
    ++shown;
    const Row row = original_->row(tid);
    out << "#" << tid;
    for (size_t c = 0; c < schema.size(); ++c) {
      out << " | ";
      const CellChange* ch = change_at(tid, c);
      if (ch != nullptr && !(ch->original == ch->repaired)) {
        out << "[" << ch->original.ToDisplayString() << " -> "
            << ch->repaired.ToDisplayString() << "]";
      } else {
        out << row[c].ToDisplayString();
      }
    }
    out << "\n";
  }
  if (shown == 0) out << "(no modified tuples)\n";
  return out.str();
}

}  // namespace semandaq::repair
