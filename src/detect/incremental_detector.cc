#include "detect/incremental_detector.h"

#include <algorithm>
#include <cassert>

namespace semandaq::detect {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Status;
using relational::Code;
using relational::kNullCode;
using relational::TupleId;
using relational::Update;
using relational::UpdateBatch;

void IncrementalDetector::Bucket::AddRhs(Code c) {
  if (c == kNullCode) {
    ++null_rhs;
  } else {
    ++rhs_counts[c];
  }
}

void IncrementalDetector::Bucket::RemoveRhs(Code c) {
  if (c == kNullCode) {
    --null_rhs;
    return;
  }
  auto it = rhs_counts.find(c);
  assert(it != rhs_counts.end());
  if (--it->second == 0) rhs_counts.erase(it);
}

int64_t IncrementalDetector::Bucket::SameRhs(Code c) const {
  if (c == kNullCode) return null_rhs;
  auto it = rhs_counts.find(c);
  return it == rhs_counts.end() ? 0 : it->second;
}

common::Status IncrementalDetector::Initialize() {
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, rel_->schema()));
  groups_.clear();
  singles_.clear();

  // Constants are *interned* into the relation's dictionaries first, in
  // group and member order: that reserves a stable code even for values
  // the data does not contain yet, which a later insert of the value
  // reuses, so the compiled rows match it. A NULL LHS constant ends its
  // row, which selects no tuple.
  const auto fd_groups = cfd::GroupByEmbeddedFd(cfds_);
  for (const auto& g : fd_groups) {
    for (const auto& [ci, pi] : g.members) {
      const Cfd& c = cfds_[ci];
      const PatternTuple& pt = c.tableau()[pi];
      size_t i = 0;
      for (; i < pt.lhs.size() && !pt.lhs[i].is_null_constant(); ++i) {
        if (pt.lhs[i].is_constant()) rel_->Intern(c.lhs_cols()[i], pt.lhs[i].constant());
      }
      if (i == pt.lhs.size() && pt.rhs.is_constant()) {
        rel_->Intern(c.rhs_col(), pt.rhs.constant());
      }
    }
  }

  // One GroupState per embedded-FD group, even one whose rows all select
  // nothing: fd_group numbers follow GroupByEmbeddedFd.
  const common::simd::Kernels& kn = common::simd::KernelsFor(simd_level_);
  groups_.resize(fd_groups.size());
  for (size_t gi = 0; gi < fd_groups.size(); ++gi) {
    GroupState& gs = groups_[gi];
    CompileGroup(enc_, cfds_, fd_groups[gi], gi, kn, &gs.scan);
    gs.scratch.Prepare(gs.scan);

    // The bulk build: the group's scan over every kernel block. Narrow
    // keys probe a packed-key handle cache (Bucket addresses are stable
    // under unordered_map growth) instead of hashing a code vector.
    std::unordered_map<uint64_t, Bucket*> packed_buckets;
    std::vector<Code> key;
    const auto on_single = [&](TupleId tid, int ci, int pi) {
      singles_[tid].emplace_back(ci, pi);
    };
    const auto on_group = [&](TupleId tid, int, uint64_t packed) {
      Bucket* b;
      if (gs.scan.arity <= 2) {
        auto [it, fresh] = packed_buckets.emplace(packed, nullptr);
        if (fresh) {
          LhsKeyOf(gs, tid, &key);
          it->second = &gs.buckets[key];
        }
        b = it->second;
      } else {
        LhsKeyOf(gs, tid, &key);
        b = &gs.buckets[key];
      }
      b->members.push_back(tid);
      b->AddRhs(gs.scan.rhs_ptr[tid]);
      ++buckets_touched_;
    };
    const TupleId bound = rel_->IdBound();
    for (TupleId lo = 0; lo < bound; lo += static_cast<TupleId>(kScanBlock)) {
      ScanBlock(gs.scan, lo, std::min<TupleId>(bound, lo + kScanBlock),
                &gs.scratch, on_single, on_group);
    }
  }
  initialized_ = true;
  return Status::OK();
}

bool IncrementalDetector::LhsKeyOf(const GroupState& gs, TupleId tid,
                                   std::vector<Code>* key) const {
  key->clear();
  for (size_t c : gs.scan.lhs_cols) {
    const Code code = enc_.code(tid, c);
    if (code == kNullCode) return false;
    key->push_back(code);
  }
  return true;
}

void IncrementalDetector::EnterTuple(TupleId tid) {
  std::vector<Code> key;
  for (GroupState& gs : groups_) {
    gs.scan.Bind(*rel_);
    ScanBlock(
        gs.scan, tid, tid + 1, &gs.scratch,
        [&](TupleId, int ci, int pi) { singles_[tid].emplace_back(ci, pi); },
        [&](TupleId, int, uint64_t) {
          LhsKeyOf(gs, tid, &key);
          Bucket& b = gs.buckets[key];
          b.members.push_back(tid);
          b.AddRhs(gs.scan.rhs_ptr[tid]);
          ++buckets_touched_;
        });
  }
}

void IncrementalDetector::LeaveTuple(TupleId tid) {
  assert(rel_->IsLive(tid));
  singles_.erase(tid);
  std::vector<Code> key;
  for (GroupState& gs : groups_) {
    if (!LhsKeyOf(gs, tid, &key)) continue;
    auto it = gs.buckets.find(key);
    if (it == gs.buckets.end()) continue;
    auto& members = it->second.members;
    auto pos = std::find(members.begin(), members.end(), tid);
    if (pos == members.end()) continue;  // was not in scope for this group
    members.erase(pos);
    it->second.RemoveRhs(enc_.code(tid, gs.scan.rhs_col));
    ++buckets_touched_;
    if (members.empty()) gs.buckets.erase(it);
  }
}

common::Status IncrementalDetector::ApplyAndDetect(const UpdateBatch& batch,
                                                   std::vector<TupleId>* inserted) {
  if (!initialized_) {
    return Status::FailedPrecondition("IncrementalDetector::Initialize was not called");
  }
  for (const Update& u : batch) {
    // Validate before LeaveTuple: a relation-level failure after it would
    // leave detector state drifted from the (unchanged) relation.
    SEMANDAQ_RETURN_IF_ERROR(relational::ValidateUpdate(u, *rel_));
    switch (u.kind) {
      case Update::Kind::kInsert: {
        auto r = rel_->Insert(u.row);
        if (!r.ok()) return r.status();
        if (inserted != nullptr) inserted->push_back(*r);
        EnterTuple(*r);
        break;
      }
      case Update::Kind::kDelete:
        LeaveTuple(u.tid);
        SEMANDAQ_RETURN_IF_ERROR(rel_->Delete(u.tid));
        break;
      case Update::Kind::kModify:
        LeaveTuple(u.tid);
        SEMANDAQ_RETURN_IF_ERROR(rel_->SetCell(u.tid, u.col, u.new_value));
        EnterTuple(u.tid);
        break;
    }
  }
  return Status::OK();
}

ViolationTable IncrementalDetector::Snapshot() const {
  ViolationTable table;
  // Deterministic order: singles sorted by tid.
  std::vector<TupleId> tids;
  tids.reserve(singles_.size());
  for (const auto& [tid, list] : singles_) tids.push_back(tid);
  std::sort(tids.begin(), tids.end());
  for (TupleId tid : tids) {
    for (const auto& [ci, pi] : singles_.at(tid)) {
      table.AddSingle(SingleViolation{tid, static_cast<int>(ci), static_cast<int>(pi)});
    }
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const GroupScan& scan = groups_[gi].scan;
    for (const auto& [key, bucket] : groups_[gi].buckets) {
      if (!bucket.violating()) continue;
      ViolationGroup vg;
      vg.fd_group = static_cast<int>(gi);
      // A group's CFD is its first variable row's.
      vg.cfd_index = scan.var_rows.empty() ? -1 : scan.var_rows.front().ci;
      vg.lhs_key.reserve(key.size());
      for (size_t i = 0; i < key.size(); ++i) {
        vg.lhs_key.push_back(enc_.Decode(scan.lhs_cols[i], key[i]));
      }
      const int64_t n = static_cast<int64_t>(bucket.members.size());
      vg.member_partners.reserve(bucket.members.size());
      for (TupleId tid : bucket.members) {
        vg.member_partners.push_back(n - bucket.SameRhs(enc_.code(tid, scan.rhs_col)));
      }
      vg.members = bucket.members;
      table.AddGroup(std::move(vg));
    }
  }
  return table;
}

int64_t IncrementalDetector::Vio(TupleId tid) const {
  int64_t vio = 0;
  // Singles: one per distinct CFD.
  auto it = singles_.find(tid);
  if (it != singles_.end()) {
    std::vector<size_t> cfd_ids;
    for (const auto& [ci, pi] : it->second) cfd_ids.push_back(ci);
    std::sort(cfd_ids.begin(), cfd_ids.end());
    cfd_ids.erase(std::unique(cfd_ids.begin(), cfd_ids.end()), cfd_ids.end());
    vio += static_cast<int64_t>(cfd_ids.size());
  }
  if (!rel_->IsLive(tid)) return vio;
  std::vector<Code> key;
  for (const GroupState& gs : groups_) {
    if (const Bucket* b = ViolatingBucketOf(gs, tid, &key)) {
      vio += static_cast<int64_t>(b->members.size()) -
             b->SameRhs(enc_.code(tid, gs.scan.rhs_col));
    }
  }
  return vio;
}

const IncrementalDetector::Bucket* IncrementalDetector::ViolatingBucketOf(
    const GroupState& gs, TupleId tid, std::vector<Code>* key) const {
  if (!LhsKeyOf(gs, tid, key)) return nullptr;
  auto it = gs.buckets.find(*key);
  if (it == gs.buckets.end() || !it->second.violating()) return nullptr;
  const std::vector<TupleId>& members = it->second.members;
  const bool member = std::find(members.begin(), members.end(), tid) != members.end();
  return member ? &it->second : nullptr;
}

std::vector<std::pair<size_t, size_t>> IncrementalDetector::SinglesOf(
    TupleId tid) const {
  auto it = singles_.find(tid);
  return it == singles_.end() ? std::vector<std::pair<size_t, size_t>>{}
                              : it->second;
}

std::vector<IncrementalDetector::GroupView> IncrementalDetector::ViolatingGroupsOf(
    TupleId tid) const {
  std::vector<GroupView> out;
  if (!rel_->IsLive(tid)) return out;
  std::vector<Code> key;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const GroupState& gs = groups_[gi];
    const Bucket* b = ViolatingBucketOf(gs, tid, &key);
    if (b == nullptr) continue;
    GroupView view;
    view.fd_group = gi;
    view.rhs_col = gs.scan.rhs_col;
    view.escape_lhs_col = gs.scan.lhs_cols.back();
    view.members = &b->members;
    view.rhs_counts = &b->rhs_counts;
    out.push_back(view);
  }
  return out;
}

bool IncrementalDetector::Clean() const {
  if (!singles_.empty()) return false;
  for (const GroupState& gs : groups_) {
    for (const auto& [key, bucket] : gs.buckets) {
      if (bucket.violating()) return false;
    }
  }
  return true;
}

}  // namespace semandaq::detect
