#include "detect/incremental_detector.h"

#include <algorithm>
#include <cassert>

namespace semandaq::detect {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Status;
using relational::Code;
using relational::kNullCode;
using relational::Row;
using relational::TupleId;
using relational::Update;
using relational::UpdateBatch;
using relational::Value;

void IncrementalDetector::Bucket::AddRhs(const Value& v) {
  if (v.is_null()) return;
  if (++rhs_counts[v] == 1) ++distinct_nonnull;
}

void IncrementalDetector::Bucket::RemoveRhs(const Value& v) {
  if (v.is_null()) return;
  auto it = rhs_counts.find(v);
  if (it == rhs_counts.end()) return;
  if (--it->second == 0) {
    rhs_counts.erase(it);
    --distinct_nonnull;
  }
}

common::Status IncrementalDetector::Initialize() {
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, rel_->schema()));
  groups_.clear();
  singles_.clear();
  enc_.emplace(rel_);

  const auto fd_groups = cfd::GroupByEmbeddedFd(cfds_);
  groups_.reserve(fd_groups.size());
  for (const auto& g : fd_groups) {
    GroupState gs;
    const Cfd& first = cfds_[g.members.front().first];
    gs.lhs_cols = first.lhs_cols();
    gs.rhs_col = first.rhs_col();
    for (const auto& member : g.members) {
      const auto& [ci, pi] = member;
      const PatternTuple& pt = cfds_[ci].tableau()[pi];
      // Compile the row to codes. Constants are *encoded* (not looked up):
      // that allocates a stable code even for values the data does not
      // contain yet, so later inserts of the value match correctly.
      CompiledRow cr;
      cr.ci = ci;
      cr.pi = pi;
      bool feasible = true;
      for (size_t i = 0; i < gs.lhs_cols.size(); ++i) {
        if (pt.lhs[i].is_wildcard()) continue;
        // A NULL constant matches nothing (PatternValue::Matches rejects
        // NULL cells), so the whole row can never apply to any tuple.
        if (pt.lhs[i].constant().is_null()) {
          feasible = false;
          break;
        }
        cr.lhs_consts.emplace_back(
            static_cast<uint32_t>(i),
            enc_->mutable_dictionary(gs.lhs_cols[i]).Encode(pt.lhs[i].constant()));
      }
      if (!feasible) continue;
      if (pt.is_constant_rhs()) {
        cr.rhs_code =
            enc_->mutable_dictionary(gs.rhs_col).Encode(pt.rhs.constant());
        gs.compiled_const.push_back(std::move(cr));
      } else {
        gs.var_rows.push_back(member);
        gs.compiled_var.push_back(std::move(cr));
      }
    }
    groups_.push_back(std::move(gs));
  }

  BulkEnter();
  initialized_ = true;
  return Status::OK();
}

void IncrementalDetector::BulkEnter() {
  namespace simd = common::simd;
  const simd::Kernels& kn = simd::KernelsFor(simd_level_);
  const size_t bound = static_cast<size_t>(rel_->IdBound());
  if (bound == 0) return;
  const uint8_t* live = rel_->live_data();
  constexpr size_t kBlock = 4096;
  const size_t max_words = simd::MaskWords(kBlock);
  std::vector<uint64_t> livemask(max_words);  // liveness only
  std::vector<uint64_t> rowmask(max_words);   // one compiled row's matches
  std::vector<uint64_t> scope(max_words);     // union of var-row matches
  std::vector<uint64_t> elig(max_words);      // live ∧ LHS non-NULL
  std::vector<uint64_t> packed(kBlock);

  // One compiled row's constant filter as flat kernel inputs.
  struct RowFilter {
    std::vector<const Code*> cols;
    std::vector<Code> consts;
  };

  for (GroupState& gs : groups_) {
    const size_t nlhs = gs.lhs_cols.size();
    std::vector<const Code*> lhs_ptrs(nlhs);
    for (size_t k = 0; k < nlhs; ++k) {
      lhs_ptrs[k] = enc_->column(gs.lhs_cols[k]).data();
    }
    const Code* rhs_ptr = enc_->column(gs.rhs_col).data();
    auto compile = [&](const std::vector<CompiledRow>& rows) {
      std::vector<RowFilter> out(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        for (const auto& [pos, code] : rows[i].lhs_consts) {
          out[i].cols.push_back(lhs_ptrs[pos]);
          out[i].consts.push_back(code);
        }
      }
      return out;
    };
    const std::vector<RowFilter> const_filters = compile(gs.compiled_const);
    const std::vector<RowFilter> var_filters = compile(gs.compiled_var);

    // Packed-key handle cache for narrow LHS: one uint64 hash probe per
    // placement instead of hashing a code vector (Bucket addresses are
    // node-stable under unordered_map growth). The vector-keyed gs.buckets
    // stays the canonical state either way.
    std::unordered_map<uint64_t, Bucket*> packed_buckets;
    std::vector<Code> key;
    std::vector<const Code*> shifted;
    std::vector<const Code*> lhs_shifted(nlhs);

    for (size_t lo = 0; lo < bound; lo += kBlock) {
      const size_t n = std::min(kBlock, bound - lo);
      const size_t nwords = simd::MaskWords(n);
      if (kn.MaskLive(live + lo, nullptr, 0, kNullCode, n, livemask.data()) ==
          0) {
        continue;
      }

      // Single-tuple violations against constant-RHS rows: live ∧ LHS
      // constants match ∧ RHS non-NULL ∧ RHS differs from the pattern.
      for (size_t ri = 0; ri < const_filters.size(); ++ri) {
        const RowFilter& f = const_filters[ri];
        std::copy_n(livemask.data(), nwords, rowmask.data());
        shifted.assign(f.cols.size(), nullptr);
        for (size_t k = 0; k < f.cols.size(); ++k) shifted[k] = f.cols[k] + lo;
        kn.FilterEqMulti32(shifted.data(), f.consts.data(), f.cols.size(), n,
                           rowmask.data());
        kn.MaskNeAnd32(rhs_ptr + lo, n, kNullCode, rowmask.data());
        kn.MaskNeAnd32(rhs_ptr + lo, n, gs.compiled_const[ri].rhs_code,
                       rowmask.data());
        simd::ForEachSetBit(rowmask.data(), nwords, [&](size_t i) {
          singles_[static_cast<TupleId>(lo + i)].emplace_back(
              gs.compiled_const[ri].ci, gs.compiled_const[ri].pi);
        });
      }

      // Variable-RHS scope membership: union of the var rows' filters,
      // then the groupability mask (live ∧ every LHS attribute non-NULL).
      if (var_filters.empty()) continue;
      std::fill_n(scope.data(), nwords, uint64_t{0});
      for (const RowFilter& f : var_filters) {
        std::copy_n(livemask.data(), nwords, rowmask.data());
        shifted.assign(f.cols.size(), nullptr);
        for (size_t k = 0; k < f.cols.size(); ++k) shifted[k] = f.cols[k] + lo;
        kn.FilterEqMulti32(shifted.data(), f.consts.data(), f.cols.size(), n,
                           rowmask.data());
        for (size_t w = 0; w < nwords; ++w) scope[w] |= rowmask[w];
      }
      for (size_t k = 0; k < nlhs; ++k) lhs_shifted[k] = lhs_ptrs[k] + lo;
      if (kn.MaskLive(live + lo, lhs_shifted.data(), nlhs, kNullCode, n,
                      elig.data()) == 0) {
        continue;
      }
      bool any = false;
      for (size_t w = 0; w < nwords; ++w) {
        scope[w] &= elig[w];
        any |= scope[w] != 0;
      }
      if (!any) continue;

      auto place = [&](TupleId tid, Bucket& b, size_t i) {
        b.members.push_back(tid);
        b.AddRhs(enc_->Decode(gs.rhs_col, rhs_ptr[lo + i]));
        ++buckets_touched_;
      };
      if (nlhs >= 1 && nlhs <= 2) {
        kn.PackKeys2x32(lhs_shifted[0], nlhs == 2 ? lhs_shifted[1] : nullptr,
                        n, packed.data());
        simd::ForEachSetBit(scope.data(), nwords, [&](size_t i) {
          auto [it, fresh] = packed_buckets.emplace(packed[i], nullptr);
          if (fresh) {
            key.clear();
            for (size_t k = 0; k < nlhs; ++k) key.push_back(lhs_shifted[k][i]);
            it->second = &gs.buckets[key];
          }
          place(static_cast<TupleId>(lo + i), *it->second, i);
        });
      } else {
        simd::ForEachSetBit(scope.data(), nwords, [&](size_t i) {
          key.clear();
          for (size_t k = 0; k < nlhs; ++k) key.push_back(lhs_shifted[k][i]);
          place(static_cast<TupleId>(lo + i), gs.buckets[key], i);
        });
      }
    }
  }
}

bool IncrementalDetector::LhsKeyOf(const GroupState& gs, TupleId tid,
                                   std::vector<Code>* key) const {
  key->clear();
  key->reserve(gs.lhs_cols.size());
  for (size_t c : gs.lhs_cols) {
    const Code code = enc_->code(tid, c);
    if (code == kNullCode) return false;
    key->push_back(code);
  }
  return true;
}

void IncrementalDetector::EnterTuple(TupleId tid) {
  std::vector<Code> key;
  for (GroupState& gs : groups_) {
    // Single-tuple violations against constant-RHS rows.
    const Code rhs_code = enc_->code(tid, gs.rhs_col);
    for (const CompiledRow& cr : gs.compiled_const) {
      bool lhs_match = true;
      for (const auto& [pos, code] : cr.lhs_consts) {
        if (enc_->code(tid, gs.lhs_cols[pos]) != code) {
          lhs_match = false;
          break;
        }
      }
      if (!lhs_match) continue;
      if (rhs_code != kNullCode && rhs_code != cr.rhs_code) {
        singles_[tid].emplace_back(cr.ci, cr.pi);
      }
    }
    // Variable-RHS scope membership.
    bool in_scope = false;
    for (const CompiledRow& cr : gs.compiled_var) {
      bool lhs_match = true;
      for (const auto& [pos, code] : cr.lhs_consts) {
        if (enc_->code(tid, gs.lhs_cols[pos]) != code) {
          lhs_match = false;
          break;
        }
      }
      if (lhs_match) {
        in_scope = true;
        break;
      }
    }
    if (!in_scope) continue;
    if (!LhsKeyOf(gs, tid, &key)) continue;  // NULL LHS never groups
    Bucket& b = gs.buckets[key];
    b.members.push_back(tid);
    b.AddRhs(enc_->Decode(gs.rhs_col, rhs_code));
    ++buckets_touched_;
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
    it->second.RemoveRhs(enc_->Decode(gs.rhs_col, enc_->code(tid, gs.rhs_col)));
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
        enc_->ApplyInsert(*r);
        EnterTuple(*r);
        break;
      }
      case Update::Kind::kDelete:
        LeaveTuple(u.tid);
        SEMANDAQ_RETURN_IF_ERROR(rel_->Delete(u.tid));
        enc_->NoteDelete();
        break;
      case Update::Kind::kModify:
        LeaveTuple(u.tid);
        SEMANDAQ_RETURN_IF_ERROR(rel_->SetCell(u.tid, u.col, u.new_value));
        enc_->ApplyCell(u.tid, u.col);
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
    const GroupState& gs = groups_[gi];
    for (const auto& [key, bucket] : gs.buckets) {
      if (!bucket.violating()) continue;
      ViolationGroup vg;
      vg.fd_group = static_cast<int>(gi);
      vg.cfd_index =
          gs.var_rows.empty() ? -1 : static_cast<int>(gs.var_rows.front().first);
      vg.lhs_key.reserve(key.size());
      for (size_t i = 0; i < key.size(); ++i) {
        vg.lhs_key.push_back(enc_->Decode(gs.lhs_cols[i], key[i]));
      }
      const int64_t n = static_cast<int64_t>(bucket.members.size());
      const int64_t nulls = bucket.null_rhs();
      vg.member_partners.reserve(bucket.members.size());
      for (TupleId tid : bucket.members) {
        vg.member_partners.push_back(n - SameRhs(gs, bucket, tid, nulls));
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
    if (!LhsKeyOf(gs, tid, &key)) continue;
    auto bit = gs.buckets.find(key);
    if (bit == gs.buckets.end() || !bit->second.violating()) continue;
    const Bucket& b = bit->second;
    if (std::find(b.members.begin(), b.members.end(), tid) == b.members.end()) {
      continue;
    }
    vio += static_cast<int64_t>(b.members.size()) -
           SameRhs(gs, b, tid, b.null_rhs());
  }
  return vio;
}

int64_t IncrementalDetector::SameRhs(const GroupState& gs, const Bucket& b,
                                     TupleId tid, int64_t nulls) const {
  const Code c = enc_->code(tid, gs.rhs_col);
  if (c == kNullCode) return nulls;
  auto it = b.rhs_counts.find(enc_->Decode(gs.rhs_col, c));
  return it == b.rhs_counts.end() ? 0 : it->second;
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
    if (!LhsKeyOf(gs, tid, &key)) continue;
    auto bit = gs.buckets.find(key);
    if (bit == gs.buckets.end() || !bit->second.violating()) continue;
    const Bucket& b = bit->second;
    if (std::find(b.members.begin(), b.members.end(), tid) == b.members.end()) {
      continue;
    }
    GroupView view;
    view.fd_group = gi;
    view.rhs_col = gs.rhs_col;
    view.escape_lhs_col = gs.lhs_cols.back();
    view.members = &b.members;
    view.rhs_counts = &b.rhs_counts;
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
