#include "relational/encoded_relation.h"

#include <cassert>
#include <memory>
#include <utility>

namespace semandaq::relational {

namespace {

/// Rows between cancel checkpoints in the encode loops.
constexpr TupleId kEncodeCancelBatch = 4096;

}  // namespace

EncodedRelation::EncodedRelation(const Relation* rel,
                                 common::CancelToken* cancel)
    : rel_(rel), cancel_(cancel) {
  if (rel->has_columns()) {
    Share(rel->dictionaries(), rel->columns());
  } else {
    Rebuild();
  }
}

EncodedRelation EncodedRelation::Freeze(const Relation* view_rel) const {
  assert(view_rel != nullptr);
  EncodedRelation out;
  out.rel_ = view_rel;
  out.Share(dicts_, columns_);
  return out;
}

void EncodedRelation::Share(const std::vector<std::shared_ptr<Dictionary>>& dicts,
                            const std::vector<CodeColumn>& columns) {
  assert(rel_->schema().size() == columns.size());
  dicts_ = dicts;  // shared by refcount; writers detach before mutating
  columns_.reserve(columns.size());
  for (const CodeColumn& col : columns) {
    assert(col.size() == static_cast<size_t>(rel_->IdBound()));
    columns_.push_back(col.ShareFrozen());
  }
  synced_version_ = rel_->version();
  synced_overwrite_version_ = rel_->overwrite_version();
}

Dictionary& EncodedRelation::MutableDict(size_t col) {
  std::shared_ptr<Dictionary>& dict = dicts_[col];
  if (dict.use_count() > 1) dict = std::make_shared<Dictionary>(*dict);
  return *dict;
}

void EncodedRelation::Rebuild() {
  const size_t ncols = rel_->schema().size();
  dicts_.clear();
  dicts_.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    dicts_.push_back(std::make_shared<Dictionary>());
  }
  columns_.resize(ncols);
  const size_t bound = static_cast<size_t>(rel_->IdBound());
  // AssignFill detaches any chunk shared with a frozen view, so a rebuild
  // under pinned readers writes into fresh storage.
  for (auto& col : columns_) col.AssignFill(bound, kNullCode);
  // A cancelled encode leaves the sync marks behind the relation's: the
  // snapshot reports !InSync() and is rebuilt before anything trusts it.
  if (!EncodeRows(0, static_cast<TupleId>(bound))) return;
  synced_version_ = rel_->version();
  synced_overwrite_version_ = rel_->overwrite_version();
}

void EncodedRelation::Sync() {
  if (InSync()) return;
  if (synced_overwrite_version_ != rel_->overwrite_version()) {
    Rebuild();
    return;
  }
  // Appends and/or deletes only: encode the fresh id range. Dead tuples in
  // the old range keep their codes (scans skip them via liveness). The
  // extension writes only past every frozen view's size, so pinned readers
  // are unaffected (the chunk relocates if it must grow, which leaves their
  // old chunk alive via its refcount).
  const TupleId from = IdBound();
  const TupleId to = rel_->IdBound();
  for (auto& col : columns_) {
    col.ExtendFill(static_cast<size_t>(to), kNullCode);
  }
  if (!EncodeRows(from, to)) return;  // cancelled: stay stale, never lie
  synced_version_ = rel_->version();
}

bool EncodedRelation::EncodeRows(TupleId from, TupleId to) {
  const size_t ncols = columns_.size();
  if (to <= from || ncols == 0) return true;
  // Detach dictionaries shared with frozen views (copy-on-write) once, up
  // front, instead of per encoded cell.
  for (size_t c = 0; c < ncols; ++c) MutableDict(c);
  for (TupleId tid = from; tid < to; ++tid) {
    if (cancel_ != nullptr && (tid - from) % kEncodeCancelBatch == 0 &&
        !cancel_->Check().ok()) {
      return false;
    }
    if (!rel_->IsLive(tid)) continue;
    const Row& row = rel_->row(tid);
    for (size_t c = 0; c < ncols; ++c) {
      columns_[c].Set(static_cast<size_t>(tid), dicts_[c]->Encode(row[c]));
    }
  }
  return cancel_ == nullptr || cancel_->Check().ok();
}

void EncodedRelation::ApplyInsert(TupleId tid) {
  assert(tid == IdBound());
  for (auto& col : columns_) {
    col.ExtendFill(static_cast<size_t>(tid) + 1, kNullCode);
  }
  if (!EncodeRows(tid, tid + 1)) return;  // cancelled: stay stale
  synced_version_ = rel_->version();
}

void EncodedRelation::ApplyCell(TupleId tid, size_t col) {
  SetCell(tid, col, rel_->cell(tid, col));
  synced_version_ = rel_->version();
  synced_overwrite_version_ = rel_->overwrite_version();
}

void EncodedRelation::SetCell(TupleId tid, size_t col, const Value& v) {
  assert(tid >= 0 && tid < IdBound() && col < columns_.size());
  // A value the dictionary already holds (and NULL) writes its code without
  // detaching the dictionary; only a new value appends to it (MutableDict
  // detaches a shared one first). Set() below the frozen watermark
  // detaches the chunk.
  Code code = dicts_[col]->Lookup(v);
  if (code == kAbsentCode) code = MutableDict(col).Encode(v);
  columns_[col].Set(static_cast<size_t>(tid), code);
}

}  // namespace semandaq::relational
