#ifndef SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_
#define SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/hash.h"
#include "relational/column_chunk.h"
#include "relational/dictionary.h"
#include "relational/relation.h"

namespace semandaq::relational {

/// A dictionary-encoded columnar snapshot of a Relation: one flat,
/// refcounted code chunk per column (relational::CodeColumn), indexed by
/// TupleId, plus the per-column Dictionary that issued the codes —
/// dictionaries are refcounted too, shared with frozen snapshot views and
/// detached copy-on-write before the writer mutates them.
///
/// This is the substrate of the detection/discovery fast paths: equality of
/// cells becomes equality of 32-bit codes, group-by keys become packed
/// integers, and the string hashing that dominates row-at-a-time scans is
/// paid once per distinct value at encode time. The design follows the
/// position-list/partition representations of TANE-family discovery systems
/// (Desbordante et al.): detection is then "a small number of scans" over
/// dense integer arrays, which is the paper's scaling claim made concrete.
///
/// Staleness protocol. The snapshot remembers the relation's (version,
/// overwrite_version) pair at the last sync:
///   * both match                -> in sync, Sync() is a no-op;
///   * only `version` moved      -> the relation saw appends and/or deletes;
///     Sync() encodes just the new rows (deletes need no code work because
///     scans consult Relation::IsLive, which EncodedRelation::ForEachLive
///     does for you);
///   * `overwrite_version` moved -> some cell was rewritten in place and the
///     snapshot cannot tell which; Sync() rebuilds everything.
/// Callers that apply mutations themselves (IncrementalDetector) can stay
/// warm through overwrites via the delta hooks ApplyInsert/ApplyCell, which
/// re-encode exactly the touched cells and fast-forward the sync marks.
///
/// Private working copies. SetCell writes a cell of the snapshot without
/// touching the relation, so the sync marks still say InSync(). A snapshot
/// written this way no longer mirrors its relation and must never be
/// Sync()ed or Rebuild()t, which would discard its writes; the repair
/// engine's working state (repair::BatchRepair) is its only caller.
///
/// Dictionaries only grow: deletes and overwrites may strand codes whose
/// value no longer occurs live. That is deliberate — code stability is what
/// keeps precompiled pattern codes valid across deltas — and bounded by
/// update volume; a full Rebuild() (or a fresh snapshot) compacts.
///
/// Sharing protocol (the server's epoch-published snapshots, docs/server.md).
/// Freeze() captures an immutable view of the current encoded state in O(1)
/// per column: frozen views share the chunks and dictionaries by refcount,
/// and so does every snapshot that adopts a column-backed relation.
/// Afterwards the writer may keep mutating this object freely — appends land
/// past every frozen view's size, and overwrites (Rebuild, ApplyCell,
/// SetCell) detach the touched chunk/dictionary copy-on-write first — so a
/// frozen view's bytes are stable for its whole lifetime and readers never
/// block on the writer.
class EncodedRelation {
 public:
  /// The snapshot of `rel`. A relation that carries its build columns
  /// (Relation::has_columns) is adopted in O(columns): frozen views of its
  /// chunks and its shared dictionaries, as Freeze takes them; later writes
  /// detach copy-on-write. Any other relation is encoded in one pass over
  /// its live tuples; a tripped `cancel` token (common/cancel.h, checked
  /// every few thousand rows) abandons that encode and leaves the snapshot
  /// *out of sync* (InSync() false), so nothing ever reads half-encoded
  /// codes as current.
  explicit EncodedRelation(const Relation* rel,
                           common::CancelToken* cancel = nullptr);

  /// An immutable view of the current encoded state for `view_rel` — a
  /// frozen materialization of the same tuples this snapshot describes
  /// (the server's epoch publication copies liveness into a fresh Relation
  /// and pairs it with this). O(1) per column: chunks and dictionaries are
  /// shared by refcount, and the writer detaches copy-on-write before any
  /// in-place rewrite, so the view's contents never change. The view is
  /// marked in sync with `view_rel`'s current counters; since a frozen
  /// view's relation never mutates, its Sync() stays a no-op forever.
  EncodedRelation Freeze(const Relation* view_rel) const;

  /// Attaches a cooperative cancellation token checked by the encode
  /// passes (constructor, Sync, Rebuild). A tripped token makes them stop
  /// without updating the sync marks: the snapshot reports !InSync() and a
  /// later Sync()/Rebuild() with a clean token redoes the work. nullptr =
  /// not cancellable.
  void set_cancel(common::CancelToken* cancel) { cancel_ = cancel; }

  const Relation& relation() const { return *rel_; }
  size_t num_columns() const { return columns_.size(); }

  /// One past the largest encoded TupleId; matches relation().IdBound()
  /// whenever the snapshot is in sync.
  TupleId IdBound() const {
    return columns_.empty() ? 0 : static_cast<TupleId>(columns_[0].size());
  }

  /// True when the snapshot reflects the relation's current contents.
  bool InSync() const {
    return synced_version_ == rel_->version() &&
           synced_overwrite_version_ == rel_->overwrite_version();
  }

  /// Catches up with the relation: no-op when in sync, append-only encode
  /// after inserts/deletes, full rebuild after in-place overwrites.
  void Sync();

  /// Re-encodes everything from scratch (also compacts the dictionaries).
  void Rebuild();

  /// Delta hook: the caller just inserted `tid` (== previous IdBound).
  void ApplyInsert(TupleId tid);

  /// Delta hook: the caller just overwrote cell (tid, col) in the relation.
  void ApplyCell(TupleId tid, size_t col);

  /// Writes `v` into cell (tid, col) of the snapshot only (see "Private
  /// working copies" above), copy-on-write like every other write. A value
  /// the column's dictionary holds, and NULL, writes its code without
  /// touching the dictionary; a new value appends to it, detached first
  /// when shared.
  void SetCell(TupleId tid, size_t col, const Value& v);

  /// Delta hook: the caller just tombstoned a tuple. Codes are untouched;
  /// this only fast-forwards the sync mark.
  void NoteDelete() { synced_version_ = rel_->version(); }

  /// The whole code column, indexed by TupleId (dead tuples keep their last
  /// codes; filter with relation().IsLive or ForEachLive). The returned
  /// CodeColumn is contiguous — data()/size() feed the SIMD kernels
  /// exactly like the flat vectors it replaced.
  const CodeColumn& column(size_t col) const { return columns_[col]; }

  Code code(TupleId tid, size_t col) const {
    return columns_[col][static_cast<size_t>(tid)];
  }

  const Dictionary& dictionary(size_t col) const { return *dicts_[col]; }

  /// Writer-side dictionary access: detaches a dictionary shared with
  /// frozen views (copy-on-write) before exposing it mutable, so encodes
  /// of new pattern constants or appended values never disturb readers of
  /// a published snapshot.
  Dictionary& mutable_dictionary(size_t col) { return MutableDict(col); }

  /// Every code column and refcounted dictionary (shared with frozen
  /// views) at once, in column order.
  const std::vector<CodeColumn>& columns() const { return columns_; }
  const std::vector<std::shared_ptr<Dictionary>>& dictionaries() const {
    return dicts_;
  }

  /// Decoded value of a cell (NULL for kNullCode).
  const Value& Decode(size_t col, Code code) const {
    return dicts_[col]->Decode(code);
  }

  /// Invokes fn(tid) for every live encoded tuple in id order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const TupleId bound = IdBound();
    for (TupleId tid = 0; tid < bound; ++tid) {
      if (rel_->IsLive(tid)) fn(tid);
    }
  }

 private:
  EncodedRelation() = default;  // for Freeze

  /// Fills a fresh snapshot of rel_ with frozen views of `columns` and
  /// shared `dicts` (adoption and Freeze alike), in sync with rel_.
  void Share(const std::vector<std::shared_ptr<Dictionary>>& dicts,
             const std::vector<CodeColumn>& columns);

  /// False when a cancel token tripped mid-encode; the caller must then
  /// leave the sync marks untouched (the snapshot stays stale).
  bool EncodeRows(TupleId from, TupleId to);

  /// Detaches dicts_[col] if it is shared with a frozen view (COW), then
  /// returns it mutable.
  Dictionary& MutableDict(size_t col);

  const Relation* rel_ = nullptr;
  std::vector<std::shared_ptr<Dictionary>> dicts_;  // one per column, COW
  std::vector<CodeColumn> columns_;                 // [col][tid], chunked COW
  common::CancelToken* cancel_ = nullptr;  // borrowed; nullptr = not cancellable
  uint64_t synced_version_ = 0;
  uint64_t synced_overwrite_version_ = 0;
};

/// Packs two codes into one 64-bit group-by key (the <=2-column fast case;
/// a single column packs with kNullCode as the high half).
inline uint64_t PackCodes(Code a, Code b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

/// Hash/equality for wide (>2 column) code keys.
struct CodeVecHash {
  size_t operator()(const std::vector<Code>& key) const {
    size_t h = 0x434b;  // "CK"
    for (Code c : key) h = common::HashCombine(h, c);
    return h;
  }
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_
