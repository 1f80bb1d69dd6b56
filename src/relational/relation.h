#ifndef SEMANDAQ_RELATIONAL_RELATION_H_
#define SEMANDAQ_RELATIONAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/column_chunk.h"
#include "relational/dictionary.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace semandaq::relational {

/// Stable identifier of a tuple within one relation. Ids are assigned by
/// insertion order and never reused; deletion leaves a tombstone. The whole
/// data-quality stack (violation tables, repairs, audits) refers to tuples
/// by TupleId, so stability across updates is essential.
using TupleId = int64_t;

/// Observer of one relation's successful mutations, notified synchronously
/// after each Insert/Delete/SetCell commits. This is the hook the storage
/// layer's live WAL attachment hangs off: every mutation path — monitor
/// update batches, repairs, any future SQL DML — funnels through the three
/// Relation mutators, so observing here covers them all by construction.
/// Observers must not mutate the relation re-entrantly.
class MutationObserver {
 public:
  virtual ~MutationObserver() = default;
  virtual void OnInsert(TupleId tid, const Row& row) = 0;
  virtual void OnDelete(TupleId tid) = 0;
  virtual void OnSetCell(TupleId tid, size_t col, const Value& value) = 0;
};

/// An in-memory relation: a schema plus a bag of tuples with stable ids.
///
/// This is the storage substrate standing in for the RDBMS layer of the
/// paper's architecture (Fig. 1, "Database Servers"). It holds one
/// representation of its data: per attribute, a refcounted Dictionary and a
/// copy-on-write CodeColumn indexed by TupleId, plus one liveness byte per
/// id. Writes encode (Insert, SetCell), reads decode by value (cell, row,
/// ForEach), and the engines take a `const Relation&` and scan the codes
/// directly (columns, code, dictionary, live_data).
///
/// Dictionaries only grow: deletes and overwrites may strand codes whose
/// value no longer occurs live. That is deliberate (code stability keeps
/// compiled pattern codes valid across writes) and bounded by update
/// volume. Pointers into a column and references Decode returned stay
/// valid until the next write, which may detach a chunk or grow a
/// dictionary: re-read them after a write.
///
/// Sharing. Copies (published server epochs among them) and loaded
/// snapshots share the dictionaries and code chunks by refcount. Every
/// write detaches what it touches first: a shared dictionary is copied
/// before a new value enters it, and a code below a column's shared
/// watermark is written into a cloned chunk (appends land past every
/// copy's size). So a copy costs O(columns) plus the liveness bytes, and
/// no write is ever seen through another relation that shares the storage.
///
/// Mutation goes through Insert/Delete/SetCell so that the WAL and monitors
/// can observe changes.
class Relation {
 public:
  Relation() = default;
  /// An empty relation: one empty dictionary and code column per attribute.
  Relation(std::string name, Schema schema);

  /// Copies share the dictionaries and code chunks (copy-on-write) but NOT
  /// the observer: a clone is a new, unwatched relation (a WAL attachment
  /// journals exactly one relation).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// The factory for relations over existing columns (storage loads): a
  /// liveness mask (one byte per TupleId; nonzero = live, so ids and
  /// tombstones come back exactly) plus one shared dictionary and code
  /// column per attribute, each column sized live.size(). The relation
  /// keeps them as they are; its writes detach.
  static Relation FromColumns(std::string name, Schema schema,
                              std::vector<uint8_t> live,
                              std::vector<std::shared_ptr<Dictionary>> dicts,
                              std::vector<CodeColumn> columns);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  /// Number of live (non-deleted) tuples.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// One past the largest TupleId ever assigned; iterate ids in [0, bound)
  /// and skip dead ones.
  TupleId IdBound() const { return static_cast<TupleId>(live_.size()); }

  bool IsLive(TupleId tid) const {
    return tid >= 0 && tid < IdBound() && live_[static_cast<size_t>(tid)] != 0;
  }

  /// The liveness byte array, indexed by TupleId over [0, IdBound()):
  /// nonzero = live. This is the raw-pointer form the SIMD scan kernels
  /// consume (common::simd::Kernels::MaskLive) — one byte per tuple so a
  /// vector compare can test 16/32 tuples per instruction; no alignment is
  /// guaranteed (kernels use unaligned loads).
  const uint8_t* live_data() const { return live_.data(); }

  /// Status form of IsLive: OutOfRange (naming `verb`, e.g. "delete") when
  /// `tid` is dead or unknown. Shared by the mutators and by pre-flight
  /// validation (relational::ValidateUpdate) in appliers that mirror
  /// relation state and must reject an update *before* touching their own
  /// structures.
  common::Status CheckLive(TupleId tid, std::string_view verb) const;

  /// Status form of the column-ordinal bounds check, the companion of
  /// CheckLive for kModify-style updates.
  common::Status CheckColumn(size_t col) const;

  /// Monotone counter bumped by every successful mutation (Insert, Delete,
  /// SetCell).
  uint64_t version() const { return version_; }

  /// Monotone counter bumped only by successful SetCell calls: the server
  /// compares it to tell an in-place rewrite from appends.
  uint64_t overwrite_version() const { return overwrite_version_; }

  /// One shared dictionary and code column (indexed by TupleId; dead ids
  /// keep their last codes) per attribute: the relation's data. Read-only
  /// here; the mutators detach before writing.
  const std::vector<std::shared_ptr<Dictionary>>& dictionaries() const {
    return dicts_;
  }
  const std::vector<CodeColumn>& columns() const { return columns_; }

  /// The code of one cell (dead ids keep their last codes).
  Code code(TupleId tid, size_t col) const {
    return columns_[col][static_cast<size_t>(tid)];
  }

  /// Column `col`'s dictionary: Decode(code) is the value behind a code.
  const Dictionary& dictionary(size_t col) const { return *dicts_[col]; }

  /// Appends a row; the row arity must match the schema.
  common::Result<TupleId> Insert(Row row);

  /// Appends a row, asserting arity; for generators and tests.
  TupleId MustInsert(Row row);

  /// Tombstones a live tuple.
  common::Status Delete(TupleId tid);

  /// Overwrites one cell of a live tuple.
  common::Status SetCell(TupleId tid, size_t col, Value v);

  /// The code of `v` in column `col`'s dictionary, adding the value when it
  /// is new (detaching a shared dictionary first). No cell changes and the
  /// version counters stay put: this only reserves a code, so that a later
  /// Insert or SetCell of `v` reuses it (the incremental detector compiles
  /// pattern constants this way).
  Code Intern(size_t col, const Value& v);

  /// A decoded copy of a live tuple (asserted in debug builds).
  Row row(TupleId tid) const;

  /// The decoded value of one cell.
  Value cell(TupleId tid, size_t col) const {
    return dictionary(col).Decode(code(tid, col));
  }

  /// All live tuple ids, ascending. O(IdBound()).
  std::vector<TupleId> LiveIds() const;

  /// Invokes fn(tid, row) for every live tuple in id order, decoding each
  /// tuple into one scratch row. That decodes every cell: whole-relation
  /// scans in the engines read the codes instead, and this is for small
  /// relations and exports.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Row scratch(columns_.size());
    for (size_t i = 0; i < live_.size(); ++i) {
      if (!live_[i]) continue;
      for (size_t c = 0; c < columns_.size(); ++c) {
        scratch[c] = dicts_[c]->Decode(columns_[c][i]);
      }
      fn(static_cast<TupleId>(i), static_cast<const Row&>(scratch));
    }
  }

  /// A copy with the same ids (tombstones preserved), sharing storage
  /// copy-on-write. The observer is not copied (see the copy constructor).
  Relation Clone() const { return *this; }

  /// Attaches (or with nullptr detaches) the mutation observer. Borrowed,
  /// never owned; at most one per relation. The caller must guarantee the
  /// observer outlives the relation or is detached first.
  void set_observer(MutationObserver* observer) { observer_ = observer; }
  MutationObserver* observer() const { return observer_; }

  /// Projects the given columns of a live tuple into a fresh row.
  Row Project(TupleId tid, const std::vector<size_t>& cols) const;

  /// Pretty-prints up to `max_rows` tuples as an ASCII table, decoding only
  /// the tuples it prints.
  std::string ToAsciiTable(size_t max_rows = 20) const;

 private:
  /// Code of `v` in column `col`: looked up first, so only a value new to
  /// the column is encoded, into a dictionary detached if shared.
  Code EncodeCell(size_t col, const Value& v);

  std::string name_;
  Schema schema_;
  std::vector<std::shared_ptr<Dictionary>> dicts_;  // one per column, COW
  std::vector<CodeColumn> columns_;                 // [col][tid], COW chunks
  // One byte per id (nonzero = live), not vector<bool>: the SIMD liveness
  // kernels need a raw byte pointer, and byte loads beat bit extraction in
  // the scalar paths too.
  std::vector<uint8_t> live_;
  size_t live_count_ = 0;
  uint64_t version_ = 0;
  uint64_t overwrite_version_ = 0;
  MutationObserver* observer_ = nullptr;  // borrowed; never copied
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_RELATION_H_
