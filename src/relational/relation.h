#ifndef SEMANDAQ_RELATIONAL_RELATION_H_
#define SEMANDAQ_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// An in-memory relation: a schema plus a bag of rows with stable ids.
///
/// This is the storage substrate standing in for the RDBMS layer of the
/// paper's architecture (Fig. 1, "Database Servers"). Mutation goes through
/// Insert/Delete/SetCell so that indexes and monitors can observe changes.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Copies duplicate the data but NOT the observer: a clone is a new,
  /// unwatched relation (a WAL attachment journals exactly one relation).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// The one factory for column-backed relations (storage loads and
  /// published server epochs): a liveness mask (one byte per TupleId;
  /// nonzero = live, so ids and tombstones come back exactly) plus one
  /// shared dictionary and code column per attribute, each column sized
  /// live.size(). The relation keeps frozen views of them: it decodes its
  /// rows from them on first row access (EnsureHydrated), and while it is
  /// unmutated EncodedRelation(&rel) adopts them instead of re-encoding;
  /// copies keep them too. Once both mutated and hydrated, it drops them.
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
  TupleId IdBound() const { return static_cast<TupleId>(rows_.size()); }

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
  /// SetCell). Snapshot consumers (EncodedRelation) compare it to decide
  /// whether they are stale.
  uint64_t version() const { return version_; }

  /// Monotone counter bumped only by successful SetCell calls. A snapshot
  /// whose overwrite_version matches but whose version lags has only missed
  /// appends/deletes and can catch up without a full rebuild.
  uint64_t overwrite_version() const { return overwrite_version_; }

  /// True while the relation carries the columns it was built from
  /// (FromColumns) and is unmutated, i.e. while they describe exactly its
  /// contents; only then may dictionaries() and columns() be adopted.
  bool has_columns() const { return version_ == 0 && !columns_.empty(); }

  /// One shared dictionary and frozen code column (indexed by TupleId) per
  /// attribute; see has_columns. Never written: adopters detach
  /// copy-on-write.
  const std::vector<std::shared_ptr<Dictionary>>& dictionaries() const {
    return dicts_;
  }
  const std::vector<CodeColumn>& columns() const { return columns_; }

  /// Materializes lazily loaded rows (no-op for every relation not built
  /// by FromColumns, and after the first call). Every row accessor invokes
  /// this automatically. Hydration itself is thread-safe (double-checked
  /// under an internal mutex), so concurrent *readers* of an immutable
  /// relation — e.g. server sessions sharing one pinned snapshot — may
  /// race to the first row access safely, and so may copies (they read
  /// under the same mutex); concurrent *mutation* remains the caller's
  /// problem, as for every other mutator.
  void EnsureHydrated() const {
    if (needs_hydration_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(*hydrate_mu_);
      if (needs_hydration_.load(std::memory_order_relaxed)) {
        HydrateRows();
        needs_hydration_.store(false, std::memory_order_release);
        ReleaseStaleColumns();
      }
    }
  }

  /// False while a column-backed relation has not decoded its rows yet;
  /// engines that read only codes leave it false.
  bool rows_materialized() const {
    return !needs_hydration_.load(std::memory_order_acquire);
  }

  /// Appends a row; the row arity must match the schema.
  common::Result<TupleId> Insert(Row row);

  /// Appends a row, asserting arity; for generators and tests.
  TupleId MustInsert(Row row);

  /// Tombstones a live tuple.
  common::Status Delete(TupleId tid);

  /// Overwrites one cell of a live tuple.
  common::Status SetCell(TupleId tid, size_t col, Value v);

  /// Read access; the tuple must be live (asserted in debug builds).
  const Row& row(TupleId tid) const;

  /// Cell access shorthand.
  const Value& cell(TupleId tid, size_t col) const { return row(tid)[col]; }

  /// All live tuple ids, ascending. O(IdBound()).
  std::vector<TupleId> LiveIds() const;

  /// Invokes fn(tid, row) for every live tuple in id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    EnsureHydrated();
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (live_[i]) fn(static_cast<TupleId>(i), rows_[i]);
    }
  }

  /// Deep copy with the same ids (tombstones preserved). The observer is
  /// not copied (see the copy constructor).
  Relation Clone() const { return *this; }

  /// Attaches (or with nullptr detaches) the mutation observer. Borrowed,
  /// never owned; at most one per relation. The caller must guarantee the
  /// observer outlives the relation or is detached first.
  void set_observer(MutationObserver* observer) { observer_ = observer; }
  MutationObserver* observer() const { return observer_; }

  /// Projects the given columns of a live tuple into a fresh row.
  Row Project(TupleId tid, const std::vector<size_t>& cols) const;

  /// Pretty-prints up to `max_rows` tuples as an ASCII table (for examples
  /// and the fig_* binaries).
  std::string ToAsciiTable(size_t max_rows = 20) const;

 private:
  /// Decodes the live rows the build columns cover (see FromColumns).
  void HydrateRows() const;

  /// Drops the build columns once mutated and hydrated: no one can use them.
  void ReleaseStaleColumns() const;

  std::string name_;
  Schema schema_;
  // Logically const row access may materialize lazily loaded rows, hence
  // mutable; hydration replaces empty placeholders with equal-by-contract
  // decoded rows, so observable state never changes.
  mutable std::vector<Row> rows_;
  mutable std::atomic<bool> needs_hydration_{false};
  mutable std::unique_ptr<std::mutex> hydrate_mu_ =
      std::make_unique<std::mutex>();
  // One byte per id (nonzero = live), not vector<bool>: the SIMD liveness
  // kernels need a raw byte pointer, and byte loads beat bit extraction in
  // the scalar paths too.
  std::vector<uint8_t> live_;
  // The FromColumns inputs (empty for row-built relations). Hydrating a
  // mutated relation drops them, but readers only look while version_ == 0,
  // so concurrent readers of an epoch never race with that.
  mutable std::vector<std::shared_ptr<Dictionary>> dicts_;
  mutable std::vector<CodeColumn> columns_;
  size_t live_count_ = 0;
  uint64_t version_ = 0;
  uint64_t overwrite_version_ = 0;
  MutationObserver* observer_ = nullptr;  // borrowed; never copied
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_RELATION_H_
