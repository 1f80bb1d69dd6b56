#ifndef SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_
#define SEMANDAQ_RELATIONAL_ENCODED_RELATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "relational/column_chunk.h"
#include "relational/dictionary.h"
#include "relational/relation.h"

namespace semandaq::relational {

/// The read-only code view of a Relation: its per-column Dictionary and
/// CodeColumn (indexed by TupleId), read through the relation itself, so a
/// view always describes the relation as it is now and can never go stale.
/// A view holds one pointer; making or copying one costs nothing.
///
/// This is the substrate of the detection/discovery fast paths: equality of
/// cells becomes equality of 32-bit codes, group-by keys become packed
/// integers, and the string hashing that dominates row-at-a-time scans is
/// paid once per distinct value at write time. The design follows the
/// position-list/partition representations of TANE-family discovery systems
/// (Desbordante et al.): detection is then "a small number of scans" over
/// dense integer arrays, which is the paper's scaling claim made concrete.
///
/// Dictionaries only grow: deletes and overwrites may strand codes whose
/// value no longer occurs live. That is deliberate — code stability is what
/// keeps precompiled pattern codes valid across writes — and bounded by
/// update volume.
///
/// Pointers into a column (column(c).data()) and references returned by
/// Decode stay valid until the next write to the relation, which may
/// detach the chunk or grow the dictionary: re-read them after a write.
class EncodedRelation {
 public:
  /// The view of `rel`, which must outlive it.
  explicit EncodedRelation(const Relation* rel) : rel_(rel) {}

  /// The view of `view_rel` (kept for callers that derive a view from
  /// another: every view reads its own relation).
  EncodedRelation Freeze(const Relation* view_rel) const {
    return EncodedRelation(view_rel);
  }

  const Relation& relation() const { return *rel_; }
  size_t num_columns() const { return rel_->columns().size(); }

  /// One past the largest TupleId; relation().IdBound().
  TupleId IdBound() const { return rel_->IdBound(); }

  /// The whole code column, indexed by TupleId (dead tuples keep their last
  /// codes; filter with relation().IsLive or ForEachLive). The returned
  /// CodeColumn is contiguous — data()/size() feed the SIMD kernels.
  const CodeColumn& column(size_t col) const { return rel_->columns()[col]; }

  Code code(TupleId tid, size_t col) const {
    return column(col)[static_cast<size_t>(tid)];
  }

  const Dictionary& dictionary(size_t col) const {
    return *rel_->dictionaries()[col];
  }

  /// Every code column and refcounted dictionary at once, in column order.
  const std::vector<CodeColumn>& columns() const { return rel_->columns(); }
  const std::vector<std::shared_ptr<Dictionary>>& dictionaries() const {
    return rel_->dictionaries();
  }

  /// Decoded value of a cell (NULL for kNullCode).
  const Value& Decode(size_t col, Code code) const {
    return dictionary(col).Decode(code);
  }

  /// Invokes fn(tid) for every live tuple in id order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const TupleId bound = IdBound();
    for (TupleId tid = 0; tid < bound; ++tid) {
      if (rel_->IsLive(tid)) fn(tid);
    }
  }

 private:
  const Relation* rel_;
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
