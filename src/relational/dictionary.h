#ifndef SEMANDAQ_RELATIONAL_DICTIONARY_H_
#define SEMANDAQ_RELATIONAL_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "relational/value.h"

namespace semandaq::relational {

/// Dense integer code of a column value inside one column's Dictionary.
/// Code 0 is permanently reserved for SQL NULL; live values get 1, 2, ...
/// in first-seen order. Codes are never reused or recycled, so a code taken
/// once stays valid for the dictionary's whole lifetime (this is what lets
/// incremental consumers keep compiled pattern codes across appends).
using Code = uint32_t;

/// The NULL code: every NULL cell of a column encodes to 0.
inline constexpr Code kNullCode = 0;

/// Sentinel for "this value has no code in the dictionary". Never assigned
/// to a real value (a dictionary holding 2^32-1 distinct values is out of
/// this system's design envelope; Encode asserts before wrapping).
inline constexpr Code kAbsentCode = UINT32_MAX;

/// Hash of a wide (several-column) code key.
struct CodeVecHash {
  size_t operator()(const std::vector<Code>& key) const {
    size_t h = 0x434b;  // "CK"
    for (Code c : key) h = common::HashCombine(h, c);
    return h;
  }
};

/// Per-column mapping Value <-> dense Code.
///
/// Equality of codes is exactly Value::operator== on the decoded values:
/// the dictionary is injective on non-NULL values, and all NULLs share
/// kNullCode. This makes code comparison a drop-in replacement for Value
/// comparison in the detection and discovery inner loops — one string hash
/// per *distinct* value at encode time instead of one per tuple per scan.
class Dictionary {
 public:
  Dictionary() : hydrate_mu_(std::make_unique<std::mutex>()) {
    values_.push_back(Value::Null());
  }

  // Copies duplicate the mapping with a fresh hydration mutex, reading the
  // source under its mutex (a concurrent Lookup may be hydrating it); moves
  // steal everything. (Spelled out because the atomic hydration flag and
  // the mutex have no implicit copies.)
  Dictionary(const Dictionary& other);
  Dictionary& operator=(const Dictionary& other);
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Code of `v`, inserting it on first sight. NULL always maps to
  /// kNullCode without touching the hash table. Single-writer: must not
  /// run concurrently with any other call on the same dictionary (the
  /// relation's COW discipline detaches shared dictionaries before
  /// the writer encodes into them).
  Code Encode(const Value& v);

  /// Code of `v` without inserting; kAbsentCode when the value was never
  /// encoded (a pattern constant absent here can never match any tuple).
  ///
  /// Lazily hydrates the value->code map on a dictionary rebuilt by
  /// FromDecodedValues (see there). Safe to call concurrently with other
  /// Lookup/Decode calls — hydration is double-checked under an internal
  /// mutex, so readers of a shared snapshot dictionary never race — but
  /// not with Encode (single-writer, see above).
  Code Lookup(const Value& v) const;

  /// The value behind a code; Decode(kNullCode) is NULL. The code must have
  /// been issued by this dictionary (asserted in debug builds).
  const Value& Decode(Code code) const;

  /// Number of distinct non-NULL values; issued codes are 1..size().
  size_t size() const { return values_.size() - 1; }

  /// True when `code` was issued by this dictionary (or is the NULL code).
  bool Contains(Code code) const { return code < values_.size(); }

  /// All decoded values in code order: values()[0] is NULL and values()[c]
  /// decodes code c. This is the dictionary's serialization surface — the
  /// storage layer persists exactly this vector (minus the NULL slot) and
  /// rebuilds with FromDecodedValues.
  const std::vector<Value>& values() const { return values_; }

  /// Restores a dictionary from its persisted value list: `nonnull_values`
  /// holds the decoded values of codes 1..n in code order (the NULL slot is
  /// implicit). Fails on a NULL entry — the blob was not produced by
  /// Dictionary::values() then.
  ///
  /// The value->code hash map is NOT built here: decoding (what a loaded
  /// snapshot is scanned through) needs only the value vector, and eagerly
  /// hashing every distinct value would put the dominant cost of the cold
  /// encode right back into the cold load. The map hydrates on the first
  /// Encode/Lookup — i.e. the first pattern-constant compile or append
  /// touching this column — which also performs the duplicate check that
  /// eager construction would have done (duplicate = Internal error
  /// surfaced by hydration's debug assert; codes of a well-formed snapshot
  /// never alias because the writer emits values() of an injective map).
  static common::Result<Dictionary> FromDecodedValues(
      std::vector<Value> nonnull_values);

 private:
  /// Builds codes_ from values_ (the FromDecodedValues deferred half).
  void Hydrate() const;

  /// Hydrates at most once, double-checked under hydrate_mu_ so concurrent
  /// const readers (Lookup on a shared snapshot dictionary) never race.
  void EnsureHydrated() const {
    if (!hydrated_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(*hydrate_mu_);
      if (!hydrated_.load(std::memory_order_relaxed)) {
        Hydrate();
        hydrated_.store(true, std::memory_order_release);
      }
    }
  }

  // Lazily hydrated (see FromDecodedValues); mutable so the logically
  // const Lookup can hydrate.
  mutable std::unordered_map<Value, Code, ValueHash> codes_;
  mutable std::atomic<bool> hydrated_{true};
  mutable std::unique_ptr<std::mutex> hydrate_mu_;
  std::vector<Value> values_;  // values_[0] = NULL; values_[c] decodes c
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_DICTIONARY_H_
