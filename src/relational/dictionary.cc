#include "relational/dictionary.h"

#include <cassert>

namespace semandaq::relational {

Dictionary::Dictionary(const Dictionary& other)
    : hydrate_mu_(std::make_unique<std::mutex>()) {
  *this = other;
}

Dictionary& Dictionary::operator=(const Dictionary& other) {
  if (this == &other) return *this;
  // A shared dictionary may be hydrating under a concurrent Lookup, which
  // fills codes_ under the source's mutex: copy under it too, so the copy
  // sees either the unhydrated or the hydrated state, never a half-built
  // map. (A moved-from source has no mutex and no concurrent readers.)
  std::unique_lock<std::mutex> lock;
  if (other.hydrate_mu_ != nullptr) lock = std::unique_lock(*other.hydrate_mu_);
  codes_ = other.codes_;
  hydrated_.store(other.hydrated_.load(std::memory_order_acquire),
                  std::memory_order_release);
  values_ = other.values_;
  // A moved-from shell being reused as an assignment target lost its mutex.
  if (hydrate_mu_ == nullptr) hydrate_mu_ = std::make_unique<std::mutex>();
  return *this;
}

Dictionary::Dictionary(Dictionary&& other) noexcept
    : codes_(std::move(other.codes_)),
      hydrated_(other.hydrated_.load(std::memory_order_acquire)),
      hydrate_mu_(std::move(other.hydrate_mu_)),
      values_(std::move(other.values_)) {}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this == &other) return *this;
  codes_ = std::move(other.codes_);
  hydrated_.store(other.hydrated_.load(std::memory_order_acquire),
                  std::memory_order_release);
  hydrate_mu_ = std::move(other.hydrate_mu_);
  values_ = std::move(other.values_);
  return *this;
}

Code Dictionary::Encode(const Value& v) {
  if (v.is_null()) return kNullCode;
  EnsureHydrated();
  auto it = codes_.find(v);
  if (it != codes_.end()) return it->second;
  assert(values_.size() < static_cast<size_t>(kAbsentCode));
  const Code code = static_cast<Code>(values_.size());
  values_.push_back(v);
  codes_.emplace(v, code);
  return code;
}

Code Dictionary::Lookup(const Value& v) const {
  if (v.is_null()) return kNullCode;
  EnsureHydrated();
  auto it = codes_.find(v);
  return it == codes_.end() ? kAbsentCode : it->second;
}

const Value& Dictionary::Decode(Code code) const {
  assert(Contains(code));
  return values_[code];
}

void Dictionary::Hydrate() const {
  codes_.reserve(values_.size() - 1);
  for (Code code = 1; code < values_.size(); ++code) {
    const bool fresh = codes_.emplace(values_[code], code).second;
    assert(fresh && "snapshot dictionary holds duplicate values");
    (void)fresh;
  }
  hydrated_ = true;
}

common::Result<Dictionary> Dictionary::FromDecodedValues(
    std::vector<Value> nonnull_values) {
  Dictionary dict;
  dict.values_.reserve(nonnull_values.size() + 1);
  for (Value& v : nonnull_values) {
    if (v.is_null()) {
      return common::Status::IoError(
          "corrupted dictionary blob: NULL among the non-NULL values");
    }
    dict.values_.push_back(std::move(v));
  }
  dict.hydrated_.store(false, std::memory_order_release);
  return dict;
}

}  // namespace semandaq::relational
