#include "relational/column_chunk.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace semandaq::relational {

namespace {

/// Fresh chunks start at this many codes so append-heavy workloads do not
/// relocate constantly at small sizes.
constexpr size_t kMinChunkCapacity = 1024;

}  // namespace

std::shared_ptr<ColumnChunk> ColumnChunk::Allocate(size_t capacity) {
  return std::shared_ptr<ColumnChunk>(
      new ColumnChunk(std::max(capacity, kMinChunkCapacity)));
}

void CodeColumn::Relocate(size_t capacity) {
  std::shared_ptr<ColumnChunk> fresh = ColumnChunk::Allocate(capacity);
  if (size_ > 0) {
    std::memcpy(fresh->data(), chunk_->data(), size_ * sizeof(Code));
  }
  chunk_ = std::move(fresh);  // copies keep the old chunk alive
  shared_below_ = 0;
  owns_tail_ = true;
}

void CodeColumn::DetachIfShared() {
  if (chunk_ != nullptr && chunk_.use_count() > 1) {
    Relocate(chunk_->capacity());
  } else {
    // Sole reference: adopt the chunk outright, every index is private.
    shared_below_ = 0;
    owns_tail_ = true;
  }
}

void CodeColumn::EnsureWritableTail(size_t capacity) {
  if (chunk_ != nullptr && owns_tail_ && capacity <= chunk_->capacity()) {
    return;
  }
  if (chunk_ != nullptr && chunk_.use_count() == 1 &&
      capacity <= chunk_->capacity()) {
    shared_below_ = 0;  // sole reference: adopt instead of copying
    owns_tail_ = true;
    return;
  }
  Relocate(std::max(capacity, size_ * 2));
}

void CodeColumn::Set(size_t i, Code c) {
  assert(i < size_);
  if (i < shared_below_) DetachIfShared();
  chunk_->data()[i] = c;
}

void CodeColumn::PushBack(Code c) {
  EnsureWritableTail(size_ + 1);
  chunk_->data()[size_++] = c;
}

void CodeColumn::Assign(const Code* src, size_t n) {
  if (chunk_ == nullptr || n > chunk_->capacity() || chunk_.use_count() > 1) {
    chunk_ = ColumnChunk::Allocate(n);
  }
  shared_below_ = 0;
  owns_tail_ = true;
  if (n > 0) std::memcpy(chunk_->data(), src, n * sizeof(Code));
  size_ = n;
}

bool operator==(const CodeColumn& a, const CodeColumn& b) {
  if (a.size_ != b.size_) return false;
  if (a.size_ == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size_ * sizeof(Code)) == 0;
}

}  // namespace semandaq::relational
