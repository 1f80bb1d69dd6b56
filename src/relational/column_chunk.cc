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
  chunk_ = std::move(fresh);  // frozen shares keep the old chunk alive
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

void CodeColumn::ExtendFill(size_t n, Code fill) {
  if (n <= size_) return;
  EnsureWritableTail(n);
  std::fill(chunk_->data() + size_, chunk_->data() + n, fill);
  size_ = n;
}

void CodeColumn::AssignFill(size_t n, Code fill) {
  if (chunk_ == nullptr || n > chunk_->capacity() || chunk_.use_count() > 1) {
    chunk_ = ColumnChunk::Allocate(n);
  }
  shared_below_ = 0;
  owns_tail_ = true;
  std::fill(chunk_->data(), chunk_->data() + n, fill);
  size_ = n;
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

CodeColumn CodeColumn::ShareFrozen() const {
  CodeColumn view;
  view.chunk_ = chunk_;
  view.size_ = size_;
  view.shared_below_ = size_;  // the view itself must never write at all
  view.owns_tail_ = false;
  MarkShared();  // writer overwrites below here must detach
  return view;
}

bool operator==(const CodeColumn& a, const CodeColumn& b) {
  if (a.size_ != b.size_) return false;
  if (a.size_ == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size_ * sizeof(Code)) == 0;
}

}  // namespace semandaq::relational
