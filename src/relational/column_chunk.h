#ifndef SEMANDAQ_RELATIONAL_COLUMN_CHUNK_H_
#define SEMANDAQ_RELATIONAL_COLUMN_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "relational/dictionary.h"

namespace semandaq::relational {

/// A refcounted, fixed-capacity block of column codes — the storage unit
/// behind CodeColumn and so behind the epoch-published relations of the
/// server layer (src/server). A chunk itself carries no length: the logical
/// size lives in every CodeColumn that references it, which is what makes
/// lock-free publication work:
///
///   * bytes below a published length are IMMUTABLE for the lifetime of the
///     chunk — every reader that pinned that length may scan them freely;
///   * the writer appends in place *beyond* the largest published length
///     (readers never look there), and re-publishes a larger length;
///   * rewriting an already-published index requires copy-on-write: clone
///     the chunk, edit the clone, publish the clone (CodeColumn::Set does
///     this automatically via its shared-prefix watermark).
///
/// Growth relocates into a fresh, larger chunk; pinned readers keep the old
/// one alive through their references, so relocation never invalidates a
/// published view. Allocation is eager and never reuses memory, so a code
/// pointer taken from a pinned view stays valid for the pin's lifetime.
class ColumnChunk {
 public:
  /// A fresh chunk of at least `capacity` codes (uninitialized).
  static std::shared_ptr<ColumnChunk> Allocate(size_t capacity);

  Code* data() { return data_.get(); }
  const Code* data() const { return data_.get(); }
  size_t capacity() const { return capacity_; }

 private:
  explicit ColumnChunk(size_t capacity)
      : data_(new Code[capacity]), capacity_(capacity) {}

  std::unique_ptr<Code[]> data_;
  size_t capacity_;
};

/// One column of codes over a refcounted ColumnChunk, with the mutation
/// discipline that makes shared chunks safe:
///
///   * appends (PushBack) write in place past the shared watermark —
///     zero-copy even while copies hold the chunk;
///   * overwrites below the watermark (Set, Assign) detach first —
///     copy-on-write, so no copy ever observes a change;
///   * a copy shares the chunk at its current size, and its bytes never
///     change.
///
/// The read surface (data/size/operator[]/begin/end) is a drop-in for the
/// flat std::vector<Code> columns it replaces — scans and SIMD kernels
/// still see one contiguous array.
///
/// Thread contract: all mutators are single-writer (the relation's writer
/// thread); copies may be read concurrently with writer appends because
/// appends never touch indices below a copy's size. Publication of a new
/// copy must happen through a release/acquire edge (the server publishes
/// whole snapshots via atomic shared_ptr swaps).
class CodeColumn {
 public:
  CodeColumn() = default;

  /// Copies share the chunk copy-on-write at O(1): both sides keep their
  /// bytes — any later overwrite on either side detaches first, and the
  /// copy never appends into the shared chunk (it does not own the tail) —
  /// so copying preserves plain value semantics. Copying marks the current
  /// size as shared, so the source's Set knows where in-place writes stop
  /// being safe.
  CodeColumn(const CodeColumn& other)
      : chunk_(other.chunk_),
        size_(other.size_),
        shared_below_(other.size_),
        owns_tail_(false) {
    other.MarkShared();
  }
  CodeColumn& operator=(const CodeColumn& other) {
    if (this != &other) *this = CodeColumn(other);
    return *this;
  }
  CodeColumn(CodeColumn&&) noexcept = default;
  CodeColumn& operator=(CodeColumn&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Code* data() const { return chunk_ ? chunk_->data() : nullptr; }
  Code operator[](size_t i) const { return chunk_->data()[i]; }
  const Code* begin() const { return data(); }
  const Code* end() const { return data() + size_; }

  /// Sets one code. Indices at or past the shared watermark write in
  /// place; below it the chunk is cloned first (COW), so copies keep their
  /// bytes.
  void Set(size_t i, Code c);

  /// Appends one code in place (grows the chunk when full; copies keep the
  /// old chunk alive and unchanged).
  void PushBack(Code c);

  /// Replaces the whole column with `n` codes memcpy'd from `src` (the
  /// storage loader's bulk adopt). Detaches from copies first.
  void Assign(const Code* src, size_t n);

  /// Number of CodeColumns sharing this chunk; 0 for an empty column.
  /// Exposed for tests asserting COW behavior.
  long chunk_use_count() const { return chunk_ ? chunk_.use_count() : 0; }

  friend bool operator==(const CodeColumn& a, const CodeColumn& b);
  friend bool operator!=(const CodeColumn& a, const CodeColumn& b) {
    return !(a == b);
  }

 private:
  /// Raises the shared watermark to the current size, writing only when it
  /// moves: readers copying an already shared column race on nothing.
  void MarkShared() const {
    if (shared_below_ != size_) shared_below_ = size_;
  }

  /// Relocates into a fresh chunk of at least `capacity`, copying the
  /// current prefix. The fresh chunk is unshared and fully owned.
  void Relocate(size_t capacity);

  /// Makes every index writable: adopts a sole-referenced chunk, clones a
  /// shared one (COW).
  void DetachIfShared();

  /// Makes in-place appends up to `capacity` codes safe: keeps a chunk
  /// whose tail this column owns, adopts a sole-referenced one, clones or
  /// grows otherwise.
  void EnsureWritableTail(size_t capacity);

  std::shared_ptr<ColumnChunk> chunk_;
  size_t size_ = 0;
  /// Indices below this may be referenced by copies of this column; writes
  /// there must detach. Appends at/after it are private to the writer
  /// until the next copy.
  mutable size_t shared_below_ = 0;
  /// True when this column may append into chunk_ in place past size_.
  /// Exactly one CodeColumn owns a chunk's tail: copies are created not
  /// owning it and relocate before their first append.
  bool owns_tail_ = true;
};

}  // namespace semandaq::relational

#endif  // SEMANDAQ_RELATIONAL_COLUMN_CHUNK_H_
