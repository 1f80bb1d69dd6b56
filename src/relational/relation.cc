#include "relational/relation.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace semandaq::relational {

Relation::Relation(const Relation& other) { *this = other; }

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  // The source's rows, build columns and hydration flag change together
  // under its hydrate mutex (HydrateRows fills the rows and may drop the
  // columns), so they are read under it too. An unhydrated source stays
  // unhydrated: the copy keeps the same frozen columns and decodes from
  // them independently, which keeps a clone of a lazily loaded epoch from
  // pinning a second decoded copy of its rows.
  {
    std::unique_lock<std::mutex> lock;
    if (other.hydrate_mu_ != nullptr) lock = std::unique_lock(*other.hydrate_mu_);
    rows_ = other.rows_;
    dicts_ = other.dicts_;
    columns_ = other.columns_;
    needs_hydration_.store(other.needs_hydration_.load(std::memory_order_acquire),
                           std::memory_order_release);
  }
  name_ = other.name_;
  schema_ = other.schema_;
  // A moved-from shell being reused as an assignment target lost its mutex.
  if (hydrate_mu_ == nullptr) hydrate_mu_ = std::make_unique<std::mutex>();
  live_ = other.live_;
  live_count_ = other.live_count_;
  version_ = other.version_;
  overwrite_version_ = other.overwrite_version_;
  // observer_ stays nullptr: a copy is a new, unwatched relation — a WAL
  // attachment must journal exactly the relation it was attached to.
  observer_ = nullptr;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      needs_hydration_(other.needs_hydration_.load(std::memory_order_acquire)),
      hydrate_mu_(std::move(other.hydrate_mu_)),
      live_(std::move(other.live_)),
      dicts_(std::move(other.dicts_)),
      columns_(std::move(other.columns_)),
      live_count_(other.live_count_),
      version_(other.version_),
      overwrite_version_(other.overwrite_version_),
      observer_(other.observer_) {
  other.observer_ = nullptr;
  // The moved-from shell has neither columns nor mutex left; make sure it
  // can never try to hydrate.
  other.needs_hydration_.store(false, std::memory_order_release);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  needs_hydration_.store(other.needs_hydration_.load(std::memory_order_acquire),
                         std::memory_order_release);
  hydrate_mu_ = std::move(other.hydrate_mu_);
  live_ = std::move(other.live_);
  dicts_ = std::move(other.dicts_);
  columns_ = std::move(other.columns_);
  live_count_ = other.live_count_;
  version_ = other.version_;
  overwrite_version_ = other.overwrite_version_;
  observer_ = other.observer_;
  other.observer_ = nullptr;
  other.needs_hydration_.store(false, std::memory_order_release);
  return *this;
}

Relation Relation::FromColumns(std::string name, Schema schema,
                               std::vector<uint8_t> live,
                               std::vector<std::shared_ptr<Dictionary>> dicts,
                               std::vector<CodeColumn> columns) {
  assert(dicts.size() == schema.size() && columns.size() == schema.size());
  Relation rel(std::move(name), std::move(schema));
  rel.rows_.resize(live.size());  // empty placeholders until hydration
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i] != 0) ++rel.live_count_;
  }
  rel.live_ = std::move(live);
  rel.dicts_ = std::move(dicts);
  rel.columns_.reserve(columns.size());
  for (const CodeColumn& col : columns) {
    assert(col.size() == rel.live_.size());
    rel.columns_.push_back(col.ShareFrozen());  // never written from here on
  }
  rel.needs_hydration_.store(true, std::memory_order_release);
  return rel;
}

void Relation::HydrateRows() const {
  // Appends may have grown the tail past the ids the columns cover; those
  // rows are materialized already. Dead ids keep empty placeholders.
  const size_t ncols = columns_.size();
  const size_t bound = ncols == 0 ? 0 : columns_[0].size();
  for (size_t tid = 0; tid < bound; ++tid) {
    if (live_[tid]) rows_[tid].resize(ncols);
  }
  for (size_t c = 0; c < ncols; ++c) {
    const Code* codes = columns_[c].data();
    const Dictionary& dict = *dicts_[c];
    for (size_t tid = 0; tid < bound; ++tid) {
      if (!live_[tid]) continue;
      const Code code = codes[tid];
      if (code != kNullCode) rows_[tid][c] = dict.Decode(code);
    }
  }
}

void Relation::ReleaseStaleColumns() const {
  if (version_ != 0 && !needs_hydration_.load(std::memory_order_acquire)) {
    dicts_.clear();
    columns_.clear();
  }
}

common::Result<TupleId> Relation::Insert(Row row) {
  if (row.size() != schema_.size()) {
    return common::Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema arity " +
        std::to_string(schema_.size()) + " of relation " + name_);
  }
  rows_.push_back(std::move(row));
  live_.push_back(1);
  ++live_count_;
  ++version_;
  ReleaseStaleColumns();
  const TupleId tid = static_cast<TupleId>(rows_.size() - 1);
  if (observer_ != nullptr) observer_->OnInsert(tid, rows_.back());
  return tid;
}

TupleId Relation::MustInsert(Row row) {
  auto r = Insert(std::move(row));
  assert(r.ok());
  return r.ok() ? *r : -1;
}

common::Status Relation::CheckLive(TupleId tid, std::string_view verb) const {
  if (!IsLive(tid)) {
    return common::Status::OutOfRange(std::string(verb) +
                                      " of dead or unknown tuple id " +
                                      std::to_string(tid) + " in " + name_);
  }
  return common::Status::OK();
}

common::Status Relation::CheckColumn(size_t col) const {
  if (col >= schema_.size()) {
    return common::Status::OutOfRange("column ordinal " + std::to_string(col) +
                                      " out of range in " + name_);
  }
  return common::Status::OK();
}

common::Status Relation::Delete(TupleId tid) {
  SEMANDAQ_RETURN_IF_ERROR(CheckLive(tid, "delete"));
  live_[static_cast<size_t>(tid)] = 0;
  --live_count_;
  ++version_;
  ReleaseStaleColumns();
  if (observer_ != nullptr) observer_->OnDelete(tid);
  return common::Status::OK();
}

common::Status Relation::SetCell(TupleId tid, size_t col, Value v) {
  SEMANDAQ_RETURN_IF_ERROR(CheckLive(tid, "update"));
  SEMANDAQ_RETURN_IF_ERROR(CheckColumn(col));
  EnsureHydrated();
  rows_[static_cast<size_t>(tid)][col] = std::move(v);
  ++version_;
  ++overwrite_version_;
  ReleaseStaleColumns();
  if (observer_ != nullptr) {
    observer_->OnSetCell(tid, col, rows_[static_cast<size_t>(tid)][col]);
  }
  return common::Status::OK();
}

const Row& Relation::row(TupleId tid) const {
  assert(IsLive(tid));
  EnsureHydrated();
  return rows_[static_cast<size_t>(tid)];
}

std::vector<TupleId> Relation::LiveIds() const {
  std::vector<TupleId> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i]) out.push_back(static_cast<TupleId>(i));
  }
  return out;
}

Row Relation::Project(TupleId tid, const std::vector<size_t>& cols) const {
  const Row& r = row(tid);
  Row out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(r[c]);
  return out;
}

std::string Relation::ToAsciiTable(size_t max_rows) const {
  EnsureHydrated();
  std::vector<std::string> headers = schema_.Names();
  std::vector<size_t> widths;
  widths.reserve(headers.size());
  for (const auto& h : headers) widths.push_back(h.size());

  std::vector<std::vector<std::string>> cells;
  size_t shown = 0;
  for (size_t i = 0; i < rows_.size() && shown < max_rows; ++i) {
    if (!live_[i]) continue;
    std::vector<std::string> line;
    line.reserve(headers.size());
    for (size_t c = 0; c < headers.size(); ++c) {
      line.push_back(rows_[i][c].ToDisplayString());
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
    ++shown;
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& line) {
    out << "|";
    for (size_t c = 0; c < line.size(); ++c) {
      out << " " << line[c] << std::string(widths[c] - line[c].size(), ' ') << " |";
    }
    out << "\n";
  };
  auto emit_rule = [&]() {
    out << "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << "+";
    }
    out << "\n";
  };
  emit_rule();
  emit_row(headers);
  emit_rule();
  for (const auto& line : cells) emit_row(line);
  emit_rule();
  if (size() > shown) {
    out << "... " << (size() - shown) << " more tuple(s)\n";
  }
  return out.str();
}

}  // namespace semandaq::relational
