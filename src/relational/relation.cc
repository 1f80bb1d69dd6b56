#include "relational/relation.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

namespace semandaq::relational {

Relation::Relation(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  dicts_.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    dicts_.push_back(std::make_shared<Dictionary>());
  }
  columns_.resize(schema_.size());
}

Relation::Relation(const Relation& other)
    : name_(other.name_),
      schema_(other.schema_),
      dicts_(other.dicts_),
      columns_(other.columns_),
      live_(other.live_),
      live_count_(other.live_count_),
      version_(other.version_),
      overwrite_version_(other.overwrite_version_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      dicts_(std::move(other.dicts_)),
      columns_(std::move(other.columns_)),
      live_(std::move(other.live_)),
      live_count_(other.live_count_),
      version_(other.version_),
      overwrite_version_(other.overwrite_version_),
      observer_(std::exchange(other.observer_, nullptr)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  dicts_ = std::move(other.dicts_);
  columns_ = std::move(other.columns_);
  live_ = std::move(other.live_);
  live_count_ = other.live_count_;
  version_ = other.version_;
  overwrite_version_ = other.overwrite_version_;
  observer_ = std::exchange(other.observer_, nullptr);
  return *this;
}

Relation Relation::FromColumns(std::string name, Schema schema,
                               std::vector<uint8_t> live,
                               std::vector<std::shared_ptr<Dictionary>> dicts,
                               std::vector<CodeColumn> columns) {
  assert(dicts.size() == schema.size() && columns.size() == schema.size());
  Relation rel;
  rel.name_ = std::move(name);
  rel.schema_ = std::move(schema);
  for (uint8_t b : live) {
    if (b != 0) ++rel.live_count_;
  }
  for (const CodeColumn& col : columns) {
    assert(col.size() == live.size());
    (void)col;
  }
  rel.live_ = std::move(live);
  rel.dicts_ = std::move(dicts);
  rel.columns_ = std::move(columns);
  return rel;
}

Code Relation::EncodeCell(size_t col, const Value& v) {
  std::shared_ptr<Dictionary>& dict = dicts_[col];
  if (dict.use_count() > 1) {
    // Shared with a copy or an epoch: a held value (and NULL) needs no
    // write; a new one goes into a private copy.
    const Code code = dict->Lookup(v);
    if (code != kAbsentCode) return code;
    dict = std::make_shared<Dictionary>(*dict);
  }
  return dict->Encode(v);
}

Code Relation::Intern(size_t col, const Value& v) {
  assert(col < columns_.size());
  return EncodeCell(col, v);
}

common::Result<TupleId> Relation::Insert(Row row) {
  if (row.size() != schema_.size()) {
    return common::Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema arity " +
        std::to_string(schema_.size()) + " of relation " + name_);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].PushBack(EncodeCell(c, row[c]));
  }
  live_.push_back(1);
  ++live_count_;
  ++version_;
  const TupleId tid = IdBound() - 1;
  if (observer_ != nullptr) observer_->OnInsert(tid, row);
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
  if (observer_ != nullptr) observer_->OnDelete(tid);
  return common::Status::OK();
}

common::Status Relation::SetCell(TupleId tid, size_t col, Value v) {
  SEMANDAQ_RETURN_IF_ERROR(CheckLive(tid, "update"));
  SEMANDAQ_RETURN_IF_ERROR(CheckColumn(col));
  columns_[col].Set(static_cast<size_t>(tid), EncodeCell(col, v));
  ++version_;
  ++overwrite_version_;
  if (observer_ != nullptr) observer_->OnSetCell(tid, col, v);
  return common::Status::OK();
}

Row Relation::row(TupleId tid) const {
  assert(IsLive(tid));
  Row out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out.push_back(cell(tid, c));
  return out;
}

std::vector<TupleId> Relation::LiveIds() const {
  std::vector<TupleId> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i]) out.push_back(static_cast<TupleId>(i));
  }
  return out;
}

Row Relation::Project(TupleId tid, const std::vector<size_t>& cols) const {
  assert(IsLive(tid));
  Row out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(cell(tid, c));
  return out;
}

std::string Relation::ToAsciiTable(size_t max_rows) const {
  std::vector<std::string> headers = schema_.Names();
  std::vector<size_t> widths;
  widths.reserve(headers.size());
  for (const auto& h : headers) widths.push_back(h.size());

  std::vector<std::vector<std::string>> cells;
  size_t shown = 0;
  for (size_t i = 0; i < live_.size() && shown < max_rows; ++i) {
    if (!live_[i]) continue;
    std::vector<std::string> line;
    line.reserve(headers.size());
    for (size_t c = 0; c < headers.size(); ++c) {
      line.push_back(cell(static_cast<TupleId>(i), c).ToDisplayString());
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
