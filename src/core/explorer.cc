#include "core/explorer.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/simd/simd.h"
#include "detect/pattern_scan.h"
#include "relational/encoded_relation.h"

namespace semandaq::core {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Status;
using relational::Code;
using relational::kNullCode;
using relational::Row;
using relational::RowEq;
using relational::TupleId;
using relational::Value;

namespace simd = common::simd;

common::Status DataExplorer::CheckCfdIndex(int cfd_index) const {
  if (cfd_index < 0 || static_cast<size_t>(cfd_index) >= cfds_.size()) {
    return Status::OutOfRange("no CFD with index " + std::to_string(cfd_index));
  }
  if (!cfds_[static_cast<size_t>(cfd_index)].resolved()) {
    return Status::FailedPrecondition("CFD is not resolved against the schema");
  }
  return Status::OK();
}

common::Status DataExplorer::CheckPattern(int cfd_index, int pattern_index) const {
  SEMANDAQ_RETURN_IF_ERROR(CheckCfdIndex(cfd_index));
  const Cfd& c = cfds_[static_cast<size_t>(cfd_index)];
  if (pattern_index < 0 ||
      static_cast<size_t>(pattern_index) >= c.tableau().size()) {
    return Status::OutOfRange("no pattern with index " + std::to_string(pattern_index));
  }
  return Status::OK();
}

std::vector<uint64_t> DataExplorer::MatchMask(
    const std::vector<size_t>& cols, const std::vector<Code>& codes) const {
  const size_t bound = static_cast<size_t>(rel_->IdBound());
  std::vector<uint64_t> mask(simd::MaskWords(bound));
  const simd::Kernels& k = simd::KernelsFor();
  k.MaskLive(rel_->live_data(), nullptr, 0, kNullCode, bound, mask.data());
  if (cols.empty()) return mask;
  std::vector<const Code*> ptrs;
  ptrs.reserve(cols.size());
  for (size_t c : cols) ptrs.push_back(rel_->columns()[c].data());
  k.FilterEqMulti32(ptrs.data(), codes.data(), cols.size(), bound, mask.data());
  return mask;
}

std::vector<uint64_t> DataExplorer::PatternMask(const Cfd& c,
                                                const PatternTuple& pt) const {
  const std::optional<detect::CompiledPattern> cp =
      detect::CompilePattern(relational::EncodedRelation(rel_), c, pt);
  if (!cp) {
    return std::vector<uint64_t>(
        simd::MaskWords(static_cast<size_t>(rel_->IdBound())));
  }
  std::vector<size_t> cols;
  std::vector<Code> codes;
  for (const auto& [pos, code] : cp->lhs_consts) {
    cols.push_back(c.lhs_cols()[pos]);
    codes.push_back(code);
  }
  return MatchMask(cols, codes);
}

std::vector<uint64_t> DataExplorer::EqualMask(const std::vector<size_t>& cols,
                                              const Row& values) const {
  // Value equality on codes: NULL equals NULL (kNullCode), and a value
  // absent from the dictionary (kAbsentCode) equals no cell.
  std::vector<Code> codes;
  codes.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    codes.push_back(rel_->dictionaries()[cols[i]]->Lookup(values[i]));
  }
  return MatchMask(cols, codes);
}

common::Result<std::vector<DataExplorer::CfdEntry>> DataExplorer::ListCfds() const {
  std::vector<CfdEntry> out;
  for (size_t ci = 0; ci < cfds_.size(); ++ci) {
    const Cfd& c = cfds_[ci];
    if (!c.resolved()) {
      return Status::FailedPrecondition("CFD is not resolved: " + c.ToString());
    }
    CfdEntry entry;
    entry.cfd_index = static_cast<int>(ci);
    std::string lhs = "[";
    for (size_t i = 0; i < c.lhs_attrs().size(); ++i) {
      if (i > 0) lhs += ", ";
      lhs += c.lhs_attrs()[i];
    }
    entry.display = lhs + "] -> [" + c.rhs_attr() + "]";
    entry.num_patterns = c.tableau().size();
    // Violation mass attributable to this CFD: vio of every tuple whose
    // LHS matches some pattern of it.
    std::vector<uint64_t> any(simd::MaskWords(static_cast<size_t>(rel_->IdBound())));
    for (const PatternTuple& pt : c.tableau()) {
      const std::vector<uint64_t> mask = PatternMask(c, pt);
      for (size_t w = 0; w < any.size(); ++w) any[w] |= mask[w];
    }
    simd::ForEachSetBit(any.data(), any.size(), [&](size_t i) {
      entry.violation_count += table_.vio(static_cast<TupleId>(i));
    });
    out.push_back(std::move(entry));
  }
  return out;
}

common::Result<std::vector<DataExplorer::PatternEntry>> DataExplorer::PatternsOf(
    int cfd_index) const {
  SEMANDAQ_RETURN_IF_ERROR(CheckCfdIndex(cfd_index));
  const Cfd& c = cfds_[static_cast<size_t>(cfd_index)];
  std::vector<PatternEntry> out;
  for (size_t pi = 0; pi < c.tableau().size(); ++pi) {
    const PatternTuple& pt = c.tableau()[pi];
    PatternEntry entry;
    entry.pattern_index = static_cast<int>(pi);
    entry.display = pt.ToString();
    const std::vector<uint64_t> mask = PatternMask(c, pt);
    simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t i) {
      ++entry.matching_tuples;
      entry.violation_count += table_.vio(static_cast<TupleId>(i));
    });
    out.push_back(std::move(entry));
  }
  return out;
}

common::Result<std::vector<DataExplorer::LhsEntry>> DataExplorer::LhsMatches(
    int cfd_index, int pattern_index) const {
  SEMANDAQ_RETURN_IF_ERROR(CheckPattern(cfd_index, pattern_index));
  const Cfd& c = cfds_[static_cast<size_t>(cfd_index)];
  const PatternTuple& pt = c.tableau()[static_cast<size_t>(pattern_index)];

  // Tuples group by their LHS codes and count distinct RHS codes; only the
  // distinct keys are decoded.
  struct Acc {
    size_t tuples = 0;
    int64_t vio = 0;
    std::unordered_set<Code> rhs;
  };
  std::unordered_map<std::vector<Code>, Acc, relational::CodeVecHash> acc;
  const std::vector<uint64_t> mask = PatternMask(c, pt);
  const relational::EncodedRelation enc(rel_);
  std::vector<Code> key;
  simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t i) {
    const TupleId tid = static_cast<TupleId>(i);
    key.clear();
    for (size_t col : c.lhs_cols()) key.push_back(enc.code(tid, col));
    Acc& a = acc[key];
    ++a.tuples;
    a.vio += table_.vio(tid);
    a.rhs.insert(enc.code(tid, c.rhs_col()));
  });

  std::vector<LhsEntry> out;
  out.reserve(acc.size());
  for (auto& [codes, a] : acc) {
    LhsEntry e;
    e.lhs.reserve(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      e.lhs.push_back(enc.Decode(c.lhs_cols()[i], codes[i]));
    }
    e.tuple_count = a.tuples;
    e.distinct_rhs = a.rhs.size();
    e.violation_count = a.vio;
    out.push_back(std::move(e));
  }
  // Dirtiest first, then by key for determinism.
  std::sort(out.begin(), out.end(), [](const LhsEntry& a, const LhsEntry& b) {
    if (a.violation_count != b.violation_count) {
      return a.violation_count > b.violation_count;
    }
    const size_t n = std::min(a.lhs.size(), b.lhs.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = a.lhs[i].Compare(b.lhs[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return out;
}

common::Result<std::vector<DataExplorer::RhsEntry>> DataExplorer::RhsValues(
    int cfd_index, int pattern_index, const Row& lhs) const {
  SEMANDAQ_RETURN_IF_ERROR(CheckPattern(cfd_index, pattern_index));
  const Cfd& c = cfds_[static_cast<size_t>(cfd_index)];

  struct Acc {
    size_t tuples = 0;
    int64_t vio = 0;
  };
  std::unordered_map<Code, Acc> acc;
  const std::vector<uint64_t> mask = EqualMask(c.lhs_cols(), lhs);
  const relational::EncodedRelation enc(rel_);
  simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t i) {
    const TupleId tid = static_cast<TupleId>(i);
    Acc& a = acc[enc.code(tid, c.rhs_col())];
    ++a.tuples;
    a.vio += table_.vio(tid);
  });

  std::vector<RhsEntry> out;
  out.reserve(acc.size());
  for (auto& [code, a] : acc) {
    out.push_back(RhsEntry{enc.Decode(c.rhs_col(), code), a.tuples, a.vio});
  }
  std::sort(out.begin(), out.end(), [](const RhsEntry& a, const RhsEntry& b) {
    if (a.tuple_count != b.tuple_count) return a.tuple_count > b.tuple_count;
    return a.rhs.Compare(b.rhs) < 0;
  });
  return out;
}

common::Result<std::vector<TupleId>> DataExplorer::TuplesFor(
    int cfd_index, int pattern_index, const Row& lhs, const Value& rhs) const {
  SEMANDAQ_RETURN_IF_ERROR(CheckPattern(cfd_index, pattern_index));
  const Cfd& c = cfds_[static_cast<size_t>(cfd_index)];
  std::vector<size_t> cols = c.lhs_cols();
  cols.push_back(c.rhs_col());
  Row values(lhs.begin(), lhs.begin() + static_cast<std::ptrdiff_t>(c.lhs_cols().size()));
  values.push_back(rhs);
  const std::vector<uint64_t> mask = EqualMask(cols, values);
  std::vector<TupleId> out;
  simd::ForEachSetBit(mask.data(), mask.size(),
                      [&](size_t i) { out.push_back(static_cast<TupleId>(i)); });
  return out;
}

common::Result<std::vector<std::pair<int, int>>> DataExplorer::CfdsForTuple(
    TupleId tid) const {
  if (!rel_->IsLive(tid)) {
    return Status::OutOfRange("no live tuple with id " + std::to_string(tid));
  }
  const Row row = rel_->row(tid);
  std::vector<std::pair<int, int>> out;
  for (size_t ci = 0; ci < cfds_.size(); ++ci) {
    const Cfd& c = cfds_[ci];
    for (size_t pi = 0; pi < c.tableau().size(); ++pi) {
      const PatternTuple& pt = c.tableau()[pi];
      bool match = true;
      for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
        if (!pt.lhs[i].Matches(row[c.lhs_cols()[i]])) {
          match = false;
          break;
        }
      }
      if (match) out.emplace_back(static_cast<int>(ci), static_cast<int>(pi));
    }
  }
  return out;
}

std::string DataExplorer::RenderDrilldown(int cfd_index, int pattern_index,
                                          const Row& lhs) const {
  std::ostringstream out;
  auto cfds = ListCfds();
  if (!cfds.ok()) return "error: " + cfds.status().ToString();
  out << "-- CFDs --\n";
  for (const auto& e : *cfds) {
    out << (e.cfd_index == cfd_index ? " >" : "  ") << " #" << e.cfd_index << " "
        << e.display << "  patterns=" << e.num_patterns
        << " violations=" << e.violation_count << "\n";
  }

  auto patterns = PatternsOf(cfd_index);
  if (!patterns.ok()) return out.str() + "error: " + patterns.status().ToString();
  out << "-- pattern tuples --\n";
  for (const auto& e : *patterns) {
    out << (e.pattern_index == pattern_index ? " >" : "  ") << " " << e.display
        << "  matching=" << e.matching_tuples << " violations=" << e.violation_count
        << "\n";
  }

  auto matches = LhsMatches(cfd_index, pattern_index);
  if (!matches.ok()) return out.str() + "error: " + matches.status().ToString();
  out << "-- LHS matches --\n";
  for (const auto& e : *matches) {
    out << (RowEq{}(e.lhs, lhs) ? " >" : "  ") << " " << relational::RowToString(e.lhs)
        << "  tuples=" << e.tuple_count << " distinct_rhs=" << e.distinct_rhs
        << " violations=" << e.violation_count << "\n";
  }

  auto rhs = RhsValues(cfd_index, pattern_index, lhs);
  if (!rhs.ok()) return out.str() + "error: " + rhs.status().ToString();
  out << "-- RHS values for " << relational::RowToString(lhs) << " --\n";
  for (const auto& e : *rhs) {
    out << "   " << e.rhs.ToDisplayString() << "  tuples=" << e.tuple_count
        << " violations=" << e.violation_count << "\n";
  }
  return out.str();
}

}  // namespace semandaq::core
