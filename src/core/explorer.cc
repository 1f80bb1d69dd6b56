#include "core/explorer.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace semandaq::core {

using cfd::Cfd;
using cfd::PatternTuple;
using common::Status;
using relational::Row;
using relational::RowEq;
using relational::RowHash;
using relational::TupleId;
using relational::Value;

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
    rel_->ForEach([&](TupleId tid, const Row& row) {
      for (const PatternTuple& pt : c.tableau()) {
        bool match = true;
        for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
          if (!pt.lhs[i].Matches(row[c.lhs_cols()[i]])) {
            match = false;
            break;
          }
        }
        if (match) {
          entry.violation_count += table_.vio(tid);
          return;
        }
      }
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
    rel_->ForEach([&](TupleId tid, const Row& row) {
      for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
        if (!pt.lhs[i].Matches(row[c.lhs_cols()[i]])) return;
      }
      ++entry.matching_tuples;
      entry.violation_count += table_.vio(tid);
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

  struct Acc {
    size_t tuples = 0;
    int64_t vio = 0;
    std::unordered_map<Value, size_t, relational::ValueHash> rhs;
  };
  std::unordered_map<Row, Acc, RowHash, RowEq> acc;
  rel_->ForEach([&](TupleId tid, const Row& row) {
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (!pt.lhs[i].Matches(row[c.lhs_cols()[i]])) return;
    }
    Row key;
    key.reserve(c.lhs_cols().size());
    for (size_t col : c.lhs_cols()) key.push_back(row[col]);
    Acc& a = acc[std::move(key)];
    ++a.tuples;
    a.vio += table_.vio(tid);
    ++a.rhs[row[c.rhs_col()]];
  });

  std::vector<LhsEntry> out;
  out.reserve(acc.size());
  for (auto& [key, a] : acc) {
    LhsEntry e;
    e.lhs = key;
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
  std::unordered_map<Value, Acc, relational::ValueHash> acc;
  rel_->ForEach([&](TupleId tid, const Row& row) {
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (!(row[c.lhs_cols()[i]] == lhs[i])) return;
    }
    Acc& a = acc[row[c.rhs_col()]];
    ++a.tuples;
    a.vio += table_.vio(tid);
  });

  std::vector<RhsEntry> out;
  out.reserve(acc.size());
  for (auto& [v, a] : acc) {
    out.push_back(RhsEntry{v, a.tuples, a.vio});
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
  std::vector<TupleId> out;
  rel_->ForEach([&](TupleId tid, const Row& row) {
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (!(row[c.lhs_cols()[i]] == lhs[i])) return;
    }
    if (!(row[c.rhs_col()] == rhs)) return;
    out.push_back(tid);
  });
  return out;
}

common::Result<std::vector<std::pair<int, int>>> DataExplorer::CfdsForTuple(
    TupleId tid) const {
  if (!rel_->IsLive(tid)) {
    return Status::OutOfRange("no live tuple with id " + std::to_string(tid));
  }
  const Row& row = rel_->row(tid);
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
