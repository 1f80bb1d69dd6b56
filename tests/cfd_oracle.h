#ifndef SEMANDAQ_TESTS_CFD_ORACLE_H_
#define SEMANDAQ_TESTS_CFD_ORACLE_H_

// A definition-level reference for the CFD engines. Every answer here is
// computed straight from the semantics the engines document — CFD
// satisfaction and violation (Fan et al. [TODS'08], restated in
// native_detector.h and violation.h), the data auditor's grades
// (audit/metrics.h), FD validity and minimality, the CTANE-style candidate
// rules of cfd_miner.h, and the repair post-conditions — by looking at
// pairs of live tuples with Value ==.
//
// It is naive on purpose: quadratic, no hashing, no dictionary codes. It
// uses the data model only (Relation, Value, Cfd::Resolve,
// PatternValue::Matches, and audit::AuditOutcome as a plain result type)
// and none of the engine code it judges
// (GroupByEmbeddedFd, CompilePattern, Partition, the SIMD kernels), so an
// engine bug cannot cancel out against itself.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/metrics.h"
#include "cfd/cfd.h"
#include "common/string_util.h"
#include "detect/violation.h"
#include "discovery/cfd_miner.h"
#include "discovery/fd_miner.h"
#include "relational/relation.h"
#include "repair/batch_repair.h"

namespace semandaq::oracle {

using relational::Relation;
using relational::Row;
using relational::TupleId;
using relational::Value;

using Single = std::tuple<TupleId, int, int>;           // (tid, cfd, pattern)
using Group = std::pair<int, std::vector<TupleId>>;     // (fd group, members)

/// Everything detection must report, in canonical (sorted) form.
struct Detection {
  std::vector<int64_t> vio;    // indexed by tuple id, size IdBound()
  std::vector<Single> singles;  // sorted
  std::vector<Group> groups;    // sorted; members ascending
};

inline std::vector<TupleId> LiveTuples(const Relation& rel) {
  std::vector<TupleId> out;
  for (TupleId t = 0; t < rel.IdBound(); ++t) {
    if (rel.IsLive(t)) out.push_back(t);
  }
  return out;
}

inline bool LhsMatches(const cfd::Cfd& c, const cfd::PatternTuple& pt,
                       const Row& row) {
  for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
    if (!pt.lhs[i].Matches(row[c.lhs_cols()[i]])) return false;
  }
  return true;
}

/// The embedded-FD groups of resolved CFDs: CFDs with the same relation,
/// the same LHS list in the same order and the same RHS, in order of first
/// appearance.
inline std::vector<std::vector<size_t>> EmbeddedFds(
    const std::vector<cfd::Cfd>& cfds) {
  auto same_fd = [&](const cfd::Cfd& x, const cfd::Cfd& y) {
    return common::ToLower(x.relation()) == common::ToLower(y.relation()) &&
           x.lhs_cols() == y.lhs_cols() && x.rhs_col() == y.rhs_col();
  };
  std::vector<std::vector<size_t>> fd_groups;
  for (size_t ci = 0; ci < cfds.size(); ++ci) {
    auto it = std::find_if(fd_groups.begin(), fd_groups.end(),
                           [&](const std::vector<size_t>& g) {
                             return same_fd(cfds[g.front()], cfds[ci]);
                           });
    if (it == fd_groups.end()) {
      fd_groups.push_back({ci});
    } else {
      it->push_back(ci);
    }
  }
  return fd_groups;
}

/// Detection from the definitions:
///  * a live tuple matching a constant-RHS row's LHS whose RHS is non-NULL
///    and differs from the constant is a single-tuple violation; each
///    (tuple, CFD) pair adds 1 to vio once;
///  * CFDs with the same relation, the same LHS list in the same order and
///    the same RHS form one embedded-FD group, numbered by first
///    appearance; the tuples matching any of a group's wildcard-RHS rows
///    with no NULL LHS cell are bucketed by equal LHS values, and a bucket
///    with >= 2 distinct non-NULL RHS values is a violation group whose
///    members each gain the number of members whose RHS differs.
inline Detection Detect(const Relation& rel, std::vector<cfd::Cfd> cfds) {
  Detection d;
  d.vio.assign(static_cast<size_t>(rel.IdBound()), 0);
  for (cfd::Cfd& c : cfds) {
    if (!c.Resolve(rel.schema()).ok()) return d;
  }
  const std::vector<TupleId> live = LiveTuples(rel);

  for (size_t ci = 0; ci < cfds.size(); ++ci) {
    const cfd::Cfd& c = cfds[ci];
    for (TupleId t : live) {
      const Row& row = rel.row(t);
      const Value& a = row[c.rhs_col()];
      bool flagged = false;
      for (size_t pi = 0; pi < c.tableau().size(); ++pi) {
        const cfd::PatternTuple& pt = c.tableau()[pi];
        if (!pt.is_constant_rhs() || !LhsMatches(c, pt, row)) continue;
        if (a.is_null() || a == pt.rhs.constant()) continue;
        d.singles.emplace_back(t, static_cast<int>(ci), static_cast<int>(pi));
        flagged = true;
      }
      if (flagged) ++d.vio[static_cast<size_t>(t)];
    }
  }

  const std::vector<std::vector<size_t>> fd_groups = EmbeddedFds(cfds);
  for (size_t gi = 0; gi < fd_groups.size(); ++gi) {
    const cfd::Cfd& first = cfds[fd_groups[gi].front()];
    std::vector<std::pair<Row, std::vector<TupleId>>> buckets;
    for (TupleId t : live) {
      const Row& row = rel.row(t);
      bool in_scope = false;
      for (size_t ci : fd_groups[gi]) {
        for (const cfd::PatternTuple& pt : cfds[ci].tableau()) {
          if (!pt.is_constant_rhs() && LhsMatches(cfds[ci], pt, row)) in_scope = true;
        }
      }
      if (!in_scope) continue;
      Row key;
      for (size_t col : first.lhs_cols()) key.push_back(row[col]);
      if (std::any_of(key.begin(), key.end(),
                      [](const Value& v) { return v.is_null(); })) {
        continue;
      }
      auto it = std::find_if(buckets.begin(), buckets.end(),
                             [&](const auto& b) { return b.first == key; });
      if (it == buckets.end()) {
        buckets.emplace_back(std::move(key), std::vector<TupleId>{t});
      } else {
        it->second.push_back(t);
      }
    }
    const size_t rhs = first.rhs_col();
    for (const auto& [key, members] : buckets) {
      // Each RHS value (NULL included) with the number of members carrying it.
      std::vector<std::pair<Value, int64_t>> counts;
      for (TupleId m : members) {
        const Value& v = rel.cell(m, rhs);
        auto it = std::find_if(counts.begin(), counts.end(),
                               [&](const auto& c) { return c.first == v; });
        if (it == counts.end()) {
          counts.emplace_back(v, 1);
        } else {
          ++it->second;
        }
      }
      const auto non_null =
          std::count_if(counts.begin(), counts.end(),
                        [](const auto& c) { return !c.first.is_null(); });
      if (non_null < 2) continue;
      for (TupleId m : members) {
        for (const auto& [v, n] : counts) {
          if (!(v == rel.cell(m, rhs))) d.vio[static_cast<size_t>(m)] += n;
        }
      }
      d.groups.emplace_back(static_cast<int>(gi), members);
    }
  }
  std::sort(d.singles.begin(), d.singles.end());
  std::sort(d.groups.begin(), d.groups.end());
  return d;
}

/// Where `table` departs from the oracle's detection `want`; empty when
/// they agree on every vio(t), the single set and the group set.
inline std::string DetectionDiff(const Detection& want,
                                 const detect::ViolationTable& table) {
  std::ostringstream out;
  int64_t total = 0;
  size_t violating = 0;
  for (size_t t = 0; t < want.vio.size(); ++t) {
    const int64_t v = want.vio[t];
    total += v;
    if (v > 0) ++violating;
    const auto tid = static_cast<TupleId>(t);
    if (table.vio(tid) != v) {
      out << "vio(" << t << ") = " << table.vio(tid) << ", want " << v << "\n";
    }
  }
  if (table.TotalVio() != total) {
    out << "TotalVio " << table.TotalVio() << ", want " << total << "\n";
  }
  if (table.NumViolatingTuples() != violating) {
    out << "NumViolatingTuples " << table.NumViolatingTuples() << ", want "
        << violating << "\n";
  }
  std::vector<Single> singles;
  for (const detect::SingleViolation& s : table.singles()) {
    singles.emplace_back(s.tid, s.cfd_index, s.pattern_index);
  }
  std::sort(singles.begin(), singles.end());
  if (singles != want.singles) {
    out << "singles: " << singles.size() << " reported, " << want.singles.size()
        << " wanted\n";
  }
  std::vector<Group> groups;
  for (const detect::ViolationGroup& g : table.groups()) {
    std::vector<TupleId> members = g.members;
    std::sort(members.begin(), members.end());
    groups.emplace_back(g.fd_group, std::move(members));
  }
  std::sort(groups.begin(), groups.end());
  if (groups != want.groups) {
    out << "groups: " << groups.size() << " reported, " << want.groups.size()
        << " wanted\n";
  }
  return out.str();
}

inline std::string DetectionDiff(const Relation& rel,
                                 const std::vector<cfd::Cfd>& cfds,
                                 const detect::ViolationTable& table) {
  return DetectionDiff(Detect(rel, cfds), table);
}

/// How a detection implicates one cell.
struct Implication {
  bool single = false;  ///< by a single-tuple violation
  int majority = 0;     ///< groups in whose strict majority the cell is
  int minority = 0;     ///< groups in which it is not
};

/// Per live cell ([tid][col]), the violations of `d` that implicate it:
/// a single-tuple violation implicates the tuple's RHS cell and every cell
/// under a constant LHS entry of the violated row; a violation group
/// implicates each member's RHS cell, as a majority member when strictly
/// more than half of the group holds an equal RHS value (two NULLs are
/// equal). `cfds` must be resolved.
inline std::vector<std::vector<Implication>> Implications(
    const Relation& rel, const std::vector<cfd::Cfd>& cfds,
    const Detection& d) {
  std::vector<std::vector<Implication>> cells(
      static_cast<size_t>(rel.IdBound()),
      std::vector<Implication>(rel.schema().size()));
  for (const auto& [t, ci, pi] : d.singles) {
    const cfd::Cfd& c = cfds[static_cast<size_t>(ci)];
    const cfd::PatternTuple& pt = c.tableau()[static_cast<size_t>(pi)];
    auto& row = cells[static_cast<size_t>(t)];
    row[c.rhs_col()].single = true;
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (pt.lhs[i].is_constant()) row[c.lhs_cols()[i]].single = true;
    }
  }
  const std::vector<std::vector<size_t>> fd_groups = EmbeddedFds(cfds);
  for (const auto& [gi, members] : d.groups) {
    const size_t rhs = cfds[fd_groups[static_cast<size_t>(gi)].front()].rhs_col();
    std::vector<std::pair<Value, size_t>> counts;  // RHS value, members holding it
    for (TupleId m : members) {
      const Value& v = rel.cell(m, rhs);
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&](const auto& c) { return c.first == v; });
      if (it == counts.end()) {
        counts.emplace_back(v, 1);
      } else {
        ++it->second;
      }
    }
    for (TupleId m : members) {
      const Value& v = rel.cell(m, rhs);
      const size_t same = std::find_if(counts.begin(), counts.end(), [&](const auto& c) {
                            return c.first == v;
                          })->second;
      Implication& cell = cells[static_cast<size_t>(m)][rhs];
      if (2 * same > members.size()) {
        ++cell.majority;
      } else {
        ++cell.minority;
      }
    }
  }
  return cells;
}

/// The data auditor's outcome from the definitions (audit/metrics.h), on
/// the oracle's own detection and Value compares:
///  * a constant-RHS row confirms a live tuple whose cells match its LHS
///    and equal its RHS constant (a NULL cell matches no constant), and
///    with it the tuple's RHS cell and its cells under constant LHS
///    entries;
///  * a cell is dirty when some violation implicates it other than as a
///    majority member (Implications), arguably clean when every one that
///    implicates it is a group in whose strict majority it is, verified
///    clean when none implicates it and some row confirms it, and
///    probably clean otherwise;
///  * a tuple with vio(t) = 0 is verified clean when some row confirms it
///    and probably clean otherwise; a violating tuple is arguably clean
///    when it is in no single-tuple violation and in the strict majority of
///    every group that holds it, and dirty otherwise. Dead and unknown ids
///    read probably clean.
inline audit::AuditOutcome Audit(const Relation& rel, std::vector<cfd::Cfd> cfds) {
  using audit::CleanGrade;
  audit::AuditOutcome out;
  for (cfd::Cfd& c : cfds) {
    if (!c.Resolve(rel.schema()).ok()) return out;
  }
  const Detection d = Detect(rel, cfds);
  const auto cells = Implications(rel, cfds, d);
  const size_t ncols = rel.schema().size();
  const size_t bound = static_cast<size_t>(rel.IdBound());
  out.attr_stats.resize(ncols);
  out.tuple_grades.assign(bound, CleanGrade::kProbablyClean);

  std::vector<bool> confirmed(bound, false);
  std::vector<std::vector<bool>> confirmed_cell(bound, std::vector<bool>(ncols, false));
  for (TupleId t : LiveTuples(rel)) {
    const Row& row = rel.row(t);
    for (const cfd::Cfd& c : cfds) {
      for (const cfd::PatternTuple& pt : c.tableau()) {
        if (!pt.is_constant_rhs() || !LhsMatches(c, pt, row)) continue;
        const Value& a = row[c.rhs_col()];
        if (a.is_null() || !(a == pt.rhs.constant())) continue;
        const auto i = static_cast<size_t>(t);
        confirmed[i] = true;
        confirmed_cell[i][c.rhs_col()] = true;
        for (size_t k = 0; k < c.lhs_cols().size(); ++k) {
          if (pt.lhs[k].is_constant()) confirmed_cell[i][c.lhs_cols()[k]] = true;
        }
      }
    }
  }

  std::vector<bool> single(bound, false);
  for (const auto& s : d.singles) single[static_cast<size_t>(std::get<0>(s))] = true;
  int64_t sum_vio = 0;
  size_t violating = 0;
  for (TupleId t : LiveTuples(rel)) {
    const auto i = static_cast<size_t>(t);
    const int64_t vio = d.vio[i];
    bool multi = false;
    bool minority = false;
    for (const Implication& cell : cells[i]) {
      multi = multi || cell.majority + cell.minority > 0;
      minority = minority || cell.minority > 0;
    }
    CleanGrade grade = CleanGrade::kDirty;
    if (vio == 0) {
      grade = confirmed[i] ? CleanGrade::kVerifiedClean : CleanGrade::kProbablyClean;
    } else if (!single[i] && multi && !minority) {
      grade = CleanGrade::kArguablyClean;
    }
    out.tuple_grades[i] = grade;
    ++out.num_tuples;
    ++out.tuple_counts[static_cast<size_t>(grade)];
    if (vio == 0) {
      ++out.tuples_clean;
    } else if (single[i] && multi) {
      ++out.tuples_both;
    } else if (single[i]) {
      ++out.tuples_single_only;
    } else {
      ++out.tuples_multi_only;
    }
    if (vio > 0) {
      sum_vio += vio;
      ++violating;
      out.max_vio = std::max(out.max_vio, vio);
      out.min_vio_nonzero = out.min_vio_nonzero == 0 ? vio : std::min(out.min_vio_nonzero, vio);
    }
    for (size_t c = 0; c < ncols; ++c) {
      const Implication& cell = cells[i][c];
      CleanGrade g = CleanGrade::kProbablyClean;
      if (cell.single || cell.minority > 0) {
        g = CleanGrade::kDirty;
      } else if (cell.majority > 0) {
        g = CleanGrade::kArguablyClean;
      } else if (confirmed_cell[i][c]) {
        g = CleanGrade::kVerifiedClean;
      }
      ++out.attr_stats[c].counts[static_cast<size_t>(g)];
    }
  }
  out.total_vio = sum_vio;
  out.avg_vio_violating =
      violating == 0 ? 0 : static_cast<double>(sum_vio) / static_cast<double>(violating);

  for (const auto& [gi, members] : d.groups) {
    const size_t n = members.size();
    ++out.num_groups;
    out.max_group_size = std::max(out.max_group_size, n);
    out.min_group_size = out.min_group_size == 0 ? n : std::min(out.min_group_size, n);
    out.avg_group_size += static_cast<double>(n);
  }
  if (out.num_groups > 0) out.avg_group_size /= static_cast<double>(out.num_groups);
  return out;
}

/// Where the auditor's `got` departs from the oracle's `want`: every tuple
/// grade through GradeOf over [0, `bound`] (an id past the oracle's grades
/// is probably clean), then every other field.
inline std::string AuditDiff(const audit::AuditOutcome& want,
                             const audit::AuditOutcome& got, TupleId bound) {
  std::ostringstream out;
  for (TupleId t = 0; t <= bound; ++t) {
    const auto i = static_cast<size_t>(t);
    const audit::CleanGrade w = i < want.tuple_grades.size()
                                    ? want.tuple_grades[i]
                                    : audit::CleanGrade::kProbablyClean;
    if (got.GradeOf(t) != w) {
      out << "grade(" << t << ") = " << audit::CleanGradeToString(got.GradeOf(t))
          << ", want " << audit::CleanGradeToString(w) << "\n";
    }
  }
  const auto field = [&](const char* name, auto g, auto w) {
    if (!(g == w)) out << name << " = " << g << ", want " << w << "\n";
  };
  field("num_tuples", got.num_tuples, want.num_tuples);
  for (size_t k = 0; k < 4; ++k) {
    field("tuple_counts", got.tuple_counts[k], want.tuple_counts[k]);
  }
  field("attr_stats.size", got.attr_stats.size(), want.attr_stats.size());
  for (size_t c = 0; c < std::min(got.attr_stats.size(), want.attr_stats.size()); ++c) {
    for (size_t k = 0; k < 4; ++k) {
      if (got.attr_stats[c].counts[k] != want.attr_stats[c].counts[k]) {
        out << "attr_stats[" << c << "][" << audit::CleanGradeToString(
                                                  static_cast<audit::CleanGrade>(k))
            << "] = " << got.attr_stats[c].counts[k] << ", want "
            << want.attr_stats[c].counts[k] << "\n";
      }
    }
  }
  field("total_vio", got.total_vio, want.total_vio);
  field("max_vio", got.max_vio, want.max_vio);
  field("min_vio_nonzero", got.min_vio_nonzero, want.min_vio_nonzero);
  field("avg_vio_violating", got.avg_vio_violating, want.avg_vio_violating);
  field("tuples_clean", got.tuples_clean, want.tuples_clean);
  field("tuples_single_only", got.tuples_single_only, want.tuples_single_only);
  field("tuples_multi_only", got.tuples_multi_only, want.tuples_multi_only);
  field("tuples_both", got.tuples_both, want.tuples_both);
  field("num_groups", got.num_groups, want.num_groups);
  field("max_group_size", got.max_group_size, want.max_group_size);
  field("min_group_size", got.min_group_size, want.min_group_size);
  field("avg_group_size", got.avg_group_size, want.avg_group_size);
  return out.str();
}

/// Π_X from the definition: the live tuples with no NULL in `cols`,
/// grouped by equal values there. Classes hold ascending tuple ids and are
/// ordered by their first member; singletons included.
inline std::vector<std::vector<TupleId>> PartitionClasses(
    const Relation& rel, const std::vector<size_t>& cols) {
  std::vector<std::vector<TupleId>> classes;
  auto agree = [&](TupleId a, TupleId b) {
    for (size_t c : cols) {
      if (!(rel.cell(a, c) == rel.cell(b, c))) return false;
    }
    return true;
  };
  for (TupleId t : LiveTuples(rel)) {
    if (std::any_of(cols.begin(), cols.end(),
                    [&](size_t c) { return rel.cell(t, c).is_null(); })) {
      continue;
    }
    auto it = std::find_if(classes.begin(), classes.end(),
                           [&](const auto& cls) { return agree(cls.front(), t); });
    if (it == classes.end()) {
      classes.push_back({t});
    } else {
      it->push_back(t);
    }
  }
  return classes;
}

/// Pairwise agreement of the live tuples. For every unordered pair, bit c
/// of `agree` is set when both cells of column c are non-NULL and equal,
/// and bit c of `conflict` when both are non-NULL and differ.
class Pairs {
 public:
  explicit Pairs(const Relation& rel) : ncols_(rel.schema().size()) {
    const std::vector<TupleId> live = LiveTuples(rel);
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        uint64_t agree = 0, conflict = 0;
        for (size_t c = 0; c < ncols_; ++c) {
          const Value& a = rel.cell(live[i], c);
          const Value& b = rel.cell(live[j], c);
          if (a.is_null() || b.is_null()) continue;
          (a == b ? agree : conflict) |= uint64_t{1} << c;
        }
        agree_.push_back(agree);
        conflict_.push_back(conflict);
      }
    }
  }

  size_t ncols() const { return ncols_; }

  /// X -> A holds iff no two live tuples agree on X (no NULL there) and
  /// carry two different non-NULL A values. `x` is a column bitmask.
  bool FdHolds(uint64_t x, size_t a) const {
    for (size_t p = 0; p < agree_.size(); ++p) {
      if ((agree_[p] & x) == x && ((conflict_[p] >> a) & 1)) return false;
    }
    return true;
  }

 private:
  size_t ncols_;
  std::vector<uint64_t> agree_;
  std::vector<uint64_t> conflict_;
};

inline std::vector<size_t> ColsOf(uint64_t mask) {
  std::vector<size_t> cols;
  for (size_t c = 0; mask != 0; ++c, mask >>= 1) {
    if (mask & 1) cols.push_back(c);
  }
  return cols;
}

/// Every X -> A that FdMiner must return, sorted by (LHS, RHS): it holds,
/// 1 <= |X| <= max_lhs and |X| < #columns, and no proper non-empty subset
/// of X also determines A.
inline std::vector<std::pair<std::vector<size_t>, size_t>> MinimalFds(
    const Pairs& pairs, size_t max_lhs) {
  const size_t n = pairs.ncols();
  std::vector<std::pair<std::vector<size_t>, size_t>> out;
  for (uint64_t x = 1; x < (uint64_t{1} << n); ++x) {
    const size_t k = ColsOf(x).size();
    if (k > max_lhs || k >= n) continue;
    for (size_t a = 0; a < n; ++a) {
      if ((x >> a) & 1 || !pairs.FdHolds(x, a)) continue;
      bool minimal = true;
      for (uint64_t y = (x - 1) & x; y != 0 && minimal; y = (y - 1) & x) {
        if (pairs.FdHolds(y, a)) minimal = false;
      }
      if (minimal) out.emplace_back(ColsOf(x), a);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline std::vector<std::pair<std::vector<size_t>, size_t>> FdsOf(
    const std::vector<discovery::DiscoveredFd>& fds) {
  std::vector<std::pair<std::vector<size_t>, size_t>> out;
  for (const discovery::DiscoveredFd& fd : fds) {
    out.emplace_back(fd.lhs_cols, fd.rhs_col);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One mined tableau row as "[X1, X2] -> A (x1, _ || a)".
inline std::string RowKey(const std::vector<std::string>& lhs,
                          const std::string& rhs, const cfd::PatternTuple& pt) {
  std::string s = "[";
  for (size_t i = 0; i < lhs.size(); ++i) s += (i > 0 ? ", " : "") + lhs[i];
  return s + "] -> " + rhs + " " + pt.ToString();
}

inline std::vector<std::string> RowsOf(const std::vector<cfd::Cfd>& cfds) {
  std::vector<std::string> out;
  for (const cfd::Cfd& c : cfds) {
    for (const cfd::PatternTuple& pt : c.tableau()) {
      out.push_back(RowKey(c.lhs_attrs(), c.rhs_attr(), pt));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every tableau row CfdMiner must mine, sorted, brute-forced over the
/// candidates X -> A of FD discovery's bounds (1 <= |X| <= max_lhs,
/// |X| < #columns, A not in X) under the rules of cfd_miner.h:
///  * when X -> A holds globally, the minimal FDs become all-wildcard rows
///    (include_global_fds) and neither pattern kind is mined for X -> A;
///  * constant row [X=x] -> [A=a]: the class of tuples with X = x (no NULL)
///    has >= max(2, min_support) members, all with A = a (non-NULL), and
///    for no attribute of X (when |X| > 1) do all tuples agreeing on the
///    rest of X also carry A = a;
///  * variable row [C=c, X\C=_] -> [A=_] (|X| >= 2): the tuples with C = c
///    number >= max(2, min_support); among those with no NULL in X or A,
///    no two agree on X with different A, and the ones sharing their X
///    value with another such tuple number >= min_support.
/// `max_patterns_per_fd` is not modelled: set it out of reach.
inline std::vector<std::string> MinedCfdRows(
    const Relation& rel, const discovery::CfdMinerOptions& options) {
  const Pairs pairs(rel);
  const size_t n = rel.schema().size();
  const size_t support = std::max<size_t>(2, options.min_support);
  auto name = [&](size_t c) { return rel.schema().attr(c).name; };
  auto names = [&](const std::vector<size_t>& cols) {
    std::vector<std::string> out;
    for (size_t c : cols) out.push_back(name(c));
    return out;
  };
  auto tuples_where = [&](const std::vector<size_t>& cols, TupleId like) {
    std::vector<TupleId> out;
    for (TupleId t : LiveTuples(rel)) {
      bool same = true;
      for (size_t c : cols) {
        const Value& v = rel.cell(t, c);
        if (v.is_null() || !(v == rel.cell(like, c))) same = false;
      }
      if (same) out.push_back(t);
    }
    return out;
  };
  auto all_equal = [&](const std::vector<TupleId>& ts, size_t a,
                       const Value& want) {
    return std::all_of(ts.begin(), ts.end(), [&](TupleId t) {
      return !rel.cell(t, a).is_null() && rel.cell(t, a) == want;
    });
  };

  std::vector<std::string> out;
  if (options.include_global_fds) {
    for (const auto& [lhs, a] : MinimalFds(pairs, options.max_lhs)) {
      cfd::PatternTuple pt;
      pt.lhs.assign(lhs.size(), cfd::PatternValue::Wildcard());
      out.push_back(RowKey(names(lhs), name(a), pt));
    }
  }
  for (uint64_t x = 1; x < (uint64_t{1} << n); ++x) {
    const std::vector<size_t> lhs = ColsOf(x);
    if (lhs.size() > options.max_lhs || lhs.size() >= n) continue;
    const std::vector<std::vector<TupleId>> classes = PartitionClasses(rel, lhs);
    for (size_t a = 0; a < n; ++a) {
      if ((x >> a) & 1 || pairs.FdHolds(x, a)) continue;

      if (options.mine_constant) {
        for (const std::vector<TupleId>& cls : classes) {
          if (cls.size() < support) continue;
          const Value& shared = rel.cell(cls.front(), a);
          if (shared.is_null() || !all_equal(cls, a, shared)) continue;
          bool reducible = false;
          for (size_t drop = 0; drop < lhs.size() && lhs.size() > 1; ++drop) {
            std::vector<size_t> rest = lhs;
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(drop));
            if (all_equal(tuples_where(rest, cls.front()), a, shared)) {
              reducible = true;
            }
          }
          if (reducible) continue;
          cfd::PatternTuple pt;
          for (size_t c : lhs) {
            const Value& v = rel.cell(cls.front(), c);
            pt.lhs.push_back(cfd::PatternValue::Constant(v));
          }
          pt.rhs = cfd::PatternValue::Constant(shared);
          out.push_back(RowKey(names(lhs), name(a), pt));
        }
      }

      if (options.mine_variable && lhs.size() >= 2) {
        for (size_t cond = 0; cond < lhs.size(); ++cond) {
          for (const auto& cls : PartitionClasses(rel, {lhs[cond]})) {
            if (cls.size() < support) continue;
            std::vector<TupleId> usable;
            for (TupleId t : cls) {
              bool has_null = rel.cell(t, a).is_null();
              for (size_t c : lhs) has_null = has_null || rel.cell(t, c).is_null();
              if (!has_null) usable.push_back(t);
            }
            bool holds = true;
            size_t evidence = 0;
            for (TupleId t : usable) {
              bool paired = false;
              for (TupleId u : usable) {
                if (u == t) continue;
                bool same_x = true;
                for (size_t c : lhs) {
                  same_x = same_x && rel.cell(t, c) == rel.cell(u, c);
                }
                if (!same_x) continue;
                paired = true;
                if (!(rel.cell(t, a) == rel.cell(u, a))) holds = false;
              }
              if (paired) ++evidence;
            }
            if (!holds || evidence < options.min_support) continue;
            cfd::PatternTuple pt;
            for (size_t i = 0; i < lhs.size(); ++i) {
              const Value& c = rel.cell(cls.front(), lhs[i]);
              pt.lhs.push_back(i == cond ? cfd::PatternValue::Constant(c)
                                         : cfd::PatternValue::Wildcard());
            }
            out.push_back(RowKey(names(lhs), name(a), pt));
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Where a BatchRepair result breaks the repair post-conditions on
/// `input`; empty when the input with `changes` written into it (by this
/// function's own loop) has zero oracle violations, `remaining_violations`
/// is 0, and every change names a distinct live cell, carries the input
/// value as `original` and differs from it.
inline std::string RepairDiff(const Relation& input,
                              const std::vector<cfd::Cfd>& cfds,
                              const repair::RepairResult& result) {
  std::ostringstream out;
  Relation repaired = input.Clone();
  std::vector<std::pair<TupleId, size_t>> logged;
  for (const repair::CellChange& ch : result.changes) {
    logged.emplace_back(ch.tid, ch.col);
    if (!input.IsLive(ch.tid) || ch.col >= input.schema().size()) {
      out << "change " << ch.tid << ":" << ch.col << " names no live cell\n";
      continue;
    }
    if (!(input.cell(ch.tid, ch.col) == ch.original) ||
        ch.original == ch.repaired) {
      out << "change " << ch.tid << ":" << ch.col
          << " does not change the input value\n";
    }
    if (!repaired.SetCell(ch.tid, ch.col, ch.repaired).ok()) {
      out << "change " << ch.tid << ":" << ch.col << " cannot be written\n";
    }
  }
  std::sort(logged.begin(), logged.end());
  if (std::adjacent_find(logged.begin(), logged.end()) != logged.end()) {
    out << "a cell is logged twice\n";
  }
  const Detection after = Detect(repaired, cfds);
  for (size_t t = 0; t < after.vio.size(); ++t) {
    if (after.vio[t] != 0) {
      out << "tuple " << t << " still violates (vio " << after.vio[t] << ")\n";
    }
  }
  if (result.remaining_violations != 0) {
    out << "remaining_violations = " << result.remaining_violations << "\n";
  }
  return out.str();
}

}  // namespace semandaq::oracle

#endif  // SEMANDAQ_TESTS_CFD_ORACLE_H_
