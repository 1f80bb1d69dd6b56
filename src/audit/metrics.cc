#include "audit/metrics.h"

#include <algorithm>
#include <optional>

#include "common/simd/simd.h"
#include "detect/pattern_scan.h"
#include "relational/encoded_relation.h"

namespace semandaq::audit {

using cfd::Cfd;
using cfd::PatternTuple;
using detect::SingleViolation;
using detect::ViolationGroup;
using detect::ViolationTable;
using relational::Code;
using relational::EncodedRelation;
using relational::kAbsentCode;
using relational::kNullCode;
using relational::TupleId;

namespace simd = common::simd;

namespace {

// Per-tuple flags, one byte per tuple id.
constexpr uint8_t kSingle = 1;     // some single-tuple violation
constexpr uint8_t kMulti = 2;      // member of some multi-tuple group
constexpr uint8_t kMinority = 4;   // outside the strict majority of a group
constexpr uint8_t kConfirmed = 8;  // a constant-RHS row confirms the tuple

// Per-cell flags, one byte per (tuple id, column).
constexpr uint8_t kDirtyCell = 1;     // implicated other than as a majority
constexpr uint8_t kArguableCell = 2;  // in a group's strict majority
constexpr uint8_t kVerifiedCell = 4;  // confirmed by a constant-RHS row

CleanGrade CellGrade(uint8_t flags) {
  if (flags & kDirtyCell) return CleanGrade::kDirty;
  if (flags & kArguableCell) return CleanGrade::kArguablyClean;
  if (flags & kVerifiedCell) return CleanGrade::kVerifiedClean;
  return CleanGrade::kProbablyClean;
}

}  // namespace

const char* CleanGradeToString(CleanGrade g) {
  switch (g) {
    case CleanGrade::kDirty:
      return "dirty";
    case CleanGrade::kArguablyClean:
      return "arguably clean";
    case CleanGrade::kProbablyClean:
      return "probably clean";
    case CleanGrade::kVerifiedClean:
      return "verified clean";
  }
  return "?";
}

double AttributeStats::pct_verified() const {
  const int64_t t = total();
  return t == 0 ? 0 : 100.0 * static_cast<double>(counts[3]) / static_cast<double>(t);
}

double AttributeStats::pct_probably() const {
  const int64_t t = total();
  return t == 0 ? 0
               : 100.0 * static_cast<double>(counts[3] + counts[2]) /
                     static_cast<double>(t);
}

double AttributeStats::pct_arguably() const {
  const int64_t t = total();
  return t == 0 ? 0
               : 100.0 * static_cast<double>(counts[3] + counts[2] + counts[1]) /
                     static_cast<double>(t);
}

CleanGrade AuditOutcome::GradeOf(TupleId tid) const {
  return tid >= 0 && static_cast<size_t>(tid) < tuple_grades.size()
             ? tuple_grades[static_cast<size_t>(tid)]
             : CleanGrade::kProbablyClean;
}

common::Result<AuditOutcome> DataAuditor::Audit(const ViolationTable& table) {
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, rel_->schema()));
  const EncodedRelation enc(rel_);

  AuditOutcome out;
  const size_t ncols = rel_->schema().size();
  const size_t bound = static_cast<size_t>(rel_->IdBound());
  const uint8_t* live = rel_->live_data();
  out.attr_stats.resize(ncols);
  std::vector<uint8_t> tuple_flags(bound, 0);
  std::vector<uint8_t> cell_flags(bound * ncols, 0);
  const auto cell_flag = [&](TupleId tid, size_t col) -> uint8_t& {
    return cell_flags[static_cast<size_t>(tid) * ncols + col];
  };
  const auto known = [bound](TupleId tid) {
    return tid >= 0 && static_cast<size_t>(tid) < bound;
  };

  // A single-tuple violation implicates its RHS cell and every constant
  // LHS position: one of them carries the error.
  for (const SingleViolation& sv : table.singles()) {
    if (!known(sv.tid)) continue;
    const Cfd& c = cfds_[static_cast<size_t>(sv.cfd_index)];
    const PatternTuple& pt = c.tableau()[static_cast<size_t>(sv.pattern_index)];
    tuple_flags[static_cast<size_t>(sv.tid)] |= kSingle;
    cell_flag(sv.tid, c.rhs_col()) |= kDirtyCell;
    for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
      if (pt.lhs[i].is_constant()) cell_flag(sv.tid, c.lhs_cols()[i]) |= kDirtyCell;
    }
  }

  // A group member shares its RHS with n - partners members (NULLs agree
  // with each other, as on codes): the strict majority when that is more
  // than half the group.
  for (const ViolationGroup& g : table.groups()) {
    const size_t n = g.members.size();
    out.num_groups += 1;
    out.max_group_size = std::max(out.max_group_size, n);
    out.min_group_size =
        out.min_group_size == 0 ? n : std::min(out.min_group_size, n);
    out.avg_group_size += static_cast<double>(n);
    const size_t rhs =
        cfds_[static_cast<size_t>(g.cfd_index >= 0 ? g.cfd_index : 0)].rhs_col();
    for (size_t i = 0; i < n; ++i) {
      const TupleId tid = g.members[i];
      if (!known(tid)) continue;
      const int64_t agree = static_cast<int64_t>(n) - g.member_partners[i];
      const bool majority = 2 * agree > static_cast<int64_t>(n);
      tuple_flags[static_cast<size_t>(tid)] |= majority ? kMulti : kMulti | kMinority;
      cell_flag(tid, rhs) |= majority ? kArguableCell : kDirtyCell;
    }
  }
  if (out.num_groups > 0) {
    out.avg_group_size /= static_cast<double>(out.num_groups);
  }

  // Confirmations: the live tuples whose codes equal a constant-RHS row's
  // RHS constant and LHS constants, found with the detector's kernels in
  // one pass over the code columns per row. A row that selects no tuple
  // confirms nothing, and neither does a NULL or absent RHS constant, which
  // no cell holds.
  const simd::Kernels& kn = simd::KernelsFor();
  std::vector<uint64_t> live_mask(simd::MaskWords(bound));
  kn.MaskLive(live, nullptr, 0, kNullCode, bound, live_mask.data());
  std::vector<uint64_t> mask;
  std::vector<size_t> cols;  // the compared columns: the cells a match confirms
  std::vector<const Code*> col_codes;
  std::vector<Code> codes;
  for (const Cfd& c : cfds_) {
    for (const PatternTuple& pt : c.tableau()) {
      if (!pt.is_constant_rhs()) continue;
      const std::optional<detect::CompiledPattern> cp =
          detect::CompilePattern(enc, c, pt);
      if (!cp || cp->rhs_code == kNullCode || cp->rhs_code == kAbsentCode) continue;
      cols.assign(1, c.rhs_col());
      codes.assign(1, cp->rhs_code);
      for (const auto& [pos, code] : cp->lhs_consts) {
        cols.push_back(c.lhs_cols()[pos]);
        codes.push_back(code);
      }
      col_codes.clear();
      for (size_t col : cols) col_codes.push_back(enc.column(col).data());
      mask = live_mask;
      kn.FilterEqMulti32(col_codes.data(), codes.data(), cols.size(), bound, mask.data());
      simd::ForEachSetBit(mask.data(), mask.size(), [&](size_t t) {
        tuple_flags[t] |= kConfirmed;
        for (size_t col : cols) cell_flags[t * ncols + col] |= kVerifiedCell;
      });
    }
  }

  // Tuple grades and composition; attribute-value grades, tallied per
  // column by flag byte first and folded into grades once.
  out.tuple_grades.assign(bound, CleanGrade::kProbablyClean);
  std::vector<int64_t> by_flags(ncols * 8, 0);
  int64_t sum_vio = 0;
  for (size_t t = 0; t < bound; ++t) {
    if (live[t] == 0) continue;
    const TupleId tid = static_cast<TupleId>(t);
    ++out.num_tuples;
    const uint8_t f = tuple_flags[t];
    const bool single = (f & kSingle) != 0;
    const bool multi = (f & kMulti) != 0;
    const int64_t vio = table.vio(tid);

    CleanGrade grade;
    if (vio == 0) {
      grade = (f & kConfirmed) ? CleanGrade::kVerifiedClean
                               : CleanGrade::kProbablyClean;
    } else if (!single && multi && (f & kMinority) == 0) {
      grade = CleanGrade::kArguablyClean;
    } else {
      grade = CleanGrade::kDirty;
    }
    out.tuple_grades[t] = grade;
    ++out.tuple_counts[static_cast<size_t>(grade)];

    if (vio == 0) {
      ++out.tuples_clean;
    } else if (single && multi) {
      ++out.tuples_both;
    } else if (single) {
      ++out.tuples_single_only;
    } else {
      ++out.tuples_multi_only;
    }

    if (vio > 0) {
      sum_vio += vio;
      out.max_vio = std::max(out.max_vio, vio);
      out.min_vio_nonzero =
          out.min_vio_nonzero == 0 ? vio : std::min(out.min_vio_nonzero, vio);
    }

    const uint8_t* cells = cell_flags.data() + t * ncols;
    for (size_t c = 0; c < ncols; ++c) ++by_flags[c * 8 + cells[c]];
  }
  for (size_t c = 0; c < ncols; ++c) {
    for (uint8_t f = 0; f < 8; ++f) {
      out.attr_stats[c].counts[static_cast<size_t>(CellGrade(f))] += by_flags[c * 8 + f];
    }
  }

  out.total_vio = table.TotalVio();
  const size_t violating = table.NumViolatingTuples();
  out.avg_vio_violating =
      violating == 0 ? 0 : static_cast<double>(sum_vio) / static_cast<double>(violating);
  return out;
}

}  // namespace semandaq::audit
