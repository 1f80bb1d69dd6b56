#include "detect/pattern_scan.h"

namespace semandaq::detect {

using cfd::Cfd;
using cfd::PatternTuple;
using relational::Code;
using relational::kAbsentCode;

std::optional<CompiledPattern> CompilePattern(const relational::Relation& rel,
                                              const Cfd& c,
                                              const PatternTuple& pt) {
  CompiledPattern cp;
  for (size_t i = 0; i < c.lhs_cols().size(); ++i) {
    if (pt.lhs[i].is_wildcard()) continue;
    // Lookup maps NULL to kNullCode, which would match exactly the NULL
    // cells; a NULL constant matches none.
    if (pt.lhs[i].is_null_constant()) return std::nullopt;
    const Code code = rel.dictionary(c.lhs_cols()[i]).Lookup(pt.lhs[i].constant());
    if (code == kAbsentCode) return std::nullopt;
    cp.lhs_consts.emplace_back(static_cast<uint32_t>(i), code);
  }
  if (pt.is_constant_rhs()) {
    cp.rhs_code = rel.dictionary(c.rhs_col()).Lookup(pt.rhs.constant());
  }
  return cp;
}

void GroupScan::Bind(const relational::Relation& rel) {
  live_bytes = rel.live_data();
  lhs_ptr_storage.resize(arity);
  for (size_t i = 0; i < arity; ++i) {
    lhs_ptr_storage[i] = rel.columns()[lhs_cols[i]].data();
  }
  rhs_ptr = rel.columns()[rhs_col].data();
}

bool CompileGroup(const relational::Relation& rel, const std::vector<Cfd>& cfds,
                  const cfd::EmbeddedFdGroup& g, size_t gi,
                  const common::simd::Kernels& kn, GroupScan* gs) {
  const Cfd& first = cfds[g.members.front().first];
  gs->kn = &kn;
  gs->gi = static_cast<int>(gi);
  gs->lhs_cols = first.lhs_cols();
  gs->rhs_col = first.rhs_col();
  gs->arity = gs->lhs_cols.size();

  // Member order is kept: it decides which variable row a tuple matches
  // first, and the order of a tuple's single-tuple violations.
  for (const auto& [ci, pi] : g.members) {
    const PatternTuple& pt = cfds[ci].tableau()[pi];
    std::optional<CompiledPattern> cp = CompilePattern(rel, cfds[ci], pt);
    if (!cp) continue;
    cp->ci = static_cast<int>(ci);
    cp->pi = static_cast<int>(pi);
    (pt.is_constant_rhs() ? gs->const_rows : gs->var_rows)
        .push_back(std::move(*cp));
  }
  gs->Bind(rel);

  gs->var_always =
      !gs->var_rows.empty() && gs->var_rows.front().lhs_consts.empty();
  gs->var_always_cfd = gs->var_always ? gs->var_rows.front().ci : -1;
  gs->single_const_filter =
      gs->const_rows.size() == 1 && gs->const_rows[0].lhs_consts.size() == 1;
  return !gs->const_rows.empty() || !gs->var_rows.empty();
}

}  // namespace semandaq::detect
