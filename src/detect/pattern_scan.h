#ifndef SEMANDAQ_DETECT_PATTERN_SCAN_H_
#define SEMANDAQ_DETECT_PATTERN_SCAN_H_

// Internal to the engines (not part of the detect API): how a tableau row
// becomes codes, and the kernel-block scan of one embedded-FD group that
// NativeDetector and IncrementalDetector both run.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "common/simd/simd.h"
#include "relational/encoded_relation.h"
#include "relational/relation.h"

namespace semandaq::detect {

/// A tableau row compiled against the column dictionaries: constants
/// become codes, wildcards vanish (they constrain nothing in code space).
struct CompiledPattern {
  /// The row's (CFD, pattern) indices, for callers that keep several rows.
  int ci = -1;
  int pi = -1;
  /// (LHS position, required code) for each constant LHS entry.
  std::vector<std::pair<uint32_t, relational::Code>> lhs_consts;
  /// Code of the RHS constant (kNullCode for a NULL constant; kAbsentCode
  /// when the constant never occurs in the column, so every non-NULL RHS
  /// disagrees with it). kAbsentCode for a wildcard RHS.
  relational::Code rhs_code = relational::kAbsentCode;
};

/// The one rule for turning tableau row `pt` of the resolved CFD `c` into
/// codes of `enc`'s dictionaries (PatternValue::Matches on codes): a
/// wildcard adds no constraint, and an LHS constant matches only the
/// non-NULL cells holding it. A NULL LHS constant therefore matches no
/// cell, and neither does one absent from its dictionary: the row selects
/// no tuple, and nullopt comes back. ci and pi are left at -1.
std::optional<CompiledPattern> CompilePattern(const relational::EncodedRelation& enc,
                                              const cfd::Cfd& c,
                                              const cfd::PatternTuple& pt);

/// Kernel block size: scans run the SIMD kernels over contiguous tuple-id
/// blocks of this many tuples and emit per block in ascending tid order,
/// so blocking is invisible in the output. 4096 tuples = 16 KiB of codes
/// per column per pass: one block's working set stays in L1/L2 across the
/// mask passes.
constexpr size_t kScanBlock = 4096;
constexpr size_t kScanBlockWords = kScanBlock / 64;

/// One embedded-FD group lowered for the kernel scan: tableau rows
/// compiled to codes, the kernel table of the pass, and raw pointers into
/// the relation's columns and liveness bytes. The pointers are valid until
/// the next write to the relation (which may detach a chunk or reallocate
/// the liveness bytes): a caller that writes calls Bind again before the
/// next scan.
struct GroupScan {
  const common::simd::Kernels* kn = nullptr;
  int gi = -1;
  size_t arity = 0;
  std::vector<size_t> lhs_cols;
  size_t rhs_col = 0;

  /// The rows that can select a tuple, in member order.
  std::vector<CompiledPattern> const_rows;
  std::vector<CompiledPattern> var_rows;

  /// An all-wildcard variable row (the plain embedded FD) puts every tuple
  /// in multi-tuple scope; the per-tuple pattern masks are skipped then.
  bool var_always = false;
  int var_always_cfd = -1;

  /// Exactly one constant-RHS row constraining exactly one LHS column: the
  /// FilterEq32 fast path (emit matching tuple ids directly, no masks).
  bool single_const_filter = false;

  /// Bound by Bind: lhs_ptrs()[i][tid] is the code of LHS column i.
  const uint8_t* live_bytes = nullptr;  // Relation::live_data()
  std::vector<const relational::Code*> lhs_ptr_storage;
  const relational::Code* rhs_ptr = nullptr;
  const relational::Code* const* lhs_ptrs() const {
    return lhs_ptr_storage.data();
  }

  /// (Re)reads the column and liveness pointers from `rel`.
  void Bind(const relational::Relation& rel);
};

/// Compiles embedded-FD group `g` (number `gi`) of `cfds` against `enc`
/// through CompilePattern and binds it to enc's relation. Returns false
/// when no tableau row can select a tuple (the group then contributes
/// nothing to a scan).
bool CompileGroup(const relational::EncodedRelation& enc,
                  const std::vector<cfd::Cfd>& cfds, const cfd::EmbeddedFdGroup& g,
                  size_t gi, const common::simd::Kernels& kn, GroupScan* gs);

/// Reusable mask/key scratch for the blocked kernel scan; nothing in it
/// outlives a block.
struct ScanScratch {
  std::vector<uint64_t> live_bits;    // live && RHS non-NULL in the block
  std::vector<uint64_t> elig;         // live && every LHS code non-NULL
  std::vector<uint64_t> scope;        // elig && some variable row matches
  std::vector<uint64_t> single_rows;  // per-const-row violation masks
  std::vector<uint64_t> var_rows;     // per-var-row match masks
  std::vector<uint64_t> any;          // OR of single_rows
  std::vector<uint64_t> packed;       // packed 64-bit group keys
  std::vector<uint32_t> hits;         // FilterEq32 emission buffer
  std::vector<const relational::Code*> colptrs;  // kernel column arguments
  std::vector<relational::Code> consts;          // kernel constant arguments

  void Prepare(const GroupScan& gs) {
    live_bits.resize(kScanBlockWords);
    elig.resize(kScanBlockWords);
    scope.resize(kScanBlockWords);
    any.resize(kScanBlockWords);
    single_rows.resize(gs.const_rows.size() * kScanBlockWords);
    var_rows.resize(gs.var_rows.size() * kScanBlockWords);
    packed.resize(kScanBlock);
    hits.resize(kScanBlock);
    const size_t max_args = std::max<size_t>(gs.arity, 1);
    colptrs.resize(max_args);
    consts.resize(max_args);
  }
};

/// Scans the contiguous tuple block [lo, hi) (at most kScanBlock ids; a
/// one-tuple block enters one tuple) through the group's kernel table and
/// emits, in per-tuple order:
///  * on_single(tid, ci, pi) for every single-tuple violation (ascending
///    tid; tableau-row order within a tid): the tuple is live, matches the
///    constant-RHS row's LHS, and its RHS is non-NULL and differs from the
///    row's constant;
///  * on_group(tid, var_cfd, packed_key) for every live tuple in
///    multi-tuple scope whose LHS key is NULL-free (ascending tid), where
///    var_cfd is the CFD of the first variable row it matches.
///    packed_key is (c0 << 32) | c1 for arity <= 2 (c1 = 0 when arity is
///    1, matching PackCodes with kNullCode) and unspecified for wider
///    keys — those re-read the codes, which the eligibility mask already
///    proved non-NULL.
template <typename SingleFn, typename GroupFn>
void ScanBlock(const GroupScan& gs, relational::TupleId lo,
               relational::TupleId hi, ScanScratch* sc,
               const SingleFn& on_single, const GroupFn& on_group) {
  using relational::Code;
  using relational::kNullCode;
  using relational::TupleId;
  namespace simd = common::simd;
  const simd::Kernels& kn = *gs.kn;
  const size_t n = static_cast<size_t>(hi - lo);
  const size_t words = simd::MaskWords(n);
  const Code* const* lhs_ptrs = gs.lhs_ptrs();
  const uint8_t* live = gs.live_bytes + lo;

  // ---- Single-tuple violations (constant-RHS rows).
  if (gs.single_const_filter) {
    // One row, one LHS constant: emit candidate offsets directly and
    // resolve liveness + RHS disagreement per hit — cheaper than three
    // mask passes when the constant is selective (the common case).
    const CompiledPattern& cp = gs.const_rows[0];
    const Code* col = lhs_ptrs[cp.lhs_consts[0].first];
    const size_t cnt = kn.FilterEq32(col + lo, n, cp.lhs_consts[0].second, 0,
                                     sc->hits.data());
    for (size_t h = 0; h < cnt; ++h) {
      const TupleId tid = lo + static_cast<TupleId>(sc->hits[h]);
      if (gs.live_bytes[tid] == 0) continue;
      const Code a = gs.rhs_ptr[tid];
      if (a != kNullCode && a != cp.rhs_code) on_single(tid, cp.ci, cp.pi);
    }
  } else if (!gs.const_rows.empty()) {
    // Every constant row shares the same precondition — the tuple is live
    // and its RHS is non-NULL ("unknown, not wrong") — so that seed mask is
    // fused once per block; per row only the LHS equalities and the
    // disagreement with the row's own RHS constant remain.
    const Code* rhs_block = gs.rhs_ptr + lo;
    const size_t live_nonnull = kn.MaskLive(live, &rhs_block, 1, kNullCode,
                                            n, sc->live_bits.data());
    if (live_nonnull != 0) {
      for (size_t r = 0; r < gs.const_rows.size(); ++r) {
        const CompiledPattern& cp = gs.const_rows[r];
        uint64_t* m = sc->single_rows.data() + r * kScanBlockWords;
        std::memcpy(m, sc->live_bits.data(), words * sizeof(uint64_t));
        if (!cp.lhs_consts.empty()) {
          for (size_t j = 0; j < cp.lhs_consts.size(); ++j) {
            sc->colptrs[j] = lhs_ptrs[cp.lhs_consts[j].first] + lo;
            sc->consts[j] = cp.lhs_consts[j].second;
          }
          kn.FilterEqMulti32(sc->colptrs.data(), sc->consts.data(),
                             cp.lhs_consts.size(), n, m);
        }
        kn.MaskNeAnd32(gs.rhs_ptr + lo, n, cp.rhs_code, m);
      }
    } else {
      std::memset(sc->single_rows.data(), 0,
                  gs.const_rows.size() * kScanBlockWords * sizeof(uint64_t));
    }
    if (gs.const_rows.size() == 1) {
      simd::ForEachSetBit(sc->single_rows.data(), words, [&](size_t i) {
        on_single(lo + static_cast<TupleId>(i), gs.const_rows[0].ci,
                  gs.const_rows[0].pi);
      });
    } else {
      for (size_t w = 0; w < words; ++w) {
        uint64_t acc = 0;
        for (size_t r = 0; r < gs.const_rows.size(); ++r) {
          acc |= sc->single_rows[r * kScanBlockWords + w];
        }
        sc->any[w] = acc;
      }
      simd::ForEachSetBit(sc->any.data(), words, [&](size_t i) {
        for (size_t r = 0; r < gs.const_rows.size(); ++r) {
          const uint64_t* m = sc->single_rows.data() + r * kScanBlockWords;
          if ((m[i / 64] >> (i % 64)) & 1) {
            on_single(lo + static_cast<TupleId>(i), gs.const_rows[r].ci,
                      gs.const_rows[r].pi);
          }
        }
      });
    }
  }

  // ---- Multi-tuple scope (variable-RHS rows).
  if (gs.var_rows.empty()) return;
  for (size_t i = 0; i < gs.arity; ++i) sc->colptrs[i] = lhs_ptrs[i] + lo;
  const size_t eligible = kn.MaskLive(live, sc->colptrs.data(), gs.arity,
                                      kNullCode, n, sc->elig.data());
  if (eligible == 0) return;

  const uint64_t* scope = sc->elig.data();
  if (!gs.var_always) {
    for (size_t r = 0; r < gs.var_rows.size(); ++r) {
      const CompiledPattern& vr = gs.var_rows[r];
      uint64_t* m = sc->var_rows.data() + r * kScanBlockWords;
      std::memcpy(m, sc->elig.data(), words * sizeof(uint64_t));
      for (size_t j = 0; j < vr.lhs_consts.size(); ++j) {
        sc->colptrs[j] = lhs_ptrs[vr.lhs_consts[j].first] + lo;
        sc->consts[j] = vr.lhs_consts[j].second;
      }
      kn.FilterEqMulti32(sc->colptrs.data(), sc->consts.data(),
                         vr.lhs_consts.size(), n, m);
    }
    for (size_t w = 0; w < words; ++w) {
      uint64_t acc = 0;
      for (size_t r = 0; r < gs.var_rows.size(); ++r) {
        acc |= sc->var_rows[r * kScanBlockWords + w];
      }
      sc->scope[w] = acc;
    }
    scope = sc->scope.data();
  }

  if (gs.arity <= 2) {
    kn.PackKeys2x32(lhs_ptrs[0] + lo,
                    gs.arity == 2 ? lhs_ptrs[1] + lo : nullptr, n,
                    sc->packed.data());
  }

  simd::ForEachSetBit(scope, words, [&](size_t i) {
    const TupleId tid = lo + static_cast<TupleId>(i);
    int var_cfd = gs.var_always_cfd;
    if (!gs.var_always) {
      for (size_t r = 0; r < gs.var_rows.size(); ++r) {
        const uint64_t* m = sc->var_rows.data() + r * kScanBlockWords;
        if ((m[i / 64] >> (i % 64)) & 1) {
          var_cfd = gs.var_rows[r].ci;
          break;
        }
      }
    }
    on_group(tid, var_cfd, gs.arity <= 2 ? sc->packed[i] : 0);
  });
}

}  // namespace semandaq::detect

#endif  // SEMANDAQ_DETECT_PATTERN_SCAN_H_
