#include "detect/native_detector.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/simd/simd.h"

namespace semandaq::detect {

using cfd::Cfd;
using cfd::EmbeddedFdGroup;
using cfd::PatternTuple;
using relational::Code;
using relational::CodeVecHash;
using relational::EncodedRelation;
using relational::kAbsentCode;
using relational::kNullCode;
using relational::TupleId;

namespace simd = common::simd;

common::Result<ViolationTable> NativeDetector::Detect() {
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, rel_->schema()));
  if (encoded_ != nullptr && &encoded_->relation() == rel_ &&
      encoded_->InSync()) {
    return DetectEncoded(*encoded_);
  }
  const EncodedRelation local(rel_, options_.cancel);
  return DetectEncoded(local);
}

namespace {

/// A pattern tuple compiled against the column dictionaries: constants
/// become codes, wildcards vanish (they constrain nothing in code space).
struct CompiledPattern {
  int ci = -1;
  int pi = -1;
  /// (LHS position, required code) for each constant LHS entry.
  std::vector<std::pair<uint32_t, Code>> lhs_consts;
  /// Required RHS code for constant-RHS rows; kAbsentCode when the constant
  /// never occurs in the column (every non-NULL RHS then disagrees).
  Code rhs_code = kAbsentCode;
};

/// One multi-tuple candidate group: the tuples sharing an LHS code key.
/// RHS codes are not duplicated here — the column itself holds them,
/// indexed by member tuple id.
struct CodeBucket {
  std::vector<TupleId> members;
  std::vector<Code> key;  // the LHS codes
  int first_cfd = -1;
  Code first_nonnull = kAbsentCode;
  bool two_distinct = false;

  void AddRhs(Code c) {
    if (c == kNullCode) return;
    if (first_nonnull == kAbsentCode) {
      first_nonnull = c;
    } else if (c != first_nonnull) {
      two_distinct = true;
    }
  }
};

/// Above this many slots the dense code-product group index would cost more
/// to allocate than it saves; fall back to hashing.
constexpr uint64_t kDenseGroupLimit = uint64_t{1} << 21;

constexpr uint32_t kNoBucket = UINT32_MAX;

/// Kernel block size: the scan runs the SIMD kernels over contiguous
/// tuple-id blocks of this many tuples, then emits per block in ascending
/// tid order — which is exactly the live-list order, so blocking is
/// invisible in the output. 4096 tuples = 16 KiB of codes per column per
/// pass: the working set of one block stays in L1/L2 across the mask
/// passes.
constexpr size_t kScanBlock = 4096;
constexpr size_t kScanBlockWords = kScanBlock / 64;

/// At or below this many members a violating bucket counts RHS agreement
/// with CountEq32 over a gathered code array (linear passes over a tiny
/// dense block); above it, the freq[] histogram pass is cheaper. Both
/// produce identical counts.
constexpr size_t kCountEqGroupLimit = 64;

/// One embedded-FD group lowered for the encoded scan: tableau rows
/// compiled to codes, raw column pointers, the kernel table of the pass,
/// and the geometry of the dense slot index when the LHS is narrow enough
/// to afford one. Built once per group and read-only during the scan.
struct GroupScan {
  const EncodedRelation* enc = nullptr;
  const simd::Kernels* kn = nullptr;
  const uint8_t* live_bytes = nullptr;  // Relation::live_data()
  int gi = -1;
  size_t arity = 0;
  std::vector<size_t> lhs_cols;
  size_t rhs_col = 0;

  std::vector<CompiledPattern> const_rows;
  std::vector<CompiledPattern> var_rows;

  /// Raw column pointers (lhs_ptrs()[i][tid] is the code of LHS column i).
  std::vector<const Code*> lhs_ptr_storage;
  const Code* rhs_ptr = nullptr;
  const Code* const* lhs_ptrs() const { return lhs_ptr_storage.data(); }

  /// An all-wildcard variable row (the plain embedded FD) puts every tuple
  /// in multi-tuple scope; the per-tuple pattern masks are skipped then.
  bool var_always = false;
  int var_always_cfd = -1;

  /// Exactly one constant-RHS row constraining exactly one LHS column: the
  /// FilterEq32 fast path (emit matching tuple ids directly, no masks).
  bool single_const_filter = false;

  /// Dense slot-index geometry: codes are dense per column, so for one LHS
  /// column the code itself indexes a flat array, and for two the code
  /// *product* does whenever it fits; hashing is the fallback.
  uint64_t stride = 0;
  uint64_t dense_slots = 0;
  bool use_dense = false;

  /// Checked once per kernel block; a tripped token stops the scan early
  /// (the caller converts the latched token into a Status before any
  /// output escapes). nullptr = not cancellable.
  common::CancelToken* cancel = nullptr;

  uint64_t SlotOf(Code c0, Code c1) const {
    return arity == 1 ? c0 : static_cast<uint64_t>(c0) * stride + c1;
  }
};

/// Compiles one embedded-FD group; false when no tableau row is feasible
/// (the whole group then contributes nothing to the scan).
bool CompileGroup(const EncodedRelation& enc, const std::vector<Cfd>& cfds,
                  const EmbeddedFdGroup& g, size_t gi,
                  const simd::Kernels& kn, GroupScan* gs) {
  const Cfd& first = cfds[g.members.front().first];
  gs->enc = &enc;
  gs->kn = &kn;
  gs->live_bytes = enc.relation().live_data();
  gs->gi = static_cast<int>(gi);
  gs->lhs_cols = first.lhs_cols();
  gs->rhs_col = first.rhs_col();
  gs->arity = gs->lhs_cols.size();

  // Compile the tableau rows to codes, preserving member order. An LHS
  // constant absent from its column dictionary can never match a tuple,
  // so the whole row drops out of the scan upfront.
  for (const auto& [ci, pi] : g.members) {
    const PatternTuple& pt = cfds[ci].tableau()[pi];
    CompiledPattern cp;
    cp.ci = static_cast<int>(ci);
    cp.pi = static_cast<int>(pi);
    bool feasible = true;
    for (size_t i = 0; i < gs->arity; ++i) {
      if (pt.lhs[i].is_wildcard()) continue;
      // A NULL constant matches nothing (PatternValue::Matches rejects
      // NULL cells); it must not compile to kNullCode, which would match
      // exactly the NULL cells instead.
      const Code code = pt.lhs[i].constant().is_null()
                            ? kAbsentCode
                            : enc.dictionary(gs->lhs_cols[i])
                                  .Lookup(pt.lhs[i].constant());
      if (code == kAbsentCode) {
        feasible = false;
        break;
      }
      cp.lhs_consts.emplace_back(static_cast<uint32_t>(i), code);
    }
    if (!feasible) continue;
    if (pt.is_constant_rhs()) {
      cp.rhs_code = enc.dictionary(gs->rhs_col).Lookup(pt.rhs.constant());
      gs->const_rows.push_back(std::move(cp));
    } else {
      gs->var_rows.push_back(std::move(cp));
    }
  }
  if (gs->const_rows.empty() && gs->var_rows.empty()) return false;

  gs->lhs_ptr_storage.resize(gs->arity);
  for (size_t i = 0; i < gs->arity; ++i) {
    gs->lhs_ptr_storage[i] = enc.column(gs->lhs_cols[i]).data();
  }
  gs->rhs_ptr = enc.column(gs->rhs_col).data();

  gs->var_always = !gs->var_rows.empty() && gs->var_rows.front().lhs_consts.empty();
  gs->var_always_cfd = gs->var_always ? gs->var_rows.front().ci : -1;
  gs->single_const_filter =
      gs->const_rows.size() == 1 && gs->const_rows[0].lhs_consts.size() == 1;

  gs->stride = gs->arity == 2 ? enc.dictionary(gs->lhs_cols[1]).size() + 1 : 0;
  if (gs->arity == 1) {
    gs->dense_slots = enc.dictionary(gs->lhs_cols[0]).size() + 1;
  } else if (gs->arity == 2) {
    gs->dense_slots =
        (enc.dictionary(gs->lhs_cols[0]).size() + 1) * gs->stride;
  }
  gs->use_dense = gs->dense_slots > 0 && gs->dense_slots <= kDenseGroupLimit;
  return true;
}

/// Reusable mask/key scratch for the blocked kernel scan; nothing in it
/// outlives a block.
struct ScanScratch {
  std::vector<uint64_t> live_bits;    // live-tuple bitmap of the block
  std::vector<uint64_t> elig;         // live && every LHS code non-NULL
  std::vector<uint64_t> scope;        // elig && some variable row matches
  std::vector<uint64_t> single_rows;  // per-const-row violation masks
  std::vector<uint64_t> var_rows;     // per-var-row match masks
  std::vector<uint64_t> any;          // OR of single_rows
  std::vector<uint64_t> packed;       // packed 64-bit group keys
  std::vector<uint32_t> hits;         // FilterEq32 emission buffer
  std::vector<const Code*> colptrs;   // kernel column-pointer arguments
  std::vector<Code> consts;           // kernel constant arguments

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

/// Scans the contiguous tuple block [lo, hi) through the group's kernel
/// table and emits, in per-tuple order:
///  * on_single(tid, ci, pi) for every single-tuple violation (ascending
///    tid; tableau-row order within a tid);
///  * on_group(tid, var_cfd, packed_key) for every live tuple in
///    multi-tuple scope whose LHS key is NULL-free (ascending tid).
///    packed_key is (c0 << 32) | c1 for arity <= 2 (c1 = 0 when arity is
///    1, matching PackCodes with kNullCode) and unspecified for wider
///    keys — those re-read the codes, which the eligibility mask already
///    proved non-NULL.
template <typename SingleFn, typename GroupFn>
void ScanBlock(const GroupScan& gs, TupleId lo, TupleId hi, ScanScratch* sc,
               const SingleFn& on_single, const GroupFn& on_group) {
  const simd::Kernels& kn = *gs.kn;
  const size_t n = static_cast<size_t>(hi - lo);
  const size_t words = simd::MaskWords(n);
  const Code* const* lhs_ptrs = gs.lhs_ptrs();
  const uint8_t* live = gs.live_bytes + lo;

  // ---- Single-tuple violations (constant-RHS rows).
  if (gs.single_const_filter) {
    // One row, one LHS constant: emit candidate tuple ids directly and
    // resolve liveness + RHS disagreement per hit — cheaper than three
    // mask passes when the constant is selective (the common case).
    const CompiledPattern& cp = gs.const_rows[0];
    const Code* col = lhs_ptrs[cp.lhs_consts[0].first];
    const size_t cnt =
        kn.FilterEq32(col + lo, n, cp.lhs_consts[0].second,
                      static_cast<uint32_t>(lo), sc->hits.data());
    for (size_t h = 0; h < cnt; ++h) {
      const TupleId tid = static_cast<TupleId>(sc->hits[h]);
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
      // First matching variable row, in tableau order: it decides a fresh
      // bucket's first_cfd.
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

/// Materializes one violating bucket as a ViolationGroup. Partner counts on
/// codes match exact Value equality because NULLs share kNullCode. Small
/// buckets count agreement with CountEq32 over `rhs_scratch` (a gathered
/// dense code block); larger ones use `freq`, a caller-owned scratch array
/// dense over the RHS dictionary (plus the NULL slot), zeroed on entry and
/// re-zeroed before returning.
ViolationGroup MakeGroup(const GroupScan& gs, CodeBucket* b,
                         std::vector<int64_t>* freq,
                         std::vector<Code>* rhs_scratch) {
  const EncodedRelation& enc = *gs.enc;
  ViolationGroup vg;
  vg.fd_group = gs.gi;
  vg.cfd_index = b->first_cfd;
  vg.lhs_key.reserve(gs.arity);
  for (size_t i = 0; i < gs.arity; ++i) {
    vg.lhs_key.push_back(enc.Decode(gs.lhs_cols[i], b->key[i]));
  }
  const int64_t n = static_cast<int64_t>(b->members.size());
  vg.member_partners.reserve(b->members.size());
  if (b->members.size() <= kCountEqGroupLimit) {
    rhs_scratch->clear();
    for (TupleId m : b->members) rhs_scratch->push_back(gs.rhs_ptr[m]);
    for (const Code c : *rhs_scratch) {
      vg.member_partners.push_back(
          n - static_cast<int64_t>(gs.kn->CountEq32(
                  rhs_scratch->data(), rhs_scratch->size(), c)));
    }
  } else {
    for (TupleId m : b->members) ++(*freq)[gs.rhs_ptr[m]];
    for (TupleId m : b->members) {
      vg.member_partners.push_back(n - (*freq)[gs.rhs_ptr[m]]);
    }
    for (TupleId m : b->members) (*freq)[gs.rhs_ptr[m]] = 0;
  }
  vg.members = std::move(b->members);
  return vg;
}

/// The scan body: kernel blocks over [0, IdBound), buckets in first-touch
/// order. A tripped cancel token abandons the remaining blocks; `table` is
/// then incomplete, and DetectEncoded checks the token again before it
/// returns anything.
void ScanGroup(const GroupScan& gs, ViolationTable* table) {
  const EncodedRelation& enc = *gs.enc;
  const size_t arity = gs.arity;
  const Code* const* lhs_ptrs = gs.lhs_ptrs();

  std::vector<CodeBucket> buckets;
  std::vector<uint32_t> dense_index;
  if (gs.use_dense) dense_index.assign(gs.dense_slots, kNoBucket);
  std::unordered_map<uint64_t, uint32_t> narrow_index;
  std::unordered_map<std::vector<Code>, uint32_t, CodeVecHash> wide_index;
  std::vector<Code> scratch_key(arity);
  ScanScratch sc;
  sc.Prepare(gs);

  const auto on_single = [&](TupleId tid, int ci, int pi) {
    table->AddSingle(SingleViolation{tid, ci, pi});
  };
  const auto on_group = [&](TupleId tid, int var_cfd, uint64_t packed) {
    uint32_t bi;
    if (arity <= 2) {
      const Code c0 = static_cast<Code>(packed >> 32);
      const Code c1 = static_cast<Code>(packed);
      if (gs.use_dense) {
        uint32_t& entry = dense_index[gs.SlotOf(c0, c1)];
        if (entry == kNoBucket) {
          entry = static_cast<uint32_t>(buckets.size());
          buckets.emplace_back();
        }
        bi = entry;
      } else {
        auto [it, fresh] = narrow_index.emplace(
            packed, static_cast<uint32_t>(buckets.size()));
        if (fresh) buckets.emplace_back();
        bi = it->second;
      }
      scratch_key[0] = c0;
      if (arity == 2) scratch_key[1] = c1;
    } else {
      // Codes are non-NULL here: the eligibility mask proved it.
      for (size_t i = 0; i < arity; ++i) scratch_key[i] = lhs_ptrs[i][tid];
      auto [it, fresh] = wide_index.emplace(
          scratch_key, static_cast<uint32_t>(buckets.size()));
      if (fresh) buckets.emplace_back();
      bi = it->second;
    }
    CodeBucket& b = buckets[bi];
    if (b.first_cfd < 0) {
      b.first_cfd = var_cfd;
      b.key = scratch_key;
    }
    b.members.push_back(tid);
    b.AddRhs(gs.rhs_ptr[tid]);
  };
  const TupleId bound = enc.IdBound();
  for (TupleId lo = 0; lo < bound; lo += static_cast<TupleId>(kScanBlock)) {
    if (gs.cancel != nullptr && !gs.cancel->Check().ok()) return;
    ScanBlock(gs, lo, std::min<TupleId>(bound, lo + kScanBlock), &sc,
              on_single, on_group);
  }

  std::vector<int64_t> freq(enc.dictionary(gs.rhs_col).size() + 1, 0);
  std::vector<Code> rhs_scratch;
  for (CodeBucket& b : buckets) {
    if (!b.two_distinct) continue;
    table->AddGroup(MakeGroup(gs, &b, &freq, &rhs_scratch));
  }
}

}  // namespace

common::Result<ViolationTable> NativeDetector::DetectEncoded(
    const EncodedRelation& enc) {
  ViolationTable table;
  // The kernel id-emission space is uint32 (simd::Kernels::FilterEq32
  // takes a uint32 base). TupleId is int64 by design, but an encoded
  // in-memory relation past 2^32 ids is outside this detector's envelope
  // (codes are uint32 too); fail loudly instead of wrapping tuple ids.
  if (static_cast<uint64_t>(enc.IdBound()) > UINT32_MAX) {
    return common::Status::InvalidArgument(
        "encoded detection supports at most 2^32 tuple ids; relation '" +
        rel_->name() + "' has id bound " + std::to_string(enc.IdBound()));
  }
  const simd::Kernels& kn = simd::KernelsFor(options_.simd_level);
  const std::vector<EmbeddedFdGroup> groups = cfd::GroupByEmbeddedFd(cfds_);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);
    GroupScan gs;
    if (!CompileGroup(enc, cfds_, groups[gi], gi, kn, &gs)) continue;
    gs.cancel = options_.cancel;
    ScanGroup(gs, &table);
  }
  // A cancel that tripped inside the last group's kernel blocks left the
  // table truncated; surface it rather than returning partial output.
  SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);
  return table;
}

}  // namespace semandaq::detect
