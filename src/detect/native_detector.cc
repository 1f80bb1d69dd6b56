#include "detect/native_detector.h"

#include <algorithm>
#include <unordered_map>

#include "common/simd/simd.h"
#include "detect/pattern_scan.h"

namespace semandaq::detect {

using cfd::EmbeddedFdGroup;
using relational::Code;
using relational::CodeVecHash;
using relational::EncodedRelation;
using relational::kAbsentCode;
using relational::kNullCode;
using relational::TupleId;

namespace simd = common::simd;

common::Result<ViolationTable> NativeDetector::Detect() {
  SEMANDAQ_RETURN_IF_ERROR(cfd::ResolveAll(&cfds_, rel_->schema()));
  return DetectEncoded(EncodedRelation(rel_));
}

namespace {

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

/// At or below this many members a violating bucket counts RHS agreement
/// with CountEq32 over a gathered code array (linear passes over a tiny
/// dense block); above it, the freq[] histogram pass is cheaper. Both
/// produce identical counts.
constexpr size_t kCountEqGroupLimit = 64;

/// Materializes one violating bucket as a ViolationGroup. Partner counts on
/// codes match exact Value equality because NULLs share kNullCode. Small
/// buckets count agreement with CountEq32 over `rhs_scratch` (a gathered
/// dense code block); larger ones use `freq`, a caller-owned scratch array
/// dense over the RHS dictionary (plus the NULL slot), zeroed on entry and
/// re-zeroed before returning.
ViolationGroup MakeGroup(const EncodedRelation& enc, const GroupScan& gs,
                         CodeBucket* b, std::vector<int64_t>* freq,
                         std::vector<Code>* rhs_scratch) {
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
void ScanGroup(const EncodedRelation& enc, const GroupScan& gs,
               common::CancelToken* cancel, ViolationTable* table) {
  const size_t arity = gs.arity;
  const Code* const* lhs_ptrs = gs.lhs_ptrs();

  // The key->bucket index: codes are dense per column, so for one LHS
  // column the code itself indexes a flat array, and for two the code
  // *product* does whenever it fits; hashing is the fallback.
  const uint64_t stride =
      arity == 2 ? enc.dictionary(gs.lhs_cols[1]).size() + 1 : 0;
  uint64_t dense_slots = 0;
  if (arity == 1) {
    dense_slots = enc.dictionary(gs.lhs_cols[0]).size() + 1;
  } else if (arity == 2) {
    dense_slots = (enc.dictionary(gs.lhs_cols[0]).size() + 1) * stride;
  }
  const bool use_dense = dense_slots > 0 && dense_slots <= kDenseGroupLimit;
  std::vector<CodeBucket> buckets;
  std::vector<uint32_t> dense_index;
  if (use_dense) dense_index.assign(dense_slots, kNoBucket);
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
      if (use_dense) {
        uint32_t& entry =
            dense_index[arity == 1 ? c0 : static_cast<uint64_t>(c0) * stride + c1];
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
    if (cancel != nullptr && !cancel->Check().ok()) return;
    ScanBlock(gs, lo, std::min<TupleId>(bound, lo + kScanBlock), &sc,
              on_single, on_group);
  }

  std::vector<int64_t> freq(enc.dictionary(gs.rhs_col).size() + 1, 0);
  std::vector<Code> rhs_scratch;
  for (CodeBucket& b : buckets) {
    if (!b.two_distinct) continue;
    table->AddGroup(MakeGroup(enc, gs, &b, &freq, &rhs_scratch));
  }
}

}  // namespace

common::Result<ViolationTable> NativeDetector::DetectEncoded(
    const EncodedRelation& enc) {
  ViolationTable table;
  // The dense group index holds uint32 bucket numbers. TupleId is int64 by
  // design, but an encoded in-memory relation past 2^32 ids is outside this
  // detector's envelope (codes are uint32 too); fail loudly instead of
  // wrapping bucket numbers.
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
    ScanGroup(enc, gs, options_.cancel, &table);
  }
  // A cancel that tripped inside the last group's kernel blocks left the
  // table truncated; surface it rather than returning partial output.
  SEMANDAQ_RETURN_IF_CANCELLED(options_.cancel);
  return table;
}

}  // namespace semandaq::detect
