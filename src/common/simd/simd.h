#ifndef SEMANDAQ_COMMON_SIMD_SIMD_H_
#define SEMANDAQ_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace semandaq::common::simd {

/// Instruction-set tier of a kernel table. Tiers are totally ordered:
/// every tier implements the same contracts bit-for-bit, higher tiers are
/// only faster. kScalar is the dispatch floor and the semantic reference —
/// it must stay available on every build so any kernel is A/B-testable
/// against it.
enum class Level : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  /// Resolve at call time: the best tier this host supports, clamped by the
  /// SEMANDAQ_SIMD environment override. Never the tier of a real table.
  kAuto = 255,
};

/// The kernel dispatch table: one function pointer per kernel, all
/// width-generic over flat uint32 code columns (relational::Code arrays).
///
/// Shared contracts (see docs/simd.md for the full spec):
///  * Inputs are unaligned — every implementation uses unaligned loads, so
///    callers may pass any offset into a column (odd block starts included).
///  * Bit masks are little-endian uint64 words: bit i of out[i/64] describes
///    element i. The caller provides (n + 63) / 64 words; mask-*producing*
///    kernels zero the tail bits of the last word, mask-*narrowing* (And)
///    kernels only clear bits, so a zeroed tail stays zeroed.
///  * n is arbitrary (0 included); every kernel handles the vector-width
///    remainder with a scalar tail that computes the identical result.
///  * No kernel reads past its inputs' [0, n) range or allocates.
struct Kernels {
  /// The tier this table actually runs (after clamping); what tests log.
  Level level;

  /// Emits base + i for every i in [0, n) with d[i] == c, ascending, into
  /// out (caller provides room for n entries). Returns the emit count.
  /// This is the LHS-constant pattern match producing a tuple-id list.
  size_t (*FilterEq32)(const uint32_t* d, size_t n, uint32_t c, uint32_t base,
                       uint32_t* out);

  /// Narrows `inout` by a conjunction of per-column equalities:
  /// inout bit i &= (cols[k][i] == consts[k] for every k < ncols).
  /// ncols == 0 leaves the mask unchanged.
  void (*FilterEqMulti32)(const uint32_t* const* cols, const uint32_t* consts,
                          size_t ncols, size_t n, uint64_t* inout);

  /// Narrows `inout` by one inequality: inout bit i &= (d[i] != c).
  /// With c = relational::kNullCode this is the non-NULL filter.
  void (*MaskNeAnd32)(const uint32_t* d, size_t n, uint32_t c,
                      uint64_t* inout);

  /// Produces the scan-eligibility mask: bit i = (live[i] != 0) AND
  /// (cols[k][i] != null_code for every k < ncols). `live` is the
  /// relation's liveness byte array (Relation::live_data()); ncols == 0
  /// gives the pure liveness bitmap. Returns the number of set bits.
  size_t (*MaskLive)(const uint8_t* live, const uint32_t* const* cols,
                     size_t ncols, uint32_t null_code, size_t n,
                     uint64_t* out);

  /// out[i] = (uint64_t(hi[i]) << 32) | lo[i] — the packed 64-bit group-by
  /// key of two code columns. lo == nullptr packs zeros (kNullCode) in the
  /// low half: the single-column key.
  void (*PackKeys2x32)(const uint32_t* hi, const uint32_t* lo, size_t n,
                       uint64_t* out);

  /// Number of i in [0, n) with d[i] == c — RHS agreement counting for the
  /// violation table's partner counts.
  size_t (*CountEq32)(const uint32_t* d, size_t n, uint32_t c);
};

/// The highest tier this host can execute (compile-time ISA availability of
/// the kernel translation units ∩ runtime CPUID). Non-x86 builds report
/// kScalar.
Level MaxSupportedLevel();

/// True when `level` can run on this host (kAuto is always true).
bool Supported(Level level);

/// The process-wide active tier: MaxSupportedLevel() clamped by the
/// SEMANDAQ_SIMD environment variable ("scalar" | "sse2" | "avx2",
/// case-insensitive; unknown values are ignored). Read once and cached.
Level ActiveLevel();

/// The kernel table for `level`: kAuto resolves to ActiveLevel(), and a
/// tier above MaxSupportedLevel() clamps down to the best supported one —
/// callers may therefore request any tier unconditionally (the equivalence
/// tests sweep all of them on every host). The returned table's `level`
/// field records what actually runs.
const Kernels& KernelsFor(Level level = Level::kAuto);

/// "scalar" / "sse2" / "avx2" / "auto".
std::string_view LevelName(Level level);

/// Parses a LevelName (case-insensitive). Returns false on unknown text.
bool ParseLevel(std::string_view text, Level* out);

/// Number of uint64 mask words covering n elements.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

/// Invokes fn(i) for every set bit i, ascending. The scalar emission
/// companion of the mask kernels: zero words are skipped in one test, so
/// sparse masks cost ~one branch per 64 elements.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t nwords, Fn&& fn) {
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t m = words[w];
    while (m != 0) {
      fn(w * 64 + static_cast<size_t>(__builtin_ctzll(m)));
      m &= m - 1;
    }
  }
}

/// Internal: per-tier tables. Sse2/Avx2 return nullptr when their TU was
/// compiled without the ISA (non-x86 target or an old compiler); the
/// dispatcher falls back down the tier order.
namespace internal {
const Kernels& ScalarKernels();
const Kernels* Sse2KernelsOrNull();
const Kernels* Avx2KernelsOrNull();
}  // namespace internal

}  // namespace semandaq::common::simd

#endif  // SEMANDAQ_COMMON_SIMD_SIMD_H_
