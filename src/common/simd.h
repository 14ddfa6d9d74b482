// SIMD portability shim for the simulator's innermost loop: the
// set-associative way scan over the dense struct-of-arrays tag plane
// (cachesim/cache.h) and the stream prefetcher's page and tick planes
// (cachesim/prefetcher.cpp). Two primitives cover every probe:
//
//   find_equal_except  — first way whose 8-byte tag equals the probe tag
//                        (the hit scan behind the cache's find_way() and
//                        the prefetcher's stream lookup),
//   argmin_first       — first entry holding the minimum tick (the
//                        prefetcher's LRU stream entry; the cache reads
//                        its victim off a per-set recency stack instead).
//
// The instruction set is selected at compile time from what the build
// targets (CMake's MEMDIS_SIMD option probes the build host and adds
// -mavx2 when both compiler and host support it):
//
//   ISA     | find_equal_except  | argmin_first
//   --------+--------------------+------------------------------------
//   AVX2    | row mask + ctz     | in-register min, row mask + ctz
//   SSE2    | 2 tags / compare   | scalar (no 64-bit compare pre-SSE4)
//   NEON    | 2 tags / compare   | 2 ticks / compare, two-pass (aarch64)
//   scalar  | way loop           | way loop
//
// The AVX2 forms are branch-free on the data (rows of whole 4-lane chunks
// up to 64 lanes; other lengths take the plain loop): which way matches
// or loses never steers a branch, so random probes cost what sequential
// ones do.
//
// Every wide path is *observably identical* to the scalar loop it
// replaces: tags are unique within a set, so "any matching lane" is "the
// first matching way", and the argmin reduction resolves ties to the
// lowest index — the exact entry the scalar `<` scan picks. The ISA is
// fixed at compile time; the scalar loops below are the reference the
// unit tests compare the wide forms against, and the whole path in a
// -DMEMDIS_SIMD=OFF build (which the golden gate also runs). Design notes:
// docs/HOTPATH.md.
#pragma once

#include <cstdint>

#include "common/contract.h"

#if !defined(MEMDIS_SIMD_DISABLED)
#if defined(__AVX2__)
#define MEMDIS_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define MEMDIS_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MEMDIS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace memdis {

/// Stubs of the removed runtime kill switch, kept because the frozen
/// perfbench/ harness pins these names: the probe path is chosen at
/// compile time, so the getter is always true and the setter accepts only
/// true.
[[nodiscard]] inline bool simd_enabled() { return true; }
inline void set_simd_enabled(bool on) {
  expects(on, "the SIMD kill switch has been removed; only true is accepted");
}

namespace simd {

#if defined(MEMDIS_SIMD_AVX2)
inline constexpr const char* kIsaName = "avx2";
#elif defined(MEMDIS_SIMD_SSE2)
inline constexpr const char* kIsaName = "sse2";
#elif defined(MEMDIS_SIMD_NEON)
inline constexpr const char* kIsaName = "neon";
#else
inline constexpr const char* kIsaName = "scalar";
#endif

/// Sentinel for find_equal_except when no way was pre-probed.
inline constexpr std::uint32_t kNoSkip = ~std::uint32_t{0};

// ---- scalar reference loops -------------------------------------------------
// These are the semantics: every wide implementation below must return the
// same index on the same input (given the xs[skip] != key caller contract).

inline std::uint32_t find_equal_scalar(const std::uint64_t* xs, std::uint32_t n,
                                       std::uint64_t key, std::uint32_t skip) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (xs[i] == key && i != skip) return i;
  }
  return n;
}

inline std::uint32_t argmin_first_scalar(const std::uint64_t* xs, std::uint32_t n) {
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (xs[i] < xs[best]) best = i;
  }
  return best;
}

// ---- wide implementations ---------------------------------------------------

#if defined(MEMDIS_SIMD_AVX2)

/// Rows the mask-and-ctz forms cover: one or more whole 4-lane chunks, one
/// mask bit per lane in a 64-bit word. Anything else takes the plain loop.
inline constexpr std::uint32_t kMaskLanes = 64;
inline bool mask_row(std::uint32_t n) { return n != 0 && n % 4 == 0 && n <= kMaskLanes; }

/// Bit i set where xs[i] equals the broadcast k, over a mask_row(n) row.
/// Compares the whole row with no early exit, so the cost does not depend
/// on where (or whether) the match sits.
inline std::uint64_t equal_mask(const std::uint64_t* xs, std::uint32_t n, __m256i k) {
  std::uint64_t mask = 0;
  for (std::uint32_t i = 0; i < n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    const auto m = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, k))));
    mask |= static_cast<std::uint64_t>(m) << i;
  }
  return mask;
}

/// First index with xs[i] == key, else n: ctz of the row's equality mask.
/// Any-lane match is first-way match because the caller's tags are unique
/// within the scanned row (and ctz is the lowest lane regardless).
inline std::uint32_t find_equal_wide(const std::uint64_t* xs, std::uint32_t n,
                                     std::uint64_t key) {
  if (!mask_row(n)) return find_equal_scalar(xs, n, key, kNoSkip);
  const std::uint64_t mask = equal_mask(xs, n, _mm256_set1_epi64x(static_cast<long long>(key)));
  return mask == 0 ? n : static_cast<std::uint32_t>(__builtin_ctzll(mask));
}

/// Index of the first minimum, reduced in-register: XOR with the sign bit
/// turns unsigned order into the signed order AVX2's 64-bit compare
/// speaks; a compare+blend folds the chunks, then two lane swaps
/// (permute4x64 0x4E, 0xB1) with a blend after each leave the minimum in
/// every lane. The first set bit of its equality mask is exactly the
/// scalar `<` scan's tie-break to the lowest index.
inline std::uint32_t argmin_first_wide(const std::uint64_t* xs, std::uint32_t n) {
  if (!mask_row(n)) return argmin_first_scalar(xs, n);
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const auto biased = [&](std::uint32_t i) {
    return _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i)), bias);
  };
  const auto min2 = [](__m256i a, __m256i b) {
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
  };
  __m256i vmin = biased(0);
  for (std::uint32_t i = 4; i < n; i += 4) vmin = min2(vmin, biased(i));
  vmin = min2(vmin, _mm256_permute4x64_epi64(vmin, 0x4E));
  vmin = min2(vmin, _mm256_permute4x64_epi64(vmin, 0xB1));
  return static_cast<std::uint32_t>(
      __builtin_ctzll(equal_mask(xs, n, _mm256_xor_si256(vmin, bias))));
}

#elif defined(MEMDIS_SIMD_SSE2)

/// SSE2 has no 64-bit integer compare; equality of a 64-bit lane is the
/// AND of its two 32-bit halves' equalities (cmpeq_epi32 + half swap).
inline std::uint32_t find_equal_wide(const std::uint64_t* xs, std::uint32_t n,
                                     std::uint64_t key) {
  const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + i));
    const __m128i eq32 = _mm_cmpeq_epi32(v, k);
    const __m128i eq64 = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (m != 0) return i + ((m & 1) != 0 ? 0u : 1u);
  }
  if (i < n && xs[i] == key) return i;
  return n;
}

// No argmin_first_wide: ordered 64-bit compares predate nothing in SSE2
// (first in SSE4.2), so the LRU-entry scan stays scalar on this tier.

#elif defined(MEMDIS_SIMD_NEON)

inline std::uint32_t find_equal_wide(const std::uint64_t* xs, std::uint32_t n,
                                     std::uint64_t key) {
  const uint64x2_t k = vdupq_n_u64(key);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(xs + i), k);
    if (vgetq_lane_u64(eq, 0) != 0) return i;
    if (vgetq_lane_u64(eq, 1) != 0) return i + 1;
  }
  if (i < n && xs[i] == key) return i;
  return n;
}

/// Two passes: a vector reduction to the minimum value, then the first lane
/// equal to it (the scalar `<` scan's lowest-index tie-break). aarch64
/// NEON compares unsigned 64-bit lanes directly (vcgtq_u64), so no
/// sign-bias is needed.
inline std::uint32_t argmin_first_wide(const std::uint64_t* xs, std::uint32_t n) {
  std::uint64_t min_v;
  std::uint32_t i;
  if (n >= 2) {
    uint64x2_t vmin = vld1q_u64(xs);
    for (i = 2; i + 2 <= n; i += 2) {
      const uint64x2_t v = vld1q_u64(xs + i);
      vmin = vbslq_u64(vcgtq_u64(vmin, v), v, vmin);
    }
    const std::uint64_t lo = vgetq_lane_u64(vmin, 0);
    const std::uint64_t hi = vgetq_lane_u64(vmin, 1);
    min_v = lo < hi ? lo : hi;
  } else {
    min_v = xs[0];
    i = 1;
  }
  for (; i < n; ++i) {
    if (xs[i] < min_v) min_v = xs[i];
  }
  return find_equal_wide(xs, n, min_v);
}

#endif

// ---- dispatching entry points (what cachesim calls) -------------------------

/// First index in [0, n) with xs[i] == key, excluding index `skip`; n when
/// absent. Caller contract on the wide path: when `skip != kNoSkip`, the
/// caller has already established xs[skip] != key (the failed MRU-hint
/// probe), so the wide compare covers that lane for free without a
/// separate re-compare and cannot return it. The scalar loop skips the
/// index explicitly — either way each tag is compared exactly once.
inline std::uint32_t find_equal_except(const std::uint64_t* xs, std::uint32_t n,
                                       std::uint64_t key, std::uint32_t skip) {
#if defined(MEMDIS_SIMD_AVX2) || defined(MEMDIS_SIMD_SSE2) || defined(MEMDIS_SIMD_NEON)
  (void)skip;
  return find_equal_wide(xs, n, key);
#else
  return find_equal_scalar(xs, n, key, skip);
#endif
}

/// Index of the first minimum of xs[0..n): the stream prefetcher's LRU
/// entry scan. Ties resolve to the lowest index on every path.
inline std::uint32_t argmin_first(const std::uint64_t* xs, std::uint32_t n) {
#if defined(MEMDIS_SIMD_AVX2) || defined(MEMDIS_SIMD_NEON)
  return argmin_first_wide(xs, n);
#else
  return argmin_first_scalar(xs, n);
#endif
}

}  // namespace simd
}  // namespace memdis
