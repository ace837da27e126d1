#include "crc32.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CXLF_CRC32_CLMUL 1
#endif

namespace cxlfork::sim::detail {

#ifdef CXLF_CRC32_CLMUL

namespace {

#define CXLF_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CXLF_CLMUL_TARGET inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** One 128-bit fold step: hi(x) * k_hi ^ lo(x) * k_lo ^ next. */
CXLF_CLMUL_TARGET inline __m128i
fold128(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                       _mm_clmulepi64_si128(x, k, 0x00)),
                         next);
}

/**
 * Fold n bytes (n >= 64, a multiple of 16) into the CRC state: four
 * 128-bit lanes fold 64 bytes per step, then collapse to one lane,
 * then 128 -> 64 -> 32 bits by Barrett reduction. The constants are
 * the bit-reflected x^k mod P(x) values for P = 0x04C11DB7 from Gopal
 * et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction" (Intel, 2009), as zlib's crc32_simd uses them.
 */
CXLF_CLMUL_TARGET uint32_t
foldClmul(uint32_t state, const uint8_t *p, size_t n)
{
    alignas(16) static const uint64_t k1k2[] = {0x0154442bd4, 0x01c6e41596};
    alignas(16) static const uint64_t k3k4[] = {0x01751997d0, 0x00ccaa009e};
    alignas(16) static const uint64_t k5k0[] = {0x0163cd6124, 0x0000000000};
    alignas(16) static const uint64_t poly[] = {0x01db710641, 0x01f7011641};

    __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(int(state)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    n -= 64;

    __m128i k = _mm_load_si128(reinterpret_cast<const __m128i *>(k1k2));
    for (; n >= 64; p += 64, n -= 64) {
        x1 = fold128(x1, k, load128(p));
        x2 = fold128(x2, k, load128(p + 16));
        x3 = fold128(x3, k, load128(p + 32));
        x4 = fold128(x4, k, load128(p + 48));
    }

    k = _mm_load_si128(reinterpret_cast<const __m128i *>(k3k4));
    x1 = fold128(x1, k, x2);
    x1 = fold128(x1, k, x3);
    x1 = fold128(x1, k, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = fold128(x1, k, load128(p));

    // 128 -> 64 bits.
    const __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k, 0x10));
    k = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(k5k0));
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, lo32), k,
                                            0x00));

    // Barrett reduction, 64 -> 32 bits.
    k = _mm_load_si128(reinterpret_cast<const __m128i *>(poly));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, lo32), k, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), k, 0x00);
    return uint32_t(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef CXLF_CLMUL_TARGET

} // namespace

bool
crc32ClmulSupported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return supported;
}

uint32_t
crc32Clmul(uint32_t state, const uint8_t *p, size_t n)
{
    if (n >= kCrc32FoldMin) {
        const size_t bulk = n & ~size_t(15);
        state = foldClmul(state, p, bulk);
        p += bulk;
        n -= bulk;
    }
    return crc32Slice8(state, p, n);
}

#else // !CXLF_CRC32_CLMUL

bool
crc32ClmulSupported()
{
    return false;
}

uint32_t
crc32Clmul(uint32_t state, const uint8_t *p, size_t n)
{
    return crc32Slice8(state, p, n);
}

#endif

} // namespace cxlfork::sim::detail
