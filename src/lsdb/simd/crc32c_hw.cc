// Hardware CRC-32C kernels and their dispatch. See crc32c_hw.h.

#include "lsdb/simd/crc32c_hw.h"

#include <cstdlib>
#include <cstring>
#include <string>

#if !defined(LSDB_SIMD_FORCE_SCALAR)
#if defined(__x86_64__)
#define LSDB_CRC_SSE42 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define LSDB_CRC_ARMV8 1
#include <arm_acle.h>
#endif
#endif  // !LSDB_SIMD_FORCE_SCALAR

namespace lsdb::simd {
namespace {

#if defined(LSDB_CRC_SSE42)

// SSE4.2 is not part of the x86-64 base ABI: compiled with a per-function
// target attribute and only dispatched to after
// __builtin_cpu_supports("sse4.2"). Bytes up to 8-byte alignment, then one
// 64-bit crc32 per 8 bytes, then the tail.
__attribute__((target("sse4.2"))) uint32_t UpdateSse42(uint32_t crc,
                                                       const uint8_t* p,
                                                       size_t n) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
  }
  crc = static_cast<uint32_t>(c);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

#endif  // LSDB_CRC_SSE42

#if defined(LSDB_CRC_ARMV8)

// Compiled only when the target already guarantees the CRC32 extension
// (__ARM_FEATURE_CRC32, mandatory from ARMv8.1-A), so no run-time check.
uint32_t UpdateArmv8(uint32_t crc, const uint8_t* p, size_t n) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __crc32cd(crc, v);
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return crc;
}

#endif  // LSDB_CRC_ARMV8

bool KilledByEnv() {
  const char* env = std::getenv("LSDB_SIMD");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "off" || v == "scalar";
}

}  // namespace

Crc32cUpdateFn HardwareCrc32c() {
  if (KilledByEnv()) return nullptr;
#if defined(LSDB_CRC_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return &UpdateSse42;
#elif defined(LSDB_CRC_ARMV8)
  return &UpdateArmv8;
#endif
  return nullptr;
}

}  // namespace lsdb::simd
