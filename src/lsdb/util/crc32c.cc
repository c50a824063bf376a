#include "lsdb/util/crc32c.h"

#include "lsdb/simd/crc32c_hw.h"

namespace lsdb {
namespace crc32c {

namespace {

/// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

}  // namespace

uint32_t ComputePortable(const void* data, size_t n, uint32_t init) {
  const Tables& tb = tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  // Slice-by-8 over the aligned bulk; byte-at-a-time head/tail.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  while (n >= 8) {
    uint32_t lo, hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  return ~crc;
}

uint32_t Compute(const void* data, size_t n, uint32_t init) {
  static const simd::Crc32cUpdateFn kHardware = simd::HardwareCrc32c();
  if (kHardware == nullptr) return ComputePortable(data, n, init);
  return ~kHardware(~init, static_cast<const uint8_t*>(data), n);
}

}  // namespace crc32c
}  // namespace lsdb
