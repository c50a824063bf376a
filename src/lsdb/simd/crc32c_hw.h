// Hardware CRC-32C kernels: the SSE4.2 `crc32` instruction on x86-64 and
// the ARMv8 CRC32 extension on AArch64 (when the compiler targets it).
//
// Like simd.cc, this is one of the translation units where vector and
// CRC intrinsics are allowed (lsdb_lint rule lsdb-raw-intrinsic). Callers
// never use it directly: util/crc32c.h dispatches to it once, at first
// use, and keeps the portable slice-by-8 table walk as the always-compiled
// oracle that the differential tests in tests/storage_test.cc compare
// against. -DLSDB_SIMD=off compiles no kernel, and the LSDB_SIMD=off or
// LSDB_SIMD=scalar environment kill switch selects none at run time.

#ifndef LSDB_SIMD_CRC32C_HW_H_
#define LSDB_SIMD_CRC32C_HW_H_

#include <cstddef>
#include <cstdint>

namespace lsdb::simd {

/// Raw CRC-32C register update: folds `n` bytes at `p` (any alignment)
/// into `crc`, with no pre- or post-inversion (crc32c::Compute adds those).
using Crc32cUpdateFn = uint32_t (*)(uint32_t crc, const uint8_t* p, size_t n);

/// The hardware kernel for this CPU, or null when there is none: not
/// compiled in, the CPU lacks the instruction, or the environment's
/// LSDB_SIMD is `off` or `scalar`.
Crc32cUpdateFn HardwareCrc32c();

}  // namespace lsdb::simd

#endif  // LSDB_SIMD_CRC32C_HW_H_
