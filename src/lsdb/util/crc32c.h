// Copyright (c) lsdb authors. Licensed under the MIT license.
//
// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
// Used as the 4-byte page-trailer checksum in the storage layer: the
// BufferPool stamps it on every page written back and verifies it on every
// page read, turning silent on-disk corruption (bit flips, torn writes)
// into a typed Status::Corruption instead of garbage traversal.
//
// Compute() runs a hardware kernel when the CPU has one (SSE4.2 crc32 on
// x86-64, the ARMv8 CRC32 extension on AArch64; see simd/crc32c_hw.h),
// chosen once at first use. ComputePortable() is the slice-by-8 table walk:
// always compiled, identical on every platform, and the oracle the
// differential tests hold the hardware kernel to. -DLSDB_SIMD=off or the
// LSDB_SIMD=off|scalar environment variable keeps Compute() on it.

#ifndef LSDB_UTIL_CRC32C_H_
#define LSDB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lsdb {
namespace crc32c {

/// CRC-32C of `n` bytes at `data`. `init` chains computations: pass the
/// previous result to extend a running checksum, 0 to start fresh.
uint32_t Compute(const void* data, size_t n, uint32_t init = 0);

/// Compute() on the portable slice-by-8 path, whatever the CPU.
uint32_t ComputePortable(const void* data, size_t n, uint32_t init = 0);

}  // namespace crc32c
}  // namespace lsdb

#endif  // LSDB_UTIL_CRC32C_H_
