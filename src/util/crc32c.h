// CRC32C (Castagnoli) for WAL record and checkpoint integrity checking.

#ifndef SOREORG_UTIL_CRC32C_H_
#define SOREORG_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace soreorg {
namespace crc32c {

/// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the crc32c
/// of some string A. Uses the SSE4.2 crc32 instruction when the CPU has it
/// (checked once, at the first call) and ExtendBytewise otherwise.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// One byte per table lookup: the fallback on CPUs without SSE4.2, and the
/// reference the hardware path is tested against.
uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the hardware instruction.
bool IsHardwareAccelerated();

/// Return the crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Mask a crc so that storing a crc next to the data it covers does not
/// produce degenerate self-referential checksums (the RocksDB trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace soreorg

#endif  // SOREORG_UTIL_CRC32C_H_
