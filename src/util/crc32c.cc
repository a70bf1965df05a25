#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace soreorg {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C polynomial

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  // Bytes up to an 8-byte boundary, then whole words, then the tail.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; --n) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

bool HaveSse42() { return __builtin_cpu_supports("sse4.2"); }
#endif

}  // namespace

uint32_t ExtendBytewise(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool IsHardwareAccelerated() {
#if defined(__x86_64__)
  static const bool hw = HaveSse42();
  return hw;
#else
  return false;
#endif
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (IsHardwareAccelerated()) return ExtendSse42(init_crc, data, n);
#endif
  return ExtendBytewise(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace soreorg
