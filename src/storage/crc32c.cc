#include "storage/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sq::storage {

namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

constexpr uint32_t kMaskDelta = 0xA282EAD8u;

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes this same polynomial: 8 bytes per
/// step, then the tail byte by byte.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; size >= 8; size -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; size > 0; --size, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

namespace internal_crc32c {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool HasHardware() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__)
  return ExtendSse42(crc, data, size);
#else
  return ExtendPortable(crc, data, size);
#endif
}

}  // namespace internal_crc32c

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  return internal_crc32c::HasHardware()
             ? internal_crc32c::ExtendHardware(crc, data, size)
             : internal_crc32c::ExtendPortable(crc, data, size);
}

uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace sq::storage
