#ifndef SQUERY_STORAGE_CRC32C_H_
#define SQUERY_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sq::storage {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum RocksDB/LevelDB use for log records, and the one every wire
/// frame carries. On x86-64 CPUs with SSE4.2 it runs on the `crc32`
/// instruction, 8 bytes per step; elsewhere a byte-at-a-time table loop
/// computes the same values.

/// Extends `crc` (a previous Crc32c result, or 0 for a fresh run) with
/// `size` bytes at `data`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

inline uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

namespace internal_crc32c {
/// The two implementations behind Crc32cExtend, exposed so tests can check
/// that they agree. ExtendHardware falls back to the table loop off x86-64;
/// on x86-64 it may only be called when HasHardware() is true.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t size);
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t size);
bool HasHardware();
}  // namespace internal_crc32c

/// Masked CRC in the style of LevelDB: storing the raw CRC of data that
/// itself contains CRCs is error-prone, so persisted checksums are rotated
/// and offset.
uint32_t MaskCrc(uint32_t crc);
uint32_t UnmaskCrc(uint32_t masked);

}  // namespace sq::storage

#endif  // SQUERY_STORAGE_CRC32C_H_
