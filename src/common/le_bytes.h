// Little-endian fixed-width integers: the byte order of the delta WAL's
// segment headers and records and of the server's wire frames. Callers
// check bounds; these read and write exactly 4 or 8 bytes.
#ifndef STANDOFF_COMMON_LE_BYTES_H_
#define STANDOFF_COMMON_LE_BYTES_H_

#include <cstdint>
#include <string>

namespace standoff {

inline void StoreU32(char* p, uint32_t value) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(value >> (8 * i));
}

inline void StoreU64(char* p, uint64_t value) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(value >> (8 * i));
}

inline void AppendU32(std::string* out, uint32_t value) {
  char bytes[4];
  StoreU32(bytes, value);
  out->append(bytes, 4);
}

inline void AppendU64(std::string* out, uint64_t value) {
  char bytes[8];
  StoreU64(bytes, value);
  out->append(bytes, 8);
}

inline uint32_t LoadU32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return value;
}

inline uint64_t LoadU64(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return value;
}

}  // namespace standoff

#endif  // STANDOFF_COMMON_LE_BYTES_H_
