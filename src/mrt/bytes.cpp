#include "mrt/bytes.h"

namespace asrank::mrt {

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  patch_u16(offset, static_cast<std::uint16_t>(v >> 16));
  patch_u16(offset + 2, static_cast<std::uint16_t>(v));
}

void ByteReader::truncated(std::size_t n) const {
  throw DecodeError("truncated input: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()));
}

}  // namespace asrank::mrt
