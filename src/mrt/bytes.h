// Big-endian byte buffer primitives for the MRT/BGP wire codecs.
//
// ByteWriter owns a growing buffer; ByteReader is a non-owning cursor over a
// span that throws DecodeError on underrun, so corrupt or truncated dumps
// surface as exceptions rather than silent misparses.  Each fixed-width read
// makes one range check; the message an underrun throws is built out of
// line, off the decoding path.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace asrank::mrt {

/// Raised for any malformed/truncated wire input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error("mrt: " + what) {}

  /// Rethrow tag for boundary wrappers: `what` is already a complete
  /// message (e.g. an Error context captured from a prior DecodeError) and
  /// must not be prefixed again.
  struct Passthrough {};
  DecodeError(Passthrough, const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_u32(std::uint32_t v) {
    put_u16(static_cast<std::uint16_t>(v >> 16));
    put_u16(static_cast<std::uint16_t>(v));
  }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void put_string(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Overwrite a previously written big-endian u16/u32 (for back-patching
  /// length fields).  Throws std::out_of_range if the slot is out of bounds.
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// The big-endian u32 at `p` (four readable bytes).
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t get_u16() {
    need(2);
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += 2;
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  }
  std::uint32_t get_u32() {
    if (remaining() < 4) [[unlikely]] {
      // The error is that of two u16 reads: the half that runs out names
      // the shortfall.
      if (remaining() >= 2) pos_ += 2;
      truncated(2);
    }
    const std::uint32_t value = load_u32(data_.data() + pos_);
    pos_ += 4;
    return value;
  }
  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    need(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::string get_string(std::size_t n) {
    const auto bytes = get_bytes(n);
    return std::string(bytes.begin(), bytes.end());
  }

  /// A sub-reader over the next n bytes (consumes them from this reader).
  ByteReader sub(std::size_t n) { return ByteReader(get_bytes(n)); }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) [[unlikely]] truncated(n);
  }
  /// Throw "truncated input: need n bytes, have remaining()".
  [[noreturn]] void truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace asrank::mrt
