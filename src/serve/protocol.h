// asrankd wire protocol (see docs/SERVING.md for the normative spec).
//
// A connection carries a sequence of independent request/response exchanges
// in either of two interleavable modes, distinguished by the first byte of
// each request:
//
//   * Binary: marker byte 0x01, then a u32 little-endian payload length,
//     then the payload (u8 opcode + fixed-width little-endian operands).
//     Responses are framed identically; the payload starts with a u8 status
//     (0 = OK, 1 = error) followed by the opcode-specific body.
//   * Text (for debugging with `nc`): any other first byte starts a
//     newline-terminated ASCII command ("REL 174 3356\n"); the response is
//     one "OK ..." or "ERR ..." line.
//
// Everything here is shared by the server, the client library, and the
// tests, so the two sides cannot drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/relationship.h"
#include "util/result.h"

namespace asrank::serve {

/// Raised on malformed frames, oversized payloads, or socket failures.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

/// Raised by the deadline-aware I/O helpers when the deadline expires before
/// the requested bytes arrive.  A subclass so existing catch(ProtocolError)
/// sites keep working while deadline-aware callers can count timeouts
/// separately.
class TimeoutError : public ProtocolError {
 public:
  explicit TimeoutError(const std::string& what) : ProtocolError(what) {}
};

inline constexpr std::uint8_t kBinaryMarker = 0x01;
/// Upper bound on any frame payload; larger lengths are treated as corrupt
/// framing rather than an allocation request.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class Op : std::uint8_t {
  kRelationship = 1,   ///< a, b -> rel code (from a's perspective)
  kRank = 2,           ///< a -> u32 rank (0 = unranked/unknown)
  kConeSize = 3,       ///< a -> u64
  kCone = 4,           ///< a -> asn list
  kInCone = 5,         ///< a, member -> u8 bool
  kProviders = 6,      ///< a -> asn list
  kCustomers = 7,      ///< a -> asn list
  kPeers = 8,          ///< a -> asn list
  kTop = 9,            ///< n -> entries {u32 rank, u32 asn, u64 cone, u32 tdeg}
  kConeIntersect = 10, ///< a, b -> asn list (derived)
  kPathToClique = 11,  ///< a -> asn list, a..clique member (derived)
  kClique = 12,        ///< -> asn list
  kStats = 13,         ///< -> UTF-8 stats text
  kPing = 14,          ///< -> empty
  kMetrics = 15,       ///< -> Prometheus text exposition (UTF-8)
  kEpochs = 16,        ///< -> u32 count + {str16 label} list, current first
  kConeDiff = 17,      ///< asn, str16 epochA, str16 epochB -> added + removed lists
  kReload = 18,        ///< str16 path, str16 label ("" = derive) -> str16 label + u32 ases
  kWithEpoch = 19,     ///< str16 label + inner request payload, answered from that epoch
  kDisagree = 20,      ///< str16 algoA, str16 algoB, u32 limit (0 = all) ->
                       ///< u32 total, u32 returned, entries {u32 a, u32 b,
                       ///< u8 relA, u8 relB} over the union of links, ascending
                       ///< (a, b) with a < b; kRelNone marks an absent link
  kWithAlgo = 21,      ///< str16 algorithm + inner request payload, answered by
                       ///< that algorithm's section of the epoch (nests inside
                       ///< WITH_EPOCH; engine ops nest inside it)
  kAlgos = 22,         ///< -> u32 count + {str16 name} list, the scoped epoch's
                       ///< algorithm sections, primary first (nests inside
                       ///< WITH_EPOCH only; rejected inside WITH_ALGO)
};

enum class Status : std::uint8_t { kOk = 0, kError = 1 };

/// Relationship byte: RelView values 0..3, or kRelNone for "no such link".
inline constexpr std::uint8_t kRelNone = 0xFF;

[[nodiscard]] std::optional<RelView> rel_from_code(std::uint8_t code) noexcept;

// ------------------------------------------------------- payload codecs --

/// Little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void text(std::string_view s);
  /// u16 length prefix + raw bytes (epoch labels, snapshot paths).
  void str16(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Little-endian payload cursor; underruns yield ErrorCode::kTruncated (the
/// server turns the Error into an error response, the client into a
/// ProtocolError — neither side treats a short payload as an exception
/// internally).
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Inverse of WireWriter::str16.
  Result<std::string> str16();
  /// The rest of the payload as raw bytes (for nested-request dispatch).
  [[nodiscard]] std::span<const std::uint8_t> rest() const noexcept {
    return data_.subspan(pos_);
  }
  /// The rest of the payload as UTF-8 text.
  [[nodiscard]] std::string rest_as_text();

 private:
  [[nodiscard]] Result<void> need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ frame I/O --

/// Write one binary frame (marker + length + payload) to `fd`; retries on
/// partial writes/EINTR, throws ProtocolError on socket failure.
void write_frame(int fd, std::span<const std::uint8_t> payload);

/// Read one binary frame payload after the 0x01 marker has already been
/// consumed.  Throws on malformed length or short read.
[[nodiscard]] std::vector<std::uint8_t> read_frame_body(int fd);

/// Read exactly n bytes; returns false on clean EOF at offset 0, throws on
/// mid-message EOF or socket error.
bool read_exact(int fd, void* buf, std::size_t n);

/// Deadline-aware read_exact: poll before every read() so a stalled peer
/// cannot pin the caller.  `deadline_ms` is a budget for the whole n bytes;
/// < 0 disables the deadline (plain blocking semantics).  Expiry throws
/// TimeoutError.
bool read_exact(int fd, void* buf, std::size_t n, int deadline_ms);

/// Deadline-aware read_frame_body; `deadline_ms` covers length + payload.
[[nodiscard]] std::vector<std::uint8_t> read_frame_body(int fd, int deadline_ms);

/// Write all n bytes, retrying on partial writes.
void write_all(int fd, const void* buf, std::size_t n);

}  // namespace asrank::serve
