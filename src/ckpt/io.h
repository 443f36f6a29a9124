// Binary snapshot I/O: the framing layer of src/ckpt.
//
// A snapshot file is a fixed header followed by a sequence of length-
// prefixed sections in a fixed order:
//
//   header   = magic "LZCK" (u32) | format version (u32)
//            | payload size (u64) | payload CRC-32 (u32)
//   payload  = section*
//   section  = fourcc (u32) | body length (u64) | body bytes
//
// All integers are little-endian whatever the host; doubles travel as
// their IEEE-754 bit pattern (bit-identity is the whole point of the
// format). The Writer builds the snapshot in one buffer behind a reserved
// header, appends each word with one copy, and stamps the header in place
// in finish(), so a save never copies the snapshot (0.45-3.3 MB for the
// bench/e2e workloads); the Reader validates magic/version/size/CRC up
// front and then serves typed reads with hard bounds checks. The CRC-32
// runs slicing-by-8 (eight bytes per table step) on every save and every
// restore. Any malformed input —
// truncation, a bad CRC, a version skew, a wrong section tag, an
// oversized length — turns the Reader into a sticky failed state carrying
// a byte-offset-diagnosed error string. It never throws and never reads out of bounds, so a
// corrupt snapshot fails with a message, not a crash (tests/ckpt_test.cpp
// drives every section through this contract).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lazyctrl::ckpt {

/// "LZCK" little-endian.
constexpr std::uint32_t kMagic = 0x4B435A4CU;
/// Bumped on any incompatible layout change; readers reject other
/// versions outright (no cross-version migration — snapshots are
/// build-local artifacts, see docs/SCENARIOS.md "Checkpoint & resume").
constexpr std::uint32_t kFormatVersion = 6;

/// Section tag from a 4-character literal, e.g. fourcc("SIMU").
constexpr std::uint32_t fourcc(const char (&tag)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

/// Human-readable rendering of a tag for diagnostics ("SIMU", or a hex
/// escape for non-printable bytes).
[[nodiscard]] std::string fourcc_name(std::uint32_t tag);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

class Writer {
 public:
  Writer();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u64 length + raw bytes.
  void str(std::string_view s);

  /// Opens a section; every write until end_section() lands in its body.
  /// Sections do not nest.
  void begin_section(std::uint32_t tag);
  void end_section();

  /// Stamps the header (size + CRC) and returns the complete snapshot.
  /// The writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buf_;  ///< reserved header, then the payload
  /// Offset of the open section's length field (npos = none open).
  std::size_t section_len_at_ = std::string::npos;
};

class Reader {
 public:
  /// Validates magic, version, payload size and CRC. On any mismatch the
  /// reader starts out failed (ok() == false) with a diagnosed error.
  explicit Reader(std::string_view bytes);

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Typed reads. After a failure every read returns 0/empty and the
  /// first error sticks, so decoding code can run straight-line and
  /// check ok() once per section.
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

  /// Reads a u64 element count and validates it against the bytes
  /// actually remaining (each element occupying at least
  /// `min_element_bytes`), so a corrupt length can never drive an
  /// allocation bomb or an out-of-bounds loop. Returns 0 on failure.
  std::uint64_t count(std::uint64_t min_element_bytes);

  /// Expects the next section to be tagged `tag`; enters its body.
  bool enter_section(std::uint32_t tag);
  /// Closes the current section; the body must be fully consumed.
  void leave_section();

  /// Records a semantic failure (decoded values that cannot be applied),
  /// diagnosed with the current byte offset like any framing error.
  void fail(const std::string& message);

  /// Absolute offset of the next unread byte (for external diagnostics).
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

 private:
  [[nodiscard]] bool need(std::size_t n, const char* what);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  /// End of the current section's body (npos = not inside a section).
  std::size_t section_end_ = std::string::npos;
  std::uint32_t section_tag_ = 0;
  std::string error_;
};

}  // namespace lazyctrl::ckpt
