#include "ckpt/io.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

namespace lazyctrl::ckpt {

namespace {

/// Loads a little-endian T from `src` (any alignment).
template <typename T>
T load_le(const void* src) {
  const auto* p = static_cast<const unsigned char*>(src);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Stores `v` little-endian at `dst` (any alignment).
template <typename T>
void store_le(void* dst, T v) {
  auto* p = static_cast<unsigned char*>(dst);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<unsigned char>(v >> (8 * i));
    }
  }
}

/// Appends `v` little-endian: one capacity check and one copy.
template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  unsigned char bytes[sizeof v];
  store_le(bytes, v);
  buf.insert(buf.end(), bytes, bytes + sizeof v);
}

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: table 0
/// is the classic bytewise table, and table k advances a byte's CRC
/// through k more zero bytes, so one step folds eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// header = magic u32 | version u32 | payload size u64 | payload crc u32.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le<std::uint32_t>(p);
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

std::string fourcc_name(std::uint32_t tag) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const auto c = static_cast<unsigned char>((tag >> (8 * i)) & 0xFF);
    if (c >= 0x20 && c < 0x7F) {
      name.push_back(static_cast<char>(c));
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02X", c);
      name += hex;
    }
  }
  return name;
}

// --- Writer ---

Writer::Writer() : buf_(kHeaderSize, 0) {}

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }
void Writer::u32(std::uint32_t v) { append_le(buf_, v); }
void Writer::u64(std::uint64_t v) { append_le(buf_, v); }
void Writer::i64(std::int64_t v) {
  append_le(buf_, static_cast<std::uint64_t>(v));
}
void Writer::f64(double v) {
  append_le(buf_, std::bit_cast<std::uint64_t>(v));
}

void Writer::str(std::string_view s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::begin_section(std::uint32_t tag) {
  u32(tag);
  section_len_at_ = buf_.size();
  u64(0);  // patched by end_section
}

void Writer::end_section() {
  const std::uint64_t body = buf_.size() - section_len_at_ - 8;
  store_le(buf_.data() + section_len_at_, body);
  section_len_at_ = std::string::npos;
}

std::vector<std::uint8_t> Writer::finish() {
  const std::string_view payload(
      reinterpret_cast<const char*>(buf_.data()) + kHeaderSize,
      buf_.size() - kHeaderSize);
  store_le(buf_.data(), kMagic);
  store_le(buf_.data() + 4, kFormatVersion);
  store_le(buf_.data() + 8, std::uint64_t{payload.size()});
  store_le(buf_.data() + 16, crc32(payload));
  return std::move(buf_);
}

// --- Reader ---

Reader::Reader(std::string_view bytes) : bytes_(bytes) {
  if (bytes_.size() < kHeaderSize) {
    error_ = "truncated snapshot: " + std::to_string(bytes_.size()) +
             " bytes, header needs " + std::to_string(kHeaderSize);
    return;
  }
  // Header reads bypass need(): the size check above covers them.
  const auto raw_u32 = [&](std::size_t at) {
    return load_le<std::uint32_t>(bytes_.data() + at);
  };
  if (raw_u32(0) != kMagic) {
    error_ = "offset 0: bad magic " + fourcc_name(raw_u32(0)) +
             " (expected LZCK) — not a snapshot file";
    return;
  }
  const std::uint32_t version = raw_u32(4);
  if (version != kFormatVersion) {
    error_ = "offset 4: snapshot format version " + std::to_string(version) +
             ", this build reads only version " +
             std::to_string(kFormatVersion) +
             " (re-create the snapshot with this build)";
    return;
  }
  const std::uint64_t payload = load_le<std::uint64_t>(bytes_.data() + 8);
  if (payload != bytes_.size() - kHeaderSize) {
    error_ = "offset 8: declared payload size " + std::to_string(payload) +
             " but file carries " +
             std::to_string(bytes_.size() - kHeaderSize) +
             " payload bytes (truncated or padded snapshot)";
    return;
  }
  const std::uint32_t want_crc = raw_u32(16);
  const std::uint32_t got_crc = crc32(bytes_.substr(kHeaderSize));
  if (want_crc != got_crc) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "offset 16: payload CRC mismatch (stored %08X, computed "
                  "%08X) — snapshot is corrupt",
                  want_crc, got_crc);
    error_ = msg;
    return;
  }
  pos_ = kHeaderSize;
}

bool Reader::need(std::size_t n, const char* what) {
  if (!ok()) return false;
  const std::size_t limit =
      section_end_ == std::string::npos ? bytes_.size() : section_end_;
  if (pos_ + n > limit) {
    fail(std::string("truncated while reading ") + what + " (" +
         std::to_string(n) + " bytes needed, " + std::to_string(limit - pos_) +
         (section_end_ == std::string::npos ? " left in file)"
                                            : " left in section)"));
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1, "u8")) return 0;
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Reader::u32() {
  if (!need(4, "u32")) return 0;
  const auto v = load_le<std::uint32_t>(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8, "u64")) return 0;
  const auto v = load_le<std::uint64_t>(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }
double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t len = u64();
  if (!ok()) return {};
  if (!need(len, "string body")) return {};
  std::string s(bytes_.substr(pos_, len));
  pos_ += len;
  return s;
}

std::uint64_t Reader::count(std::uint64_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (!ok()) return 0;
  const std::size_t limit =
      section_end_ == std::string::npos ? bytes_.size() : section_end_;
  const std::uint64_t left = limit - pos_;
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (n > left / min_element_bytes) {
    fail("element count " + std::to_string(n) + " cannot fit in the " +
         std::to_string(left) + " bytes remaining (corrupt length)");
    return 0;
  }
  return n;
}

bool Reader::enter_section(std::uint32_t tag) {
  if (!ok()) return false;
  if (section_end_ != std::string::npos) {
    fail("enter_section(" + fourcc_name(tag) + ") inside open section " +
         fourcc_name(section_tag_));
    return false;
  }
  const std::size_t at = pos_;
  const std::uint32_t got = u32();
  if (!ok()) return false;
  if (got != tag) {
    pos_ = at;
    fail("expected section " + fourcc_name(tag) + ", found " +
         fourcc_name(got));
    return false;
  }
  const std::uint64_t len = u64();
  if (!ok()) return false;
  if (pos_ + len > bytes_.size()) {
    fail("section " + fourcc_name(tag) + " declares " + std::to_string(len) +
         " body bytes but only " + std::to_string(bytes_.size() - pos_) +
         " remain (truncated section)");
    return false;
  }
  section_tag_ = tag;
  section_end_ = pos_ + len;
  return true;
}

void Reader::leave_section() {
  if (!ok()) return;
  if (section_end_ == std::string::npos) {
    fail("leave_section with no section open");
    return;
  }
  if (pos_ != section_end_) {
    fail("section " + fourcc_name(section_tag_) + " has " +
         std::to_string(section_end_ - pos_) +
         " unconsumed bytes (layout skew between writer and reader)");
    return;
  }
  section_end_ = std::string::npos;
  section_tag_ = 0;
}

void Reader::fail(const std::string& message) {
  if (!error_.empty()) return;  // first error sticks
  std::string where = "offset " + std::to_string(pos_);
  if (section_end_ != std::string::npos) {
    where += " (section " + fourcc_name(section_tag_) + ")";
  }
  error_ = where + ": " + message;
  // Park the cursor so every subsequent read fails the bounds check
  // instead of advancing through garbage.
  pos_ = bytes_.size();
  section_end_ = std::string::npos;
}

}  // namespace lazyctrl::ckpt
