#include "ckpt/io.h"

#include <array>
#include <bit>
#include <cstdio>
#include <utility>

namespace lazyctrl::ckpt {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

/// header = magic u32 | version u32 | payload size u64 | payload crc u32.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

void append_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void patch_u32(std::vector<std::uint8_t>& buf, std::size_t at,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

void patch_u64(std::vector<std::uint8_t>& buf, std::size_t at,
               std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : bytes) {
    c = kCrcTable[(c ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (c >> 8);
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
void Writer::u32(std::uint32_t v) { append_u32(buf_, v); }
void Writer::u64(std::uint64_t v) { append_u64(buf_, v); }
void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

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
  patch_u64(buf_, section_len_at_, body);
  section_len_at_ = std::string::npos;
}

std::vector<std::uint8_t> Writer::finish() {
  const std::string_view payload(
      reinterpret_cast<const char*>(buf_.data()) + kHeaderSize,
      buf_.size() - kHeaderSize);
  patch_u32(buf_, 0, kMagic);
  patch_u32(buf_, 4, kFormatVersion);
  patch_u64(buf_, 8, payload.size());
  patch_u32(buf_, 16, crc32(payload));
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
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    return v;
  };
  const auto raw_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    return v;
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
  const std::uint64_t payload = raw_u64(8);
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
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8, "u64")) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << (8 * i);
  }
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
