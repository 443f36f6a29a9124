// MAC and IPv4 address value types.
//
// LazyCtrl's data plane is an L2 overlay over an IP underlay: hosts are
// addressed by MAC, edge switches by underlay IP. Both types are small value
// types with total ordering so they can key FIB tables. A host's MAC is a
// function of its index (MacAddress::for_host), and MacAddress::host_index
// inverts it, so state kept per host (the topology's host table, the
// controller's C-LIB) is an array indexed by host, not a hash map keyed by
// MAC.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace lazyctrl {

/// A 48-bit Ethernet MAC address stored in the low bits of a uint64.
class MacAddress {
 public:
  constexpr MacAddress() noexcept = default;
  constexpr explicit MacAddress(std::uint64_t bits) noexcept
      : bits_(bits & kMask) {}

  /// Deterministically derives the MAC assigned to host `host_index`:
  /// 0x02 (locally administered, unicast) in the first octet, 0 in the
  /// second and the index in the low 32 bits. Generated MACs never
  /// collide with the broadcast address or with switch management MACs
  /// (first octet 0x06).
  static constexpr MacAddress for_host(std::uint32_t host_index) noexcept {
    return MacAddress{(kHostPrefix << 32) | host_index};
  }

  /// The inverse of for_host: the index of the host this MAC belongs to,
  /// or nullopt for a MAC outside the host scheme (bits above 32 other
  /// than 0x0200: a management MAC, the broadcast MAC). Whether a host
  /// with that index exists is the caller's question.
  [[nodiscard]] constexpr std::optional<std::uint32_t> host_index()
      const noexcept {
    if ((bits_ >> 32) != kHostPrefix) return std::nullopt;
    return static_cast<std::uint32_t>(bits_);
  }

  static constexpr MacAddress broadcast() noexcept {
    return MacAddress{kMask};
  }

  [[nodiscard]] constexpr std::uint64_t bits() const noexcept { return bits_; }
  [[nodiscard]] constexpr bool is_broadcast() const noexcept {
    return bits_ == kMask;
  }

  /// "aa:bb:cc:dd:ee:ff" rendering for logs and debugging.
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(MacAddress a, MacAddress b) noexcept {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(MacAddress a, MacAddress b) noexcept {
    return a.bits_ != b.bits_;
  }
  friend constexpr bool operator<(MacAddress a, MacAddress b) noexcept {
    return a.bits_ < b.bits_;
  }

 private:
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;
  /// Bits 32-47 of every host MAC: first octet 0x02, second octet 0.
  static constexpr std::uint64_t kHostPrefix = 0x0200;
  std::uint64_t bits_ = 0;
};

/// A 32-bit IPv4 address (used for the underlay and tunnel endpoints).
class IpAddress {
 public:
  constexpr IpAddress() noexcept = default;
  constexpr explicit IpAddress(std::uint32_t bits) noexcept : bits_(bits) {}

  /// Underlay address assigned to edge switch `switch_index` (10.0.0.0/8).
  static constexpr IpAddress for_switch(std::uint32_t switch_index) noexcept {
    return IpAddress{(std::uint32_t{10} << 24) | (switch_index & 0xFFFFFF)};
  }

  [[nodiscard]] constexpr std::uint32_t bits() const noexcept { return bits_; }

  /// Dotted-quad rendering.
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(IpAddress a, IpAddress b) noexcept {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(IpAddress a, IpAddress b) noexcept {
    return a.bits_ != b.bits_;
  }
  friend constexpr bool operator<(IpAddress a, IpAddress b) noexcept {
    return a.bits_ < b.bits_;
  }

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace lazyctrl

namespace std {
template <>
struct hash<lazyctrl::IpAddress> {
  size_t operator()(lazyctrl::IpAddress ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.bits());
  }
};
}  // namespace std
