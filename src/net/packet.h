// Packet model for the LazyCtrl data plane.
//
// The overlay carries Ethernet-ish frames tagged with the owning tenant
// (the paper isolates tenants by VLAN id). Frames may be GRE-like
// encapsulated when crossing the IP underlay between edge switches
// (§IV-B "Encap action"); encapsulation adds a tunnel header addressing
// the remote switch's underlay IP.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/mac.h"
#include "common/time.h"

namespace lazyctrl::net {

enum class PacketKind : std::uint8_t {
  kData,        ///< Plain unicast data frame.
  kArpRequest,  ///< Broadcast "who has <dst>?" from a host.
  kArpReply,    ///< Unicast reply carrying the resolved location.
};

/// Overhead in bytes added by the GRE-like tunnel header.
constexpr std::uint32_t kEncapOverheadBytes = 42;

struct Packet {
  PacketKind kind = PacketKind::kData;
  MacAddress src_mac;
  MacAddress dst_mac;
  TenantId tenant;  ///< VLAN-equivalent isolation tag.
  std::uint32_t payload_bytes = 0;

  /// Creation timestamp for end-to-end latency accounting.
  SimTime created_at = 0;

  // --- tunnel header (valid only when `encapsulated`) ---
  bool encapsulated = false;
  IpAddress tunnel_src;
  IpAddress tunnel_dst;

  [[nodiscard]] std::uint32_t wire_bytes() const noexcept {
    return payload_bytes + (encapsulated ? kEncapOverheadBytes : 0);
  }
};

/// Wraps `p` in a tunnel header targeting `dst` (paper's Encap action).
/// Encapsulating an already-encapsulated packet is a programming error.
Packet encapsulate(const Packet& p, IpAddress src, IpAddress dst);

/// Strips the tunnel header; requires `p.encapsulated`.
Packet decapsulate(const Packet& p);

/// Builds an ARP request broadcast from `src` asking for `wanted`.
Packet make_arp_request(MacAddress src, MacAddress wanted, TenantId tenant,
                        SimTime now);

/// Builds the unicast ARP reply from `owner` back to `requester`.
Packet make_arp_reply(MacAddress owner, MacAddress requester, TenantId tenant,
                      SimTime now);

}  // namespace lazyctrl::net
