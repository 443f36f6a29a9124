// Tests for the packet model: encapsulation and ARP helpers.
#include <gtest/gtest.h>

#include "net/packet.h"

namespace lazyctrl::net {
namespace {

Packet sample_data_packet() {
  Packet p;
  p.kind = PacketKind::kData;
  p.src_mac = MacAddress::for_host(1);
  p.dst_mac = MacAddress::for_host(2);
  p.tenant = TenantId{7};
  p.payload_bytes = 900;
  p.created_at = 12345;
  return p;
}

TEST(PacketTest, EncapsulateAddsTunnelHeader) {
  const Packet p = sample_data_packet();
  const Packet e = encapsulate(p, IpAddress::for_switch(1),
                               IpAddress::for_switch(2));
  EXPECT_TRUE(e.encapsulated);
  EXPECT_EQ(e.tunnel_src, IpAddress::for_switch(1));
  EXPECT_EQ(e.tunnel_dst, IpAddress::for_switch(2));
  // Inner frame untouched.
  EXPECT_EQ(e.src_mac, p.src_mac);
  EXPECT_EQ(e.dst_mac, p.dst_mac);
  EXPECT_EQ(e.tenant, p.tenant);
  EXPECT_EQ(e.kind, p.kind);
  EXPECT_EQ(e.payload_bytes, p.payload_bytes);
  EXPECT_EQ(e.created_at, p.created_at);
}

TEST(PacketTest, WireBytesIncludesOverheadOnlyWhenEncapsulated) {
  const Packet p = sample_data_packet();
  EXPECT_EQ(p.wire_bytes(), 900u);
  const Packet e = encapsulate(p, IpAddress{1}, IpAddress{2});
  EXPECT_EQ(e.wire_bytes(), 900u + kEncapOverheadBytes);
}

TEST(PacketTest, DecapsulateRestoresPlainPacket) {
  const Packet p = sample_data_packet();
  const Packet e = encapsulate(p, IpAddress{1}, IpAddress{2});
  const Packet d = decapsulate(e);
  EXPECT_FALSE(d.encapsulated);
  EXPECT_EQ(d.wire_bytes(), p.wire_bytes());
  EXPECT_EQ(d.tunnel_dst, IpAddress{});
}

TEST(PacketTest, ArpRequestShape) {
  const Packet p = make_arp_request(MacAddress::for_host(3),
                                    MacAddress::for_host(9), TenantId{1}, 42);
  EXPECT_EQ(p.kind, PacketKind::kArpRequest);
  EXPECT_EQ(p.src_mac, MacAddress::for_host(3));
  EXPECT_EQ(p.dst_mac, MacAddress::for_host(9));
  EXPECT_EQ(p.created_at, 42);
  EXPECT_FALSE(p.encapsulated);
}

TEST(PacketTest, ArpReplyShape) {
  const Packet p = make_arp_reply(MacAddress::for_host(9),
                                  MacAddress::for_host(3), TenantId{1}, 50);
  EXPECT_EQ(p.kind, PacketKind::kArpReply);
  EXPECT_EQ(p.src_mac, MacAddress::for_host(9));
  EXPECT_EQ(p.dst_mac, MacAddress::for_host(3));
}

}  // namespace
}  // namespace lazyctrl::net
