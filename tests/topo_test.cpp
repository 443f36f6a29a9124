// Tests for the topology model and the multi-tenant builder.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "topo/builder.h"
#include "topo/topology.h"

namespace lazyctrl::topo {
namespace {

TEST(TopologyTest, AddSwitchAssignsDenseIdsAndAddresses) {
  Topology t;
  const SwitchId s0 = t.add_switch();
  const SwitchId s1 = t.add_switch();
  EXPECT_EQ(s0.value(), 0u);
  EXPECT_EQ(s1.value(), 1u);
  EXPECT_NE(t.switch_info(s0).underlay_ip, t.switch_info(s1).underlay_ip);
  EXPECT_NE(t.switch_info(s0).management_mac,
            t.switch_info(s1).management_mac);
}

TEST(TopologyTest, ManagementMacsDistinctFromHostMacs) {
  Topology t;
  const SwitchId s = t.add_switch();
  const HostId h = t.add_host(TenantId{0}, s);
  EXPECT_NE(t.switch_info(s).management_mac, t.host_info(h).mac);
}

TEST(TopologyTest, AddHostAttaches) {
  Topology t;
  const SwitchId s = t.add_switch();
  const HostId h = t.add_host(TenantId{3}, s);
  const HostInfo& info = t.host_info(h);
  EXPECT_EQ(info.tenant, TenantId{3});
  EXPECT_EQ(info.attached_switch, s);
  ASSERT_EQ(t.hosts_on_switch(s).size(), 1u);
  EXPECT_EQ(t.hosts_on_switch(s)[0], h);
}

TEST(TopologyTest, FindHostByMac) {
  Topology t;
  const SwitchId s = t.add_switch();
  const HostId h = t.add_host(TenantId{0}, s);
  const HostInfo* found = t.find_host_by_mac(t.host_info(h).mac);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, h);
  EXPECT_EQ(t.find_host_by_mac(MacAddress{0xdeadbeef}), nullptr);
}

TEST(TopologyTest, FindHostByMacFindsOnlyHostsOfThisTopology) {
  Topology t;
  const SwitchId s = t.add_switch();
  for (int i = 0; i < 5; ++i) t.add_host(TenantId{0}, s);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const HostInfo* found = t.find_host_by_mac(MacAddress::for_host(i));
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(found->id, HostId{i});
  }
  // An index at or past the host count, a switch's management MAC and
  // the broadcast MAC name no host.
  EXPECT_EQ(t.find_host_by_mac(MacAddress::for_host(5)), nullptr);
  EXPECT_EQ(t.find_host_by_mac(MacAddress::for_host(0xFFFF'FFFF)), nullptr);
  EXPECT_EQ(t.find_host_by_mac(t.switch_info(s).management_mac), nullptr);
  EXPECT_EQ(t.find_host_by_mac(MacAddress::broadcast()), nullptr);
  EXPECT_EQ(Topology{}.find_host_by_mac(MacAddress::for_host(0)), nullptr);
}

TEST(TopologyTest, MigrationMovesHost) {
  Topology t;
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const HostId h = t.add_host(TenantId{0}, a);
  const SwitchId from = t.migrate_host(h, b);
  EXPECT_EQ(from, a);
  EXPECT_EQ(t.host_info(h).attached_switch, b);
  EXPECT_TRUE(t.hosts_on_switch(a).empty());
  ASSERT_EQ(t.hosts_on_switch(b).size(), 1u);
}

TEST(TopologyTest, MigrationToSameSwitchIsNoop) {
  Topology t;
  const SwitchId a = t.add_switch();
  const HostId h = t.add_host(TenantId{0}, a);
  EXPECT_EQ(t.migrate_host(h, a), a);
  EXPECT_EQ(t.hosts_on_switch(a).size(), 1u);
}

TEST(TopologyTest, SwitchesOfTenant) {
  Topology t;
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  t.add_switch();
  t.add_host(TenantId{1}, a);
  t.add_host(TenantId{1}, b);
  t.add_host(TenantId{2}, b);
  const auto spans = t.switches_of_tenant(TenantId{1});
  EXPECT_EQ(spans, (std::vector<SwitchId>{a, b}));
  EXPECT_EQ(t.switches_of_tenant(TenantId{2}).size(), 1u);
  EXPECT_TRUE(t.switches_of_tenant(TenantId{9}).empty());
}

TEST(BuilderTest, RespectsCounts) {
  Rng rng(1);
  MultiTenantOptions opt;
  opt.switch_count = 20;
  opt.tenant_count = 10;
  opt.min_vms_per_tenant = 20;
  opt.max_vms_per_tenant = 40;
  const Topology t = build_multi_tenant(opt, rng);
  EXPECT_EQ(t.switch_count(), 20u);
  EXPECT_GE(t.host_count(), 200u);
  EXPECT_LE(t.host_count(), 400u);
}

TEST(BuilderTest, TenantSizesWithinBounds) {
  Rng rng(2);
  MultiTenantOptions opt;
  opt.switch_count = 30;
  opt.tenant_count = 25;
  const Topology t = build_multi_tenant(opt, rng);
  std::map<std::uint32_t, std::size_t> sizes;
  for (const HostInfo& h : t.hosts()) ++sizes[h.tenant.value()];
  EXPECT_EQ(sizes.size(), 25u);
  for (const auto& [tenant, n] : sizes) {
    EXPECT_GE(n, opt.min_vms_per_tenant);
    EXPECT_LE(n, opt.max_vms_per_tenant);
  }
}

TEST(BuilderTest, TenantsAreConcentratedOnFewSwitches) {
  Rng rng(3);
  MultiTenantOptions opt;
  opt.switch_count = 100;
  opt.tenant_count = 40;
  opt.vms_per_switch = 24;
  const Topology t = build_multi_tenant(opt, rng);
  for (std::uint32_t tenant = 0; tenant < 40; ++tenant) {
    const auto span = t.switches_of_tenant(TenantId{tenant});
    // 20-100 VMs at ~24/switch => span of at most ceil(100/24) = 5.
    EXPECT_LE(span.size(), 5u) << "tenant " << tenant;
    EXPECT_GE(span.size(), 1u);
  }
}

TEST(BuilderTest, DeterministicForSeed) {
  MultiTenantOptions opt;
  opt.switch_count = 10;
  opt.tenant_count = 5;
  Rng r1(42), r2(42);
  const Topology a = build_multi_tenant(opt, r1);
  const Topology b = build_multi_tenant(opt, r2);
  ASSERT_EQ(a.host_count(), b.host_count());
  for (std::size_t i = 0; i < a.host_count(); ++i) {
    EXPECT_EQ(a.hosts()[i].attached_switch, b.hosts()[i].attached_switch);
    EXPECT_EQ(a.hosts()[i].tenant, b.hosts()[i].tenant);
  }
}

}  // namespace
}  // namespace lazyctrl::topo
