// Unit tests for the central controller: C-LIB, the cluster queueing
// model, and the regrouping-trigger bookkeeping.
#include <gtest/gtest.h>

#include "core/controller.h"

namespace lazyctrl::core {
namespace {

Config config_with(SimDuration service, std::size_t servers = 1) {
  Config c;
  c.latency.controller_service = service;
  c.controller.servers = servers;
  return c;
}

TEST(ControllerClibTest, LearnLookupForget) {
  CentralController ctrl(Config{});
  const MacAddress mac = MacAddress::for_host(4);
  ctrl.clib_learn(mac, HostId{4}, TenantId{1}, SwitchId{9});
  const auto entry = ctrl.clib_lookup(mac);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->host, HostId{4});
  EXPECT_EQ(entry->attached_switch, SwitchId{9});
  ctrl.clib_forget(mac);
  EXPECT_FALSE(ctrl.clib_lookup(mac).has_value());
}

TEST(ControllerClibTest, RelearnUpdatesLocation) {
  CentralController ctrl(Config{});
  const MacAddress mac = MacAddress::for_host(1);
  ctrl.clib_learn(mac, HostId{1}, TenantId{0}, SwitchId{2});
  ctrl.clib_learn(mac, HostId{1}, TenantId{0}, SwitchId{5});  // migration
  EXPECT_EQ(ctrl.clib_lookup(mac)->attached_switch, SwitchId{5});
  EXPECT_EQ(ctrl.clib_size(), 1u);
}

TEST(ControllerClibTest, OutOfOrderLearnForgetRelearn) {
  CentralController ctrl(Config{}, 8);
  const auto learn = [&](std::uint32_t h, std::uint32_t sw) {
    ctrl.clib_learn(MacAddress::for_host(h), HostId{h}, TenantId{h % 3},
                    SwitchId{sw});
  };
  for (const std::uint32_t h : {6u, 2u, 7u, 0u}) learn(h, h + 10);
  EXPECT_EQ(ctrl.clib_size(), 4u);
  for (std::uint32_t h = 0; h < 8; ++h) {
    const bool learned = h == 0 || h == 2 || h == 6 || h == 7;
    const auto entry = ctrl.clib_lookup(MacAddress::for_host(h));
    ASSERT_EQ(entry.has_value(), learned) << h;
    if (!learned) continue;
    EXPECT_EQ(entry->host, HostId{h});
    EXPECT_EQ(entry->tenant, TenantId{h % 3});
    EXPECT_EQ(entry->attached_switch, SwitchId{h + 10});
  }
  // Forgetting twice, or forgetting an absent host, changes nothing.
  ctrl.clib_forget(MacAddress::for_host(2));
  ctrl.clib_forget(MacAddress::for_host(2));
  ctrl.clib_forget(MacAddress::for_host(3));
  EXPECT_EQ(ctrl.clib_size(), 3u);
  EXPECT_FALSE(ctrl.clib_lookup(MacAddress::for_host(2)).has_value());
  learn(2, 20);
  EXPECT_EQ(ctrl.clib_size(), 4u);
  EXPECT_EQ(ctrl.clib_lookup(MacAddress::for_host(2))->attached_switch,
            SwitchId{20});
  // A host past the sized range grows the C-LIB.
  learn(40, 1);
  EXPECT_EQ(ctrl.clib_size(), 5u);
  EXPECT_EQ(ctrl.clib_lookup(MacAddress::for_host(40))->host, HostId{40});
  EXPECT_FALSE(ctrl.clib_lookup(MacAddress::for_host(39)).has_value());
}

TEST(ControllerClibTest, MacsOutsideTheHostSchemeAreNeverFound) {
  CentralController ctrl(Config{});
  ctrl.clib_learn(MacAddress::for_host(0), HostId{0}, TenantId{0},
                  SwitchId{1});
  // Index 0 under a management OUI, and the broadcast MAC.
  EXPECT_FALSE(ctrl.clib_lookup(MacAddress{0x0600'0000'0000ULL}).has_value());
  EXPECT_FALSE(ctrl.clib_lookup(MacAddress::broadcast()).has_value());
  EXPECT_FALSE(ctrl.clib_lookup(MacAddress::for_host(0xFFFF'FFFF)).has_value());
  ctrl.clib_forget(MacAddress{0x0600'0000'0000ULL});
  ctrl.clib_forget(MacAddress::broadcast());
  EXPECT_EQ(ctrl.clib_size(), 1u);
  EXPECT_TRUE(ctrl.clib_lookup(MacAddress::for_host(0)).has_value());
}

TEST(ControllerClibDeathTest, LearningUnderAnotherHostsMacAsserts) {
  // Every caller passes a host's own MAC; a debug build (CI job `debug`)
  // stops on any other, where a release build would file the entry
  // under the host id and answer lookups of the MAC with nothing.
  CentralController ctrl(Config{}, 4);
  EXPECT_DEBUG_DEATH(ctrl.clib_learn(MacAddress::for_host(1), HostId{2},
                                     TenantId{0}, SwitchId{0}),
                     "");
}

TEST(ControllerQueueTest, IdleServerServesImmediately) {
  CentralController ctrl(config_with(100));
  EXPECT_EQ(ctrl.admit_request(1000), 1100);
}

TEST(ControllerQueueTest, BackToBackRequestsQueue) {
  CentralController ctrl(config_with(100));
  EXPECT_EQ(ctrl.admit_request(0), 100);
  EXPECT_EQ(ctrl.admit_request(0), 200);  // waits for the first
  EXPECT_EQ(ctrl.admit_request(0), 300);
}

TEST(ControllerQueueTest, LateArrivalDoesNotQueue) {
  CentralController ctrl(config_with(100));
  ctrl.admit_request(0);
  EXPECT_EQ(ctrl.admit_request(500), 600);  // server idle again
}

TEST(ControllerQueueTest, ClusterServesInParallel) {
  CentralController ctrl(config_with(100, /*servers=*/3));
  EXPECT_EQ(ctrl.server_count(), 3u);
  // Three simultaneous requests, no queueing.
  EXPECT_EQ(ctrl.admit_request(0), 100);
  EXPECT_EQ(ctrl.admit_request(0), 100);
  EXPECT_EQ(ctrl.admit_request(0), 100);
  // The fourth queues behind the earliest-free server.
  EXPECT_EQ(ctrl.admit_request(0), 200);
}

TEST(ControllerQueueTest, ZeroServersClampedToOne) {
  CentralController ctrl(config_with(100, 0));
  EXPECT_EQ(ctrl.server_count(), 1u);
}

TEST(ControllerQueueTest, CountsRequests) {
  CentralController ctrl(config_with(10));
  for (int i = 0; i < 5; ++i) ctrl.admit_request(i * 1000);
  EXPECT_EQ(ctrl.total_requests(), 5u);
}

TEST(ControllerAdmissionTest, BoundedAdmissionRejectsAtCap) {
  CentralController ctrl(config_with(100));
  ctrl.begin_outage(1000);
  // Two requests fit under cap=2 and queue behind the outage.
  EXPECT_FALSE(ctrl.admit_request_bounded(0, 2).rejected);
  EXPECT_FALSE(ctrl.admit_request_bounded(1, 2).rejected);
  EXPECT_EQ(ctrl.outage_queue_depth(), 2u);
  // The third arrives into a full backlog: drop-tail reject.
  const auto r = ctrl.admit_request_bounded(2, 2);
  EXPECT_TRUE(r.rejected);
  EXPECT_EQ(r.done, 0);
  EXPECT_EQ(ctrl.admission_drops(), 1u);
  // The reject left queue state untouched.
  EXPECT_EQ(ctrl.outage_queue_depth(), 2u);
  EXPECT_EQ(ctrl.outage_queue_peak(), 2u);
  EXPECT_EQ(ctrl.outage_queued_total(), 2u);
  // The controller still saw the PacketIn (regrouping trigger input).
  EXPECT_EQ(ctrl.total_requests(), 3u);
}

TEST(ControllerAdmissionTest, CapZeroIsUnlimited) {
  CentralController ctrl(config_with(100));
  ctrl.begin_outage(1000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(ctrl.admit_request_bounded(i, 0).rejected);
  }
  EXPECT_EQ(ctrl.admission_drops(), 0u);
  EXPECT_EQ(ctrl.outage_queue_depth(), 50u);
}

TEST(ControllerAdmissionTest, NoRejectOutsideOutage) {
  CentralController ctrl(config_with(100));
  // Back-to-back server queueing is NOT outage backlog — cap never bites.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(ctrl.admit_request_bounded(0, 1).rejected);
  }
  EXPECT_EQ(ctrl.admission_drops(), 0u);
}

TEST(ControllerAdmissionTest, ResetOutageQueuePeakRebases) {
  CentralController ctrl(config_with(100));
  ctrl.begin_outage(1000);
  ctrl.admit_request(0);
  ctrl.admit_request(1);
  EXPECT_EQ(ctrl.outage_queue_peak(), 2u);
  // Mid-outage reset keeps the live depth as the new floor.
  ctrl.reset_outage_queue_peak();
  EXPECT_EQ(ctrl.outage_queue_peak(), 2u);
  // Post-outage the backlog drains; a reset then rebases peak to zero.
  ctrl.admit_request(2000);
  EXPECT_EQ(ctrl.outage_queue_depth(), 0u);
  ctrl.reset_outage_queue_peak();
  EXPECT_EQ(ctrl.outage_queue_peak(), 0u);
}

TEST(ControllerTriggerTest, FiresOnThirtyPercentGrowth) {
  Config cfg;
  cfg.dgm.cooldown = 2 * kMinute;
  CentralController ctrl(cfg);

  // Window 1: 100 requests -> baseline.
  for (int i = 0; i < 100; ++i) ctrl.admit_request(i);
  ctrl.roll_window(kMinute);
  EXPECT_FALSE(ctrl.should_regroup(kMinute));  // no growth yet

  // Window 2: 120 requests: +20%, below the trigger.
  for (int i = 0; i < 120; ++i) ctrl.admit_request(kMinute + i);
  ctrl.roll_window(2 * kMinute);
  EXPECT_FALSE(ctrl.should_regroup(2 * kMinute + 1));

  // Window 3: 135 requests: +35% over baseline and interval elapsed.
  for (int i = 0; i < 135; ++i) ctrl.admit_request(2 * kMinute + i);
  ctrl.roll_window(3 * kMinute);
  EXPECT_TRUE(ctrl.should_regroup(3 * kMinute));
}

TEST(ControllerTriggerTest, CooldownSuppresses) {
  Config cfg;
  cfg.dgm.cooldown = 2 * kMinute;
  CentralController ctrl(cfg);
  for (int i = 0; i < 100; ++i) ctrl.admit_request(i);
  ctrl.roll_window(kMinute);
  ctrl.note_regrouped(kMinute);
  for (int i = 0; i < 500; ++i) ctrl.admit_request(kMinute + i);
  ctrl.roll_window(2 * kMinute);
  // Massive growth but only 1 minute since the last update.
  EXPECT_FALSE(ctrl.should_regroup(2 * kMinute));
  EXPECT_TRUE(ctrl.should_regroup(kMinute + 2 * kMinute));
}

TEST(ControllerTriggerTest, RegroupResetsBaseline) {
  Config cfg;
  cfg.dgm.cooldown = 0;
  CentralController ctrl(cfg);
  for (int i = 0; i < 100; ++i) ctrl.admit_request(i);
  ctrl.roll_window(kMinute);
  for (int i = 0; i < 200; ++i) ctrl.admit_request(kMinute + i);
  ctrl.roll_window(2 * kMinute);
  ASSERT_TRUE(ctrl.should_regroup(2 * kMinute));
  ctrl.note_regrouped(2 * kMinute);
  // Same load as the new baseline: no retrigger.
  for (int i = 0; i < 200; ++i) ctrl.admit_request(2 * kMinute + i);
  ctrl.roll_window(3 * kMinute);
  EXPECT_FALSE(ctrl.should_regroup(3 * kMinute));
}

}  // namespace
}  // namespace lazyctrl::core
