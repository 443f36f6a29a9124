// Unit tests for the EdgeSwitch forwarding decision — every branch of the
// Fig. 5 routine in isolation.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/edge_switch.h"

namespace lazyctrl::core {
namespace {

EdgeSwitch make_switch(const Config& cfg = Config{}) {
  return EdgeSwitch(SwitchId{0}, IpAddress::for_switch(0),
                    MacAddress{0x060000000000ULL}, cfg);
}

net::Packet packet_to(std::uint32_t dst_host, std::uint32_t tenant = 0) {
  net::Packet p;
  p.src_mac = MacAddress::for_host(1000);
  p.dst_mac = MacAddress::for_host(dst_host);
  p.tenant = TenantId{tenant};
  return p;
}

openflow::FlowRule encap_rule(std::uint32_t dst_host, SwitchId remote,
                              SimTime expires = openflow::kNoExpiry) {
  openflow::FlowRule r;
  r.priority = 10;
  r.match.dst_mac = MacAddress::for_host(dst_host);
  r.action.type = openflow::ActionType::kEncapTo;
  r.action.remote_switch = remote;
  r.expires_at = expires;
  return r;
}

TEST(EdgeSwitchDecideTest, Step1FlowTableHitWins) {
  EdgeSwitch sw = make_switch();
  // Rule AND L-FIB entry for the same destination: the rule must win
  // (Fig. 5 consults the flow table first).
  sw.flow_table().install(encap_rule(5, SwitchId{9}));
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kFlowTableHit);
  ASSERT_NE(d.rule, nullptr);
  EXPECT_EQ(d.rule->action.remote_switch, SwitchId{9});
}

TEST(EdgeSwitchDecideTest, Step2LocalDeliver) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kLocalDeliver);
}

/// A group bank over `filters` (switch id -> hosted host ids), the shape
/// Network keeps per group: every member's filter, the viewer's included.
GFib make_bank(
    std::initializer_list<std::pair<std::uint32_t,
                                    std::vector<std::uint32_t>>> filters) {
  GFib bank;
  for (const auto& [sw, hosts] : filters) {
    std::vector<MacAddress> macs;
    for (const std::uint32_t h : hosts) macs.push_back(MacAddress::for_host(h));
    bank.sync_peer(SwitchId{sw}, macs);
  }
  return bank;
}

TEST(EdgeSwitchDecideTest, Step3GfibCandidates) {
  EdgeSwitch sw = make_switch();
  const GFib bank = make_bank({{0, {}}, {3, {5}}, {7, {6}}});
  sw.attach_gfib(&bank);
  EXPECT_EQ(sw.gfib().peer_count(), 2u);
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kIntraGroup);
  ASSERT_EQ(d.candidates.size(), 1u);
  EXPECT_EQ(d.candidates[0], SwitchId{3});
}

TEST(EdgeSwitchDecideTest, Step4ControllerFallback) {
  EdgeSwitch sw = make_switch();
  const GFib bank = make_bank({{0, {}}, {3, {6}}});
  sw.attach_gfib(&bank);
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kToController);
  EXPECT_TRUE(d.candidates.empty());
}

TEST(EdgeSwitchDecideTest, OwnColumnMatchIsNotACandidate) {
  // The group bank also holds this switch's own filter. A MAC whose only
  // match is that column (here: a host the L-FIB does not list, as for a
  // false positive on the own filter) is provably outside every peer, so
  // the packet goes to the controller exactly as with a per-switch G-FIB
  // of the S-1 peers alone.
  EdgeSwitch sw = make_switch();
  const GFib bank = make_bank({{0, {5}}, {3, {6}}});
  sw.attach_gfib(&bank);
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kToController);
  EXPECT_TRUE(d.candidates.empty());
  std::vector<SwitchId> peers;
  sw.gfib().peers_into(peers);
  EXPECT_EQ(peers, std::vector<SwitchId>{SwitchId{3}});
}

TEST(EdgeSwitchDecideTest, DetachedGfibHasNoCandidates) {
  EdgeSwitch sw = make_switch();
  EXPECT_EQ(sw.gfib().peer_count(), 0u);
  EXPECT_EQ(sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchDecideTest, OpenFlowModeIgnoresFibs) {
  EdgeSwitch sw = make_switch();
  sw.lfib().learn(MacAddress::for_host(5), HostId{5}, TenantId{0});
  const GFib bank = make_bank({{0, {5}}, {3, {5}}});
  sw.attach_gfib(&bank);
  // The baseline has no L-FIB/G-FIB logic: a table miss punts.
  const auto d = sw.decide(packet_to(5), 0, ControlMode::kOpenFlow);
  EXPECT_EQ(d.kind, EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchDecideTest, HitRefreshesRuleTtl) {
  Config cfg;
  cfg.rules.rule_ttl = 100;
  EdgeSwitch sw = make_switch(cfg);
  sw.flow_table().install(encap_rule(5, SwitchId{9}, /*expires=*/50));
  // A hit at t=40 pushes the expiry to 40 + ttl = 140.
  ASSERT_EQ(sw.decide(packet_to(5), 40, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  EXPECT_EQ(sw.decide(packet_to(5), 120, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  // Without further hits the rule dies at 120 + ttl.
  EXPECT_EQ(sw.decide(packet_to(5), 500, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchDecideTest, HitKeepsStaticRulePermanent) {
  Config cfg;
  cfg.rules.rule_ttl = 10 * kSecond;
  EdgeSwitch sw = make_switch(cfg);
  sw.flow_table().install(encap_rule(5, SwitchId{9}));  // no expiry
  sw.flow_table().install(encap_rule(6, SwitchId{9}, 15 * kSecond));
  ASSERT_EQ(sw.decide(packet_to(5), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  // At 20 s the reactive rule's expiry sweeps the table. The hit at t=0
  // must not have given the static rule an expiry for that sweep to take.
  const SimTime later = 20 * kSecond;
  EXPECT_EQ(sw.decide(packet_to(6), later, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
  EXPECT_EQ(sw.decide(packet_to(5), later, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
}

TEST(EdgeSwitchDecideTest, TenantScopedRules) {
  EdgeSwitch sw = make_switch();
  openflow::FlowRule r = encap_rule(5, SwitchId{9});
  r.match.tenant = TenantId{2};
  sw.flow_table().install(r);
  EXPECT_EQ(sw.decide(packet_to(5, 2), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kFlowTableHit);
  EXPECT_EQ(sw.decide(packet_to(5, 3), 0, ControlMode::kLazyCtrl).kind,
            EdgeSwitch::DecisionKind::kToController);
}

TEST(EdgeSwitchTest, TransitionWindow) {
  EdgeSwitch sw = make_switch();
  EXPECT_FALSE(sw.in_transition(0));
  sw.set_transition_until(100);
  EXPECT_TRUE(sw.in_transition(99));
  EXPECT_FALSE(sw.in_transition(100));
}

TEST(EdgeSwitchTest, DesignatedFlag) {
  EdgeSwitch sw = make_switch();
  sw.set_designated(SwitchId{3});
  EXPECT_FALSE(sw.is_designated());
  sw.set_designated(SwitchId{0});
  EXPECT_TRUE(sw.is_designated());
}

// --- punt retry schedule (unreliable control plane) ---

TEST(PuntRetryDelayTest, DeterministicPureFunction) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 2 * kMillisecond;
  // Same (flow, attempt, config, seed) -> same delay, always: the
  // schedule is keyed on splitmix64, never the run RNG.
  for (std::uint32_t a = 0; a < 4; ++a) {
    EXPECT_EQ(EdgeSwitch::punt_retry_delay(77, a, ctrl, 42),
              EdgeSwitch::punt_retry_delay(77, a, ctrl, 42));
  }
  // Distinct flows (and distinct seeds) draw distinct jitter.
  EXPECT_NE(EdgeSwitch::punt_retry_delay(77, 0, ctrl, 42),
            EdgeSwitch::punt_retry_delay(78, 0, ctrl, 42));
  EXPECT_NE(EdgeSwitch::punt_retry_delay(77, 0, ctrl, 42),
            EdgeSwitch::punt_retry_delay(77, 0, ctrl, 43));
}

TEST(PuntRetryDelayTest, ExponentialBackoffWithBoundedJitter) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 4 * kMillisecond;
  const SimDuration base = ctrl.punt_retry_base;
  for (std::uint32_t a = 0; a < 6; ++a) {
    const SimDuration d = EdgeSwitch::punt_retry_delay(9001, a, ctrl, 7);
    const SimDuration backoff = base << a;
    // backoff <= delay <= backoff + base/2 (the jitter window).
    EXPECT_GE(d, backoff) << "attempt " << a;
    EXPECT_LE(d, backoff + base / 2) << "attempt " << a;
  }
  // Doubling: attempt a+1's floor exceeds attempt a's ceiling for the
  // window sizes above, so the schedule is strictly increasing.
  EXPECT_LT(EdgeSwitch::punt_retry_delay(9001, 0, ctrl, 7),
            EdgeSwitch::punt_retry_delay(9001, 1, ctrl, 7));
  EXPECT_LT(EdgeSwitch::punt_retry_delay(9001, 1, ctrl, 7),
            EdgeSwitch::punt_retry_delay(9001, 2, ctrl, 7));
}

TEST(PuntRetryDelayTest, ZeroBaseFallsBackToOneMillisecond) {
  ControllerConfig ctrl;
  ctrl.punt_retry_base = 0;
  const SimDuration d = EdgeSwitch::punt_retry_delay(1, 0, ctrl, 0);
  EXPECT_GE(d, kMillisecond);
  EXPECT_LE(d, kMillisecond + kMillisecond / 2);
}

}  // namespace
}  // namespace lazyctrl::core
