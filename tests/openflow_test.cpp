// Tests for the OpenFlow-style flow table: match semantics, priorities,
// expiry and capacity eviction, plus a model test against a linear
// reference table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "openflow/flow_table.h"

namespace lazyctrl::openflow {
namespace {

net::Packet packet(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t tenant = 0) {
  net::Packet p;
  p.src_mac = MacAddress::for_host(src);
  p.dst_mac = MacAddress::for_host(dst);
  p.tenant = TenantId{tenant};
  return p;
}

FlowRule rule_for_dst(std::uint32_t dst, int priority = 10,
                      SimTime expires = kNoExpiry) {
  FlowRule r;
  r.priority = priority;
  r.match.dst_mac = MacAddress::for_host(dst);
  r.action.type = ActionType::kEncapTo;
  r.expires_at = expires;
  return r;
}

TEST(MatchTest, WildcardsMatchEverything) {
  Match m;
  EXPECT_TRUE(m.matches(packet(1, 2, 3)));
}

TEST(MatchTest, FieldsFilter) {
  Match m;
  m.dst_mac = MacAddress::for_host(2);
  EXPECT_TRUE(m.matches(packet(1, 2)));
  EXPECT_FALSE(m.matches(packet(1, 3)));

  m.tenant = TenantId{5};
  EXPECT_FALSE(m.matches(packet(1, 2, 0)));
  EXPECT_TRUE(m.matches(packet(1, 2, 5)));

  m.src_mac = MacAddress::for_host(1);
  EXPECT_TRUE(m.matches(packet(1, 2, 5)));
  EXPECT_FALSE(m.matches(packet(9, 2, 5)));
}

TEST(FlowTableTest, EmptyLookupMisses) {
  FlowTable t;
  EXPECT_EQ(t.lookup(packet(1, 2), 0), nullptr);
}

TEST(FlowTableTest, InstallAndHit) {
  FlowTable t;
  EXPECT_TRUE(t.install(rule_for_dst(2)));
  const FlowRule* r = t.lookup(packet(1, 2), 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->action.type, ActionType::kEncapTo);
  EXPECT_EQ(t.lookup(packet(1, 3), 0), nullptr);
}

TEST(FlowTableTest, HigherPriorityWins) {
  FlowTable t;
  FlowRule low = rule_for_dst(2, 1);
  low.action.type = ActionType::kDrop;
  FlowRule high = rule_for_dst(2, 100);
  high.action.type = ActionType::kForwardLocal;
  t.install(low);
  t.install(high);
  const FlowRule* r = t.lookup(packet(1, 2), 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->action.type, ActionType::kForwardLocal);
}

TEST(FlowTableTest, SameMatchSamePriorityReplaces) {
  FlowTable t;
  FlowRule a = rule_for_dst(2, 10);
  a.action.type = ActionType::kDrop;
  FlowRule b = rule_for_dst(2, 10);
  b.action.type = ActionType::kForwardLocal;
  EXPECT_TRUE(t.install(a));
  EXPECT_FALSE(t.install(b));  // replaced, not added
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(1, 2), 0)->action.type,
            ActionType::kForwardLocal);
}

TEST(FlowTableTest, ExpiredRulesAreIgnoredAndRemoved) {
  FlowTable t;
  t.install(rule_for_dst(2, 10, /*expires=*/100));
  EXPECT_NE(t.lookup(packet(1, 2), 99), nullptr);
  EXPECT_EQ(t.lookup(packet(1, 2), 100), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTableTest, CapacityEvictsOldest) {
  FlowTable t(2);
  FlowRule r1 = rule_for_dst(1);
  r1.installed_at = 10;
  FlowRule r2 = rule_for_dst(2);
  r2.installed_at = 20;
  FlowRule r3 = rule_for_dst(3);
  r3.installed_at = 30;
  t.install(r1);
  t.install(r2);
  t.install(r3);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.eviction_count(), 1u);
  EXPECT_EQ(t.lookup(packet(0, 1), 0), nullptr);  // oldest evicted
  EXPECT_NE(t.lookup(packet(0, 2), 0), nullptr);
  EXPECT_NE(t.lookup(packet(0, 3), 0), nullptr);
}

TEST(FlowTableTest, RemoveRulesForDestination) {
  FlowTable t;
  t.install(rule_for_dst(1));
  t.install(rule_for_dst(2, 5));
  t.install(rule_for_dst(2, 9));
  EXPECT_EQ(t.remove_rules_for_destination(MacAddress::for_host(2)), 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(0, 2), 0), nullptr);
}

TEST(FlowTableTest, ClearEmptiesTable) {
  FlowTable t;
  t.install(rule_for_dst(1));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTableTest, StableOrderWithinPriority) {
  // Two overlapping wildcard rules at the same priority: the first
  // installed must keep winning (OpenFlow leaves this undefined; we pin
  // insertion order for determinism).
  FlowTable t;
  FlowRule a;
  a.priority = 10;
  a.match.tenant = TenantId{0};
  a.action.type = ActionType::kDrop;
  FlowRule b;
  b.priority = 10;
  b.match.src_mac = MacAddress::for_host(1);
  b.action.type = ActionType::kForwardLocal;
  t.install(a);
  t.install(b);
  EXPECT_EQ(t.lookup(packet(1, 2, 0), 0)->action.type, ActionType::kDrop);
}

}  // namespace
}  // namespace lazyctrl::openflow

namespace lazyctrl::openflow {
namespace {

TEST(FlowTableStatsTest, MatchCountersIncrement) {
  FlowTable t;
  t.install(rule_for_dst(2));
  t.install(rule_for_dst(3));
  net::Packet p2 = packet(1, 2);
  net::Packet p3 = packet(1, 3);
  (void)t.lookup(p2, 0);
  (void)t.lookup(p2, 0);
  (void)t.lookup(p3, 0);
  (void)t.lookup(packet(1, 9), 0);  // miss: no counter moves
  EXPECT_EQ(t.total_matches(), 3u);
  // Per-rule counters via the snapshot.
  for (const FlowRule& r : t.rules()) {
    if (r.match.dst_mac == MacAddress::for_host(2)) {
      EXPECT_EQ(r.match_count, 2u);
    } else {
      EXPECT_EQ(r.match_count, 1u);
    }
  }
}

TEST(FlowTableStatsTest, ReplaceResetsCounter) {
  FlowTable t;
  t.install(rule_for_dst(2));
  net::Packet p = packet(1, 2);
  (void)t.lookup(p, 0);
  t.install(rule_for_dst(2));  // same match+priority -> replaced
  EXPECT_EQ(t.total_matches(), 0u);
}

}  // namespace
}  // namespace lazyctrl::openflow

namespace lazyctrl::openflow {
namespace {

/// The flow table's semantics without an index or tombstones: one vector
/// in table order, a linear scan per operation and an expiry sweep on
/// every lookup. FlowTable's deferred sweep is invisible next to it: after
/// lookup(now) returns, neither table holds a rule with expires_at <= now.
class LinearFlowTable {
 public:
  explicit LinearFlowTable(std::size_t capacity) : capacity_(capacity) {}

  bool install(const FlowRule& rule) {
    for (FlowRule& r : rules_) {
      if (r.priority == rule.priority && same_match(r.match, rule.match)) {
        r = rule;
        return false;
      }
    }
    if (capacity_ > 0 && rules_.size() >= capacity_) {
      rules_.erase(std::min_element(
          rules_.begin(), rules_.end(),
          [](const FlowRule& a, const FlowRule& b) {
            return a.installed_at < b.installed_at;
          }));
      ++evictions_;
    }
    rules_.insert(std::upper_bound(rules_.begin(), rules_.end(),
                                   rule.priority,
                                   [](int prio, const FlowRule& r) {
                                     return prio > r.priority;
                                   }),
                  rule);
    return true;
  }

  FlowRule* lookup(const net::Packet& p, SimTime now) {
    std::erase_if(rules_,
                  [now](const FlowRule& r) { return r.expires_at <= now; });
    for (FlowRule& r : rules_) {
      if (r.match.matches(p)) {
        ++r.match_count;
        return &r;
      }
    }
    return nullptr;
  }

  std::size_t remove_rules_for_destination(MacAddress dst) {
    return std::erase_if(rules_, [dst](const FlowRule& r) {
      return r.match.dst_mac && *r.match.dst_mac == dst;
    });
  }

  void clear() { rules_.clear(); }
  [[nodiscard]] const std::vector<FlowRule>& rules() const { return rules_; }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }
  [[nodiscard]] std::uint64_t total_matches() const {
    std::uint64_t total = 0;
    for (const FlowRule& r : rules_) total += r.match_count;
    return total;
  }

 private:
  static bool same_match(const Match& a, const Match& b) {
    return a.tenant == b.tenant && a.src_mac == b.src_mac &&
           a.dst_mac == b.dst_mac;
  }

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::vector<FlowRule> rules_;
};

bool same_rule(const FlowRule& a, const FlowRule& b) {
  return a.priority == b.priority && a.match.tenant == b.match.tenant &&
         a.match.src_mac == b.match.src_mac &&
         a.match.dst_mac == b.match.dst_mac &&
         a.action.type == b.action.type &&
         a.action.remote_switch == b.action.remote_switch &&
         a.action.tunnel_dst == b.action.tunnel_dst &&
         a.installed_at == b.installed_at && a.expires_at == b.expires_at &&
         a.match_count == b.match_count;
}

::testing::AssertionResult same_state(const FlowTable& t,
                                      const LinearFlowTable& ref) {
  if (t.size() != ref.rules().size()) {
    return ::testing::AssertionFailure()
           << "size " << t.size() << " != " << ref.rules().size();
  }
  if (t.eviction_count() != ref.eviction_count()) {
    return ::testing::AssertionFailure()
           << "evictions " << t.eviction_count()
           << " != " << ref.eviction_count();
  }
  if (t.total_matches() != ref.total_matches()) {
    return ::testing::AssertionFailure() << "total_matches "
                                         << t.total_matches()
                                         << " != " << ref.total_matches();
  }
  std::size_t i = 0;
  for (const FlowRule& r : t.rules()) {
    if (i >= ref.rules().size() || !same_rule(r, ref.rules()[i])) {
      return ::testing::AssertionFailure() << "rules() differ at " << i;
    }
    ++i;
  }
  if (i != ref.rules().size()) {
    return ::testing::AssertionFailure() << "rules() yields " << i
                                         << " rules, size() says "
                                         << t.size();
  }
  return ::testing::AssertionSuccess();
}

/// One random sequence against the reference. Small key spaces make
/// duplicates (replacements), shared (tenant, dst) buckets and matching
/// wildcards common; steps check every observable after each operation.
::testing::AssertionResult run_sequence(std::uint64_t seed) {
  Rng rng(seed);
  // Capacities below the slot vector's power-of-two growth (3, 5) leave
  // room for tombstones next to a full table, so eviction meets them.
  static constexpr std::size_t kCapacities[] = {0, 0, 1, 2, 3, 4, 5};
  const std::size_t capacity = kCapacities[rng.next_below(7)];
  const int priority_count = 2 + static_cast<int>(rng.next_below(2));
  // Every expiry is at most one TTL past its install or last hit, so the
  // TTL refresh a hit gets (now + ttl, as in EdgeSwitch::decide) never
  // lowers an expiry: the contract the deferred sweep relies on.
  const SimDuration ttl = rng.next_between(1, 60);
  FlowTable table(capacity);
  LinearFlowTable ref(capacity);

  const auto pick_mac = [&](std::uint64_t n) {
    return MacAddress::for_host(static_cast<std::uint32_t>(rng.next_below(n)));
  };
  const auto random_packet = [&] {
    net::Packet p;
    p.tenant = TenantId{static_cast<std::uint32_t>(rng.next_below(2))};
    p.src_mac = pick_mac(3);
    p.dst_mac = pick_mac(8);
    return p;
  };

  SimTime now = 0;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.next_below(100);
    std::string what;
    if (op < 45) {
      FlowRule r;
      r.priority = 10 * (1 + static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(priority_count))));
      // Mostly pinned (tenant, dst), sometimes with src (the OpenFlow
      // baseline's exact match); otherwise a wildcard on tenant or dst.
      const std::uint64_t shape = rng.next_below(10);
      if (shape < 8 || rng.next_bool(0.5)) {
        r.match.tenant =
            TenantId{static_cast<std::uint32_t>(rng.next_below(2))};
      }
      if (shape <= 8) r.match.dst_mac = pick_mac(8);
      if (rng.next_bool(0.4)) r.match.src_mac = pick_mac(3);
      r.action.type = static_cast<ActionType>(rng.next_below(4));
      r.action.remote_switch =
          SwitchId{static_cast<std::uint32_t>(rng.next_below(5))};
      r.installed_at = now;
      r.expires_at = now + rng.next_between(0, ttl);
      const bool added = table.install(r);
      if (added != ref.install(r)) {
        return ::testing::AssertionFailure()
               << "seed " << seed << " step " << step
               << ": install disagrees on replacement";
      }
      what = "install";
    } else if (op < 92) {
      now += rng.next_between(0, 3);
      const net::Packet p = random_packet();
      const FlowRule* got = table.lookup(p, now);
      FlowRule* want = ref.lookup(p, now);
      if ((got == nullptr) != (want == nullptr) ||
          (got != nullptr && !same_rule(*got, *want))) {
        return ::testing::AssertionFailure()
               << "seed " << seed << " step " << step
               << ": lookup returned a different rule";
      }
      if (got != nullptr) {
        // The TTL refresh EdgeSwitch::decide applies to a hit.
        const_cast<FlowRule*>(got)->expires_at = now + ttl;
        want->expires_at = now + ttl;
      }
      what = "lookup";
    } else if (op < 98) {
      const MacAddress dst = pick_mac(8);
      if (table.remove_rules_for_destination(dst) !=
          ref.remove_rules_for_destination(dst)) {
        return ::testing::AssertionFailure()
               << "seed " << seed << " step " << step
               << ": remove_rules_for_destination count differs";
      }
      what = "remove_rules_for_destination";
    } else {
      table.clear();
      ref.clear();
      what = "clear";
    }
    if (auto same = same_state(table, ref); !same) {
      return same << " (seed " << seed << " step " << step << " after "
                  << what << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FlowTableModelTest, MatchesLinearReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ASSERT_TRUE(run_sequence(seed));
  }
}

TEST(FlowTableModelTest, ReactiveChurnKeepsRulesInInstallOrder) {
  // openflow_outage's shape: ~40 live pinned rules, one install and one
  // expiry per step, so sweeps bury one rule at a time and compaction
  // runs every few sweeps.
  FlowTable table;
  LinearFlowTable ref(0);
  for (SimTime now = 0; now < 2000; ++now) {
    FlowRule r = rule_for_dst(static_cast<std::uint32_t>(now), 10, now + 40);
    r.match.tenant = TenantId{0};
    r.installed_at = now;
    ASSERT_EQ(table.install(r), ref.install(r));
    const net::Packet p = packet(1, static_cast<std::uint32_t>(now / 2));
    const FlowRule* got = table.lookup(p, now);
    const FlowRule* want = ref.lookup(p, now);
    ASSERT_EQ(got == nullptr, want == nullptr) << "at " << now;
    if (got != nullptr) {
      ASSERT_TRUE(same_rule(*got, *want)) << "at " << now;
    }
    ASSERT_TRUE(same_state(table, ref)) << "at " << now;
  }
  EXPECT_EQ(table.size(), 40u);
}

}  // namespace
}  // namespace lazyctrl::openflow
