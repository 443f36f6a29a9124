// OpenFlow-style flow table: priority-ordered wildcard rules.
//
// Models the subset of OpenFlow v1.0 the paper's prototype uses, extended
// with the GRE-like Encap action (§IV-B): match on (tenant VLAN, src MAC,
// dst MAC) with any field wildcardable; actions forward to a local port,
// encapsulate toward a remote edge switch, punt to the controller, or drop.
// Rules may carry an expiry (idle-timeout simplification) and the table has
// an optional capacity with LRU-ish eviction of the oldest rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <vector>

#include "common/ids.h"
#include "common/mac.h"
#include "common/time.h"
#include "net/packet.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::openflow {

struct Match {
  std::optional<TenantId> tenant;
  std::optional<MacAddress> src_mac;
  std::optional<MacAddress> dst_mac;

  [[nodiscard]] bool matches(const net::Packet& p) const noexcept {
    if (tenant && *tenant != p.tenant) return false;
    if (src_mac && *src_mac != p.src_mac) return false;
    if (dst_mac && *dst_mac != p.dst_mac) return false;
    return true;
  }
};

enum class ActionType : std::uint8_t {
  kForwardLocal,   ///< Deliver to the locally attached destination host.
  kEncapTo,        ///< Encapsulate and send to a remote edge switch.
  kToController,   ///< Punt to the controller (PacketIn).
  kDrop,
};

struct Action {
  ActionType type = ActionType::kDrop;
  /// Valid for kEncapTo: the remote edge switch (and its underlay IP).
  SwitchId remote_switch;
  IpAddress tunnel_dst;
};

constexpr SimTime kNoExpiry = std::numeric_limits<SimTime>::max();

struct FlowRule {
  int priority = 0;
  Match match;
  Action action;
  SimTime installed_at = 0;
  SimTime expires_at = kNoExpiry;
  /// Packets matched so far (OpenFlow per-rule counter; lookup increments).
  std::uint64_t match_count = 0;
};

class FlowTable {
 public:
  /// `capacity` caps the rule count (0 = unlimited); when full, installing
  /// evicts the oldest-installed rule, mimicking constrained TCAM space.
  explicit FlowTable(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Installs a rule. Returns false if an identical-match, same-priority
  /// rule was replaced rather than added. The identical rule is found
  /// through the index (the rule's (tenant, dst) bucket chain, or the list
  /// of wildcarded rules); only while the index is dirty does install scan
  /// the rule list.
  bool install(FlowRule rule);

  /// Highest-priority live rule matching `p`, or nullptr. The hot path is
  /// O(1): rules whose match pins both tenant and destination (every
  /// reactively installed rule) live in a hash index keyed on (tenant,
  /// dst); only genuinely wildcarded rules fall back to the
  /// priority-ordered scan.
  ///
  /// Expiry is a deferred sweep: it runs only once `now` reaches
  /// `next_expiry_`, a lower bound on the earliest expiry. A caller may
  /// raise the returned rule's `expires_at` (the TTL refresh) without
  /// telling the table, so the bound may fire early and sweep nothing; it
  /// must never lower it. A sweep turns every rule with
  /// `expires_at <= now` into a tombstone in place and tightens
  /// `next_expiry_` to the earliest live expiry. After lookup(now)
  /// returns, no live rule has `expires_at <= now`.
  [[nodiscard]] const FlowRule* lookup(const net::Packet& p, SimTime now);

  /// Removes all rules whose match exactly targets `dst` as destination.
  std::size_t remove_rules_for_destination(MacAddress dst);

  void clear() noexcept;
  /// Live rules (tombstones excluded).
  [[nodiscard]] std::size_t size() const noexcept {
    return rules_.size() - tombstones_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t eviction_count() const noexcept {
    return evictions_;
  }
  /// The live rules in table order (descending priority, then install
  /// order), for stats requests.
  [[nodiscard]] auto rules() const {
    return std::views::iota(std::size_t{0}, rules_.size()) |
           std::views::filter([this](std::size_t i) { return !dead_[i]; }) |
           std::views::transform(
               [this](std::size_t i) -> const FlowRule& { return rules_[i]; });
  }
  /// Sum of match counters across live rules.
  [[nodiscard]] std::uint64_t total_matches() const noexcept;

 private:
  /// Snapshot codec (src/ckpt): saves the live rules in table order (the
  /// eviction tie-break depends on it), capacity_, evictions_ and
  /// next_expiry_, and restores them verbatim, then marks the index dirty
  /// so the first lookup rebuilds it.
  friend class lazyctrl::ckpt::StateAccess;

  static constexpr std::uint32_t kNoPosition =
      std::numeric_limits<std::uint32_t>::max();

  /// Composite key for the exact-match index. Distinct (tenant, dst) pairs
  /// may collide in principle (tenant ids above 2^16 fold into MAC bits);
  /// candidates are re-checked with Match::matches, so collisions only
  /// cost a wasted probe.
  [[nodiscard]] static std::uint64_t index_key(TenantId tenant,
                                               MacAddress dst) noexcept {
    return (static_cast<std::uint64_t>(tenant.value()) << 48) ^ dst.bits();
  }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const noexcept {
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
    key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(key ^ (key >> 31)) &
           (buckets_.size() - 1);
  }

  [[nodiscard]] FlowRule* find_identical(const FlowRule& rule);
  void expire(SimTime now);
  void bury(std::size_t pos) noexcept {
    dead_[pos] = 1;
    ++tombstones_;
  }
  /// Drops the tombstones, keeping the live rules' order, and relinks the
  /// index over the new positions unless it is dirty (rebuilt at the next
  /// lookup anyway). Leaves `next_expiry_` and the bucket count alone.
  void compact();
  /// Grows the buckets, compacts and recomputes `next_expiry_`.
  void rebuild_index();
  void link(std::uint32_t pos);
  void index_append(std::uint32_t pos);

  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  /// Live rules and tombstones, sorted by descending priority (stable
  /// within a priority). A tombstone is an expired rule that keeps its
  /// slot, and its place in the index, until a compaction: the index stays
  /// valid, so a sweep costs one pass over the expiries instead of a
  /// rebuild. A rebuild compacts once tombstones pass a quarter of the
  /// slots, and whenever the index is rebuilt for another reason; install
  /// compacts instead of growing a full vector. Lookup, install and
  /// eviction skip tombstones; everything outside the table sees only
  /// live rules.
  std::vector<FlowRule> rules_;
  std::vector<std::uint8_t> dead_;  ///< dead_[pos] != 0: a tombstone
  std::size_t tombstones_ = 0;

  // Exact-match index over rules that pin (tenant, dst): an open-addressed
  // bucket array chaining rule positions through `chain_`. All storage is
  // plain vectors, so a rebuild is one O(n) pass with zero allocation once
  // capacity is warm; the common install (equal priority, appended at the
  // back) links into its bucket incrementally.
  std::vector<std::uint32_t> buckets_;  ///< head position + 1; 0 = empty
  std::vector<std::uint32_t> chain_;    ///< chain_[pos] = next position + 1
  /// Positions of rules whose match wildcards tenant or dst (ascending).
  std::vector<std::uint32_t> wildcard_positions_;
  /// The index must be rebuilt before its next use: positions shifted, a
  /// rule was evicted or removed, an exact-match install outgrew the
  /// buckets, or tombstones are due for compaction. The rebuild also
  /// recomputes `next_expiry_`.
  bool index_dirty_ = false;
  /// Lower bound on the earliest live expiry; gates the sweep.
  SimTime next_expiry_ = kNoExpiry;
};

}  // namespace lazyctrl::openflow
