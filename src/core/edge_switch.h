// Edge switch model (paper §III-D, Fig. 5 and §IV-A).
//
// Holds the tables of a LazyCtrl edge switch — flow table and L-FIB, plus
// a view of its group's shared G-FIB bank (core/gfib.h) — together with
// group membership. The per-window traffic counts its state advertisements
// report upstream live in dgm::TrafficMonitor, per switch pair, as the
// aggregate those reports deliver. The `decide` method is the
// packet-forwarding routine of Fig. 5 restricted to the first packet of a
// flow (the only packet that can change control-plane state); the network
// harness turns the decision into latencies and metric updates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/mac.h"
#include "common/time.h"
#include "core/config.h"
#include "core/gfib.h"
#include "core/lfib.h"
#include "net/packet.h"
#include "openflow/flow_table.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::core {

class EdgeSwitch {
 public:
  EdgeSwitch(SwitchId id, IpAddress underlay_ip, MacAddress management_mac,
             const Config& config);

  [[nodiscard]] SwitchId id() const noexcept { return id_; }
  [[nodiscard]] IpAddress underlay_ip() const noexcept { return underlay_ip_; }
  [[nodiscard]] MacAddress management_mac() const noexcept {
    return management_mac_;
  }

  [[nodiscard]] LFib& lfib() noexcept { return lfib_; }
  [[nodiscard]] const LFib& lfib() const noexcept { return lfib_; }
  /// This switch's G-FIB: its group's bank (owned by Network) minus the
  /// switch's own column.
  [[nodiscard]] const GFibView& gfib() const noexcept { return gfib_; }
  /// Points the G-FIB at `bank` (nullptr detaches). Must be called again
  /// whenever the bank's peer set changes or the bank object moves.
  void attach_gfib(const GFib* bank) { gfib_ = GFibView(bank, id_); }
  [[nodiscard]] openflow::FlowTable& flow_table() noexcept { return table_; }
  [[nodiscard]] const openflow::FlowTable& flow_table() const noexcept {
    return table_;
  }
  /// Aggregate table occupancy, read by obs::Registry gauges ("fib.*").
  struct TableSizes {
    std::size_t lfib_entries = 0;
    std::size_t flow_table_rules = 0;
    std::size_t gfib_peers = 0;
  };
  [[nodiscard]] TableSizes table_sizes() const noexcept {
    return {lfib_.size(), table_.size(), gfib_.peer_count()};
  }

  // --- group membership ---
  void set_group(GroupId g) noexcept { group_ = g; }
  [[nodiscard]] GroupId group() const noexcept { return group_; }
  void set_designated(SwitchId d) noexcept { designated_ = d; }
  [[nodiscard]] SwitchId designated() const noexcept { return designated_; }
  [[nodiscard]] bool is_designated() const noexcept {
    return designated_ == id_;
  }

  /// Reconfiguration window after a grouping update (appendix B preload).
  void set_transition_until(SimTime t) noexcept { transition_until_ = t; }
  [[nodiscard]] bool in_transition(SimTime now) const noexcept {
    return now < transition_until_;
  }

  // --- Fig. 5 forwarding decision for a first packet ---
  enum class DecisionKind : std::uint8_t {
    kFlowTableHit,   ///< matched an installed rule
    kLocalDeliver,   ///< L-FIB: destination attached locally
    kIntraGroup,     ///< G-FIB candidates (may include false positives)
    kToController,   ///< table miss everywhere -> PacketIn
  };

  struct Decision {
    DecisionKind kind = DecisionKind::kToController;
    /// Valid for kFlowTableHit (points into the flow table; not stable
    /// across installs).
    const openflow::FlowRule* rule = nullptr;
    /// Valid for kIntraGroup: candidate peers, ascending id order. Views
    /// the switch's internal scratch buffer — valid until the next
    /// decide() call on this switch, which is exactly the
    /// consume-before-next-decide discipline of every call site and what
    /// keeps decide() allocation-free after warm-up.
    std::span<const SwitchId> candidates;
  };

  /// Runs the Fig. 5 routine for `p` under `mode`. In OpenFlow mode only
  /// the flow table is consulted (the baseline has no L-FIB/G-FIB logic);
  /// in LazyCtrl mode the order is flow table -> L-FIB -> G-FIB ->
  /// controller. Refreshes the TTL of a hit rule. This is the one
  /// decision routine of the simulator: the sequential replay and the
  /// sharded runtime's workers both call it one flow at a time.
  Decision decide(const net::Packet& p, SimTime now, ControlMode mode);

  /// Deterministic punt retry schedule (unreliable control plane): the
  /// wait before re-sending a punt whose attempt `attempt` (0-based) got
  /// no reply — exponential backoff doubling from ctrl.punt_retry_base
  /// plus a jitter in [0, base/2] keyed on splitmix64(the flow's position
  /// in the trace, attempt, seed), never the run RNG, so the schedule is
  /// bit-identical across reps and shard counts.
  [[nodiscard]] static SimDuration punt_retry_delay(
      std::uint64_t flow_id, std::uint32_t attempt,
      const ControllerConfig& ctrl, std::uint64_t seed) noexcept;

 private:
  /// Snapshot codec (src/ckpt): reads and writes the membership fields,
  /// the L-FIB and the flow table in place.
  friend class lazyctrl::ckpt::StateAccess;

  SwitchId id_;
  IpAddress underlay_ip_;
  MacAddress management_mac_;
  LFib lfib_;
  GFibView gfib_;
  openflow::FlowTable table_;
  GroupId group_;
  SwitchId designated_;
  SimTime transition_until_ = 0;
  SimDuration rule_ttl_;
  /// Candidate scratch of decide(); Decision::candidates views it, so
  /// decide() performs no allocation after warm-up.
  std::vector<SwitchId> decide_scratch_;
};

}  // namespace lazyctrl::core
