// Central controller (paper §III-B2, §IV-B).
//
// Maintains the C-LIB (global host-location map), a single-server queueing
// model of request processing (the source of controller-load-dependent
// latency), the per-window workload accounting that drives the regrouping
// trigger, and the grouping state managed through SGI.
//
// The C-LIB is keyed by host MAC, and a host's MAC encodes its index
// (MacAddress::for_host), so it is an array with one 12-byte slot per
// host index rather than a hash map: a lookup decodes the MAC, and a MAC
// outside the host scheme is never found.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/mac.h"
#include "common/time.h"
#include "core/config.h"
#include "core/sgi.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::core {

/// One C-LIB record: where a host lives. An invalid `host` marks an
/// empty slot.
struct ClibEntry {
  HostId host;
  TenantId tenant;
  SwitchId attached_switch;
};

class CentralController {
 public:
  /// `hosts` sizes the C-LIB for host indices [0, hosts) up front, so
  /// learning them allocates nothing; a larger index grows it.
  explicit CentralController(const Config& config, std::size_t hosts = 0);

  // --- C-LIB ---
  /// Records (or moves) `host`. `mac` must be the host's own MAC,
  /// MacAddress::for_host(host) (asserted).
  void clib_learn(MacAddress mac, HostId host, TenantId tenant, SwitchId sw);
  void clib_forget(MacAddress mac);
  [[nodiscard]] std::optional<ClibEntry> clib_lookup(MacAddress mac) const;
  /// Hosts currently in the C-LIB.
  [[nodiscard]] std::size_t clib_size() const noexcept { return clib_live_; }

  // --- request queueing model ---
  /// Admits a request arriving (at the controller) at `arrival`; returns
  /// the completion time after queueing + service on the earliest-free
  /// server of the cluster. Also drives the workload window used by the
  /// regrouping trigger.
  SimTime admit_request(SimTime arrival);

  /// Result of a bounded-admission attempt: when `rejected`, the request
  /// hit the drop-tail cap and no server/queue state was mutated (`done`
  /// is meaningless); the caller owes the client an explicit reject
  /// reply.
  struct AdmitResult {
    SimTime done = 0;
    bool rejected = false;
  };

  /// Like admit_request(), but with a drop-tail cap on the outage
  /// backlog: a request arriving into an ongoing outage while
  /// `outage_queue_depth() >= queue_cap` is rejected instead of queued
  /// (cap 0 = unlimited, identical to admit_request()). Rejected
  /// requests still count toward the workload window — the controller
  /// saw the PacketIn even though it shed it.
  AdmitResult admit_request_bounded(SimTime arrival, std::size_t queue_cap);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_free_at_.size();
  }

  /// Outage injection (scenario engine): no request admitted before
  /// `until` starts service until the outage lifts — arrivals keep
  /// queueing and drain FIFO afterwards, so the backlog shows up as
  /// controller queueing delay. Extending an ongoing outage is allowed;
  /// shortening one is not (the later end wins).
  void begin_outage(SimTime until) noexcept {
    outage_until_ = std::max(outage_until_, until);
  }
  [[nodiscard]] SimTime outage_until() const noexcept {
    return outage_until_;
  }

  [[nodiscard]] std::uint64_t total_requests() const noexcept {
    return total_requests_;
  }

  // --- outage observability (obs::Registry reads these) ---
  /// Requests currently queued behind an ongoing outage (0 once drained).
  [[nodiscard]] std::uint64_t outage_queue_depth() const noexcept {
    return outage_queue_depth_;
  }
  /// Deepest the outage backlog ever got.
  [[nodiscard]] std::uint64_t outage_queue_peak() const noexcept {
    return outage_queue_peak_;
  }
  /// Requests that ever arrived during an outage window, cumulative.
  [[nodiscard]] std::uint64_t outage_queued_total() const noexcept {
    return outage_queued_total_;
  }
  /// Requests shed by the drop-tail admission cap, cumulative.
  [[nodiscard]] std::uint64_t admission_drops() const noexcept {
    return admission_drops_;
  }
  /// Rebases the backlog peak to the current depth. The scenario runner
  /// calls this at each phase fence so lazyctrl_explain's per-phase
  /// tables don't attribute a previous phase's backlog peak to the
  /// current one.
  void reset_outage_queue_peak() noexcept {
    outage_queue_peak_ = outage_queue_depth_;
  }

  // --- workload window / regrouping trigger (§IV-B) ---
  /// Closes the current stats window at `now`; returns requests in it.
  std::uint64_t roll_window(SimTime now);

  /// IncUpdate's trigger (dgm.mode = controller_load): true when the
  /// accumulated workload growth since the last grouping update exceeds
  /// the trigger and `dgm.cooldown` has elapsed since it.
  [[nodiscard]] bool should_regroup(SimTime now) const;

  /// Records a grouping update (an IncUpdate attempt or an applied DGM
  /// plan): restarts the cooldown and resets the growth baseline to the
  /// most recent window's workload.
  void note_regrouped(SimTime now);

  [[nodiscard]] double baseline_window_requests() const noexcept {
    return baseline_window_requests_;
  }
  [[nodiscard]] double last_window_requests() const noexcept {
    return last_window_requests_;
  }

  // --- grouping state ---
  [[nodiscard]] Grouping& grouping() noexcept { return grouping_; }
  [[nodiscard]] const Grouping& grouping() const noexcept { return grouping_; }
  void set_grouping(Grouping g) { grouping_ = std::move(g); }

 private:
  /// Snapshot codec (src/ckpt): serializes the C-LIB (its live slots in
  /// host order, which is MAC order), server free times and all
  /// window/outage counters verbatim.
  friend class lazyctrl::ckpt::StateAccess;

  /// The live C-LIB slot `mac` decodes to, or nullptr.
  [[nodiscard]] const ClibEntry* clib_slot(MacAddress mac) const noexcept;

  Config config_;
  /// Indexed by host index; see ClibEntry for an empty slot.
  std::vector<ClibEntry> clib_;
  std::size_t clib_live_ = 0;  ///< slots holding a host

  // Queueing (FIFO over the cluster's servers; index = server).
  std::vector<SimTime> servers_free_at_;
  std::uint64_t total_requests_ = 0;
  SimTime outage_until_ = 0;  ///< no service starts before this time
  std::uint64_t outage_queue_depth_ = 0;
  std::uint64_t outage_queue_peak_ = 0;
  std::uint64_t outage_queued_total_ = 0;
  std::uint64_t admission_drops_ = 0;

  // Stats windows.
  std::uint64_t window_requests_ = 0;
  double last_window_requests_ = 0;
  double baseline_window_requests_ = -1;  // <0 = not yet initialised
  SimTime last_update_at_ = 0;

  Grouping grouping_;
};

}  // namespace lazyctrl::core
