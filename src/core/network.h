// Network: the top-level façade wiring topology, switches, controller and
// simulator into a runnable control-plane experiment.
//
// This object plays the role of the paper's testbed (§V-A): it owns a copy
// of the topology, one EdgeSwitch per physical edge switch, the central
// controller, and a deterministic discrete-event simulator. A run is:
//
//   Network net(topology, config);
//   net.bootstrap(history_intensity_graph);   // setup phase + IniGroup
//   net.replay(trace);                        // drive flows, adapt grouping
//   net.metrics();                            // everything Figs. 7-9 need
//
// The same class runs the baseline (Config.mode = kOpenFlow), where the
// grouping machinery is inert and every table miss is a controller event.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/edge_switch.h"
#include "core/failover.h"
#include "core/metrics.h"
#include "core/sgi.h"
#include "dgm/maintainer.h"
#include "dgm/traffic_monitor.h"
#include "graph/weighted_graph.h"
#include "net/packet.h"
#include "openflow/flow_table.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "workload/trace.h"

namespace lazyctrl::runtime {
class ShardedRuntime;
}

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::obs {
class Registry;
}

namespace lazyctrl::core {

struct InvariantReport;
class InvariantChecker;

class Network : private dgm::GroupingHost {
 public:
  /// Takes a copy of the topology (migrations mutate it) and the run config.
  Network(topo::Topology topology, Config config);

  /// Setup phase (§III-D1): populates L-FIBs and the C-LIB from the current
  /// VM placement, and — in LazyCtrl mode — computes the initial grouping
  /// from `history_intensity` (IniGroup), selects designated switches and
  /// builds all G-FIBs.
  void bootstrap(const graph::WeightedGraph& history_intensity);

  /// Bootstrap without traffic history: LazyCtrl groups switches by index
  /// order (still size-constrained); OpenFlow mode ignores grouping.
  void bootstrap();

  /// Replays a trace to its horizon, driving flow setup, state reports and
  /// (when enabled) dynamic regrouping. May be called once per Network.
  /// One cursor chain feeds the trace to the datapath span by span (see
  /// kMaxSpanFlows); with config.runtime.num_shards > 1 each span is
  /// pre-decided in parallel by the sharded runtime (src/runtime), whose
  /// metrics are bit-identical to the single-threaded path.
  void replay(const workload::Trace& trace);

  /// Largest number of trace flows one span — one simulator event of the
  /// flow chain — may carry. A span also ends before the next pending
  /// simulator event and one rules.rule_ttl after its first flow. The cap
  /// bounds the sharded runtime's per-span scratch on dense traces with
  /// no control event in sight.
  static constexpr std::size_t kMaxSpanFlows = 8192;

  /// Where a checkpointed flow-cursor chain should pick up again; built
  /// by ckpt::StateAccess from a snapshot's pending-event table and held
  /// by a restored ScenarioRunner until finish() re-creates the chain.
  struct ResumeCursor {
    bool active = false;  ///< false: the chain had already finished
    SimTime at = 0;
    std::uint64_t seq = 0;
    sim::EventId id = 0;
    std::size_t index = 0;
  };

  /// Runs a checkpoint-restored replay to the trace horizon. Every timer
  /// and migration callback has already been re-attached by the restorer
  /// (ckpt::StateAccess); this re-creates the flow-injection chain under
  /// its exact snapshot tuple and drives the simulator. `rc` is the
  /// cursor the restorer recorded.
  void resume_replay(const workload::Trace& trace, const ResumeCursor& rc);

  /// Schedules a VM migration during replay (must be called before replay).
  void schedule_migration(HostId host, SwitchId to, SimTime at);

  // --- cold-cache experiment support (§V-E) ---
  /// Adds a host that no FIB knows about yet (newly deployed VM).
  HostId add_silent_host(TenantId tenant, SwitchId sw);
  /// Resolves `dst` from scratch (ARP cascade of §III-D3) and returns the
  /// first-packet latency of a fresh flow src -> dst, learning locations as
  /// a side effect. Works in both control modes.
  SimDuration cold_cache_first_packet(HostId src, HostId dst);

  /// Assembles the first data packet of `flow` from its resolved endpoint
  /// records — the single definition of the flow -> packet mapping. The
  /// per-flow datapath and the sharded runtime's workers both build
  /// packets through this helper, so the sharded replay's bit-identity
  /// contract cannot drift field by field.
  [[nodiscard]] static net::Packet make_flow_packet(
      const topo::HostInfo& src, const topo::HostInfo& dst,
      const workload::Flow& flow) noexcept;

  // --- accessors ---
  [[nodiscard]] const RunMetrics& metrics() const noexcept {
    return *metrics_;
  }
  [[nodiscard]] RunMetrics& metrics() noexcept { return *metrics_; }
  [[nodiscard]] EdgeSwitch& edge_switch(SwitchId id) {
    return *switches_.at(id.value());
  }
  [[nodiscard]] CentralController& controller() noexcept {
    return controller_;
  }
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] const Grouping& grouping() const noexcept {
    return controller_.grouping();
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const std::unordered_set<std::uint32_t>& excluded_hosts()
      const noexcept {
    return excluded_hosts_;
  }
  /// Total G-FIB storage in bytes: the simulator's one bank per group
  /// (the paper's per-switch replica cost is bench_storage_overhead's).
  [[nodiscard]] std::size_t total_gfib_bytes() const;

  /// Stage decomposition of one controller round trip, filled by
  /// controller_round_trip() for latency attribution (obs/flow_latency.h):
  /// uplink = PacketIn transit to the controller (incl. any failover
  /// detour), queue = wait from arrival to service start (outage backlog
  /// lives here), service = controller processing, downlink = FlowMod/
  /// PacketOut leg back. uplink + queue + service + downlink equals the
  /// round trip's return value exactly.
  struct ControllerTripBreakdown {
    SimDuration uplink = 0;
    SimDuration queue = 0;
    SimDuration service = 0;
    SimDuration downlink = 0;
    /// Backoff waits of failed punt attempts (lossy control channels);
    /// 0 when the first attempt went through. Included in the trip's
    /// total delay, surfaced as the `retry_backoff` latency stage.
    SimDuration retry_backoff = 0;
  };

  // --- observability (src/obs) ---
  /// Registers every observable of this network into `registry` under the
  /// naming scheme of docs/OBSERVABILITY.md: all RunMetrics fields
  /// (gauges — begin_replay() swaps the metrics storage, so pointers
  /// taken now would dangle), controller load/outage-queue state, FIB
  /// occupancy and G-FIB bytes, DGM round outcomes, sharded-runtime span
  /// stats and the wall-clock phase totals. The registry must not outlive
  /// this Network. Reading registered values never mutates run state.
  void register_stats(obs::Registry& registry);

  /// Sharded-runtime statistics of the last replay(), written by the
  /// runtime as it processes spans; all zero for single-threaded replays.
  struct RuntimeObsStats {
    std::uint64_t spans = 0;            ///< fence-bounded spans
    std::uint64_t flows = 0;            ///< flows through the shard path
    std::uint64_t redecided_flows = 0;  ///< stale-decision replays
    std::uint64_t repartitions = 0;     ///< grouping-epoch repartitions
  };
  [[nodiscard]] const RuntimeObsStats& runtime_obs() const noexcept {
    return runtime_obs_;
  }

  // --- dynamic group maintenance (dgm.mode periodic or drift_triggered) ---
  /// Runs one DGM maintenance round now. Normally driven by the periodic
  /// event `replay` schedules; exposed so tests and benches can step it.
  /// Returns true when a migration plan was applied.
  bool run_dgm_maintenance();
  /// Round-by-round DGM statistics, or nullptr when DGM is disabled.
  [[nodiscard]] const dgm::MaintainerStats* dgm_stats() const noexcept {
    return dgm_ ? &dgm_->stats() : nullptr;
  }

  // --- scenario injection seams (driven by scenario::ScenarioRunner) ---
  // Everything here commits coordinator-side state between replay spans
  // (scenario events are ordinary simulator events, fenced exactly like
  // stats windows and migrations), so scenarios stay bit-deterministic
  // for any shard count.

  /// Marks tenants whose hosts stay dormant through bootstrap: their
  /// L-FIB/C-LIB records are not disseminated and their MACs are
  /// invisible to every G-FIB until activate_tenant(). Must be called
  /// before bootstrap().
  void set_dormant_tenants(std::span<const TenantId> tenants);
  /// Tenant arrival (§III-D3 live dissemination): announces a dormant
  /// tenant's hosts — L-FIB/C-LIB learn plus a forced G-FIB resync of
  /// the affected groups. Returns false when the tenant has no dormant
  /// hosts.
  bool activate_tenant(TenantId tenant);
  /// Tenant departure: forgets the tenant's hosts (L-FIB/C-LIB), revokes
  /// reactive rules toward them at every switch and resyncs the affected
  /// G-FIBs. The hosts become dormant again (a later activate_tenant
  /// re-announces them). Returns false when the tenant has no active
  /// hosts.
  bool deactivate_tenant(TenantId tenant);

  /// Controller outage starting now: requests keep arriving and queueing
  /// but none is serviced for `duration`; the backlog then drains FIFO.
  void begin_controller_outage(SimDuration duration);

  // --- unreliable control plane (scenario seams) ---
  /// Runtime overrides of the control-channel fault model. Fault
  /// decisions are keyed on splitmix64(the flow's position in the trace,
  /// attempt, seed) — never the run RNG — so runs stay bit-identical
  /// across shard counts and rate changes only affect the messages they
  /// price.
  void set_control_loss(double rate) noexcept {
    config_.controller.loss_rate = rate;
  }
  void set_control_dup(double rate) noexcept {
    config_.controller.dup_rate = rate;
  }
  /// Drop-tail cap on the controller's outage backlog (0 = unlimited).
  void set_ctrl_queue_cap(std::size_t cap) noexcept {
    config_.controller.queue_cap = cap;
  }

  /// Anti-entropy reconciliation (scenario event `reconcile`, also run
  /// periodically when ctrl.reconcile_period > 0): audits every active
  /// host's L-FIB record at its attached switch and its C-LIB entry,
  /// repairs divergence by re-learning, and resyncs every group's G-FIB
  /// (delta pass — a no-op when nothing diverged). Returns false (no-op)
  /// in OpenFlow mode or before bootstrap. Repairs are counted in
  /// RunMetrics::reconcile_repairs; audit traffic in
  /// state_link_messages.
  bool reconcile_state();

  /// Failure injections, routed to the failure wheel of the group `sw`
  /// belongs to. Return false (no-op) when failover is disabled, `sw` is
  /// ungrouped, or — for the peer-link pair — the group has fewer than
  /// two members. The peer-link variants act on the ring link between
  /// `sw` and its downstream ring neighbour.
  bool inject_switch_failure(SwitchId sw);
  bool inject_switch_recovery(SwitchId sw);
  bool inject_peer_link_failure(SwitchId sw);
  bool inject_peer_link_recovery(SwitchId sw);
  bool inject_control_link_failure(SwitchId sw);
  bool inject_control_link_recovery(SwitchId sw);
  /// Keep-alive detections recorded by the live failure wheels (wheel
  /// state resets when a regrouping rebuilds the wheels).
  [[nodiscard]] std::size_t failover_event_count() const;

  /// Forces a regrouping attempt now, bypassing the periodic cadence: a
  /// DGM maintenance round in the DGM modes, otherwise (controller_load
  /// and off alike) an IncUpdate on the current intensity estimate that
  /// skips the workload-growth trigger but keeps the evidence floor.
  /// Returns true when a new grouping was committed.
  bool force_regroup();

  // --- failover (active when config.failover_enabled) ---
  /// The failure-detection wheel of the group `sw` belongs to, or nullptr
  /// when failover is disabled / the switch is ungrouped.
  [[nodiscard]] FailureWheel* wheel_of(SwitchId sw);
  [[nodiscard]] std::size_t wheel_count() const noexcept {
    return wheels_.size();
  }

 private:
  /// The sharded parallel replay runtime pre-decides a span's flows on
  /// the switches, then commits them through on_flow() while recording
  /// installs in the span install log, instead of a wide public surface.
  friend class lazyctrl::runtime::ShardedRuntime;

  /// The read-only conservation-invariant checker (core/invariants.h)
  /// audits private state — switch tables, dormant hosts, failure wheels
  /// — without widening the public surface or being able to perturb a
  /// run. The class lives entirely inside invariants.cpp.
  friend class InvariantChecker;

  /// The snapshot codec (src/ckpt): serializes the full run state at a
  /// scenario-event fence (in-flight ≡ 0) and rebuilds it on resume,
  /// re-attaching the pending timer/migration/cursor callbacks under
  /// their exact (time, seq, id) tuples.
  friend class lazyctrl::ckpt::StateAccess;

  struct PathDelays {
    SimDuration local;  ///< host -> switch -> host, same switch
    SimDuration cross;  ///< host -> switch -> underlay -> switch -> host

    /// Steady-state per-packet delay for a src -> dst switch pair.
    [[nodiscard]] SimDuration steady(SwitchId src_sw,
                                     SwitchId dst_sw) const noexcept {
      return src_sw == dst_sw ? local : cross;
    }
  };
  /// The ONE definition of the data-plane path delays every flow-handling
  /// site (replay datapath, cold cache) prices from.
  [[nodiscard]] PathDelays path_delays() const noexcept {
    const LatencyModel& lat = config_.latency;
    return {2 * lat.host_link + lat.switch_processing,
            2 * lat.host_link + 2 * lat.switch_processing + lat.datapath};
  }

  /// Why a flow needs the central controller. The decision processors
  /// classify; finish_controller_flow() executes (round trip, reactive
  /// rule, accounting).
  enum class ControllerPathReason : std::uint8_t {
    kOpenFlowMiss,       ///< baseline table miss -> exact-match rule
    kTransitionPunt,     ///< grouping transition window without preload
    kExcludedHosts,      ///< appendix-B excluded host pair
    kPureFalsePositive,  ///< G-FIB matched but dst outside the group
    kInterGroupPunt,     ///< Fig. 5 miss everywhere -> PacketIn
  };

  /// Pending-timer handles of the periodic machinery of one replay;
  /// a checkpoint classifies the pending queue by them.
  struct ReplayTimers {
    sim::EventId window = 0;
    sim::EventId report = 0;
    sim::EventId dgm = 0;
    sim::EventId reconcile = 0;
  };
  /// Re-buckets metrics to the trace horizon and schedules the periodic
  /// machinery (stats windows, state reports, DGM rounds, migrations),
  /// recording the timer ids in `replay_timers_`.
  void begin_replay(const workload::Trace& trace);
  /// Cancels the periodic timers in `replay_timers_`.
  void end_replay();

  /// Starts the flow chain — fresh at the first flow (`rc` null) or under
  /// a snapshot's tuple — runs the simulator to the trace horizon and
  /// ends the replay. The sharded runtime, when runtime.num_shards > 1,
  /// lives exactly as long as the chain.
  void run_flow_chain(const workload::Trace& trace, const ResumeCursor* rc);

  /// The chain's step: cuts the span starting at flow i (the only
  /// definition of the span rule, see kMaxSpanFlows) and runs it through
  /// on_flow(), or through `sharded` when non-null. `flows` and `sharded`
  /// must outlive the chain.
  [[nodiscard]] sim::CursorStep span_step(
      const std::vector<workload::Flow>& flows,
      runtime::ShardedRuntime* sharded);

  /// The per-flow datapath and its one entry point: ingress bookkeeping,
  /// the grouping transition window, then `pre` (a sharded worker's
  /// still-valid pre-decision) or a fresh decide(), then handling.
  /// `flow_id` is the flow's position in the trace; the fault rolls, the
  /// retry jitter and latency attribution key on it.
  void on_flow(const workload::Flow& flow, std::uint64_t flow_id,
               const EdgeSwitch::Decision* pre = nullptr);
  /// The appendix-B transition-window path. Returns true when the flow
  /// was fully handled (preload hit or transition punt).
  bool handle_transition_flow(const workload::Flow& flow,
                              std::uint64_t flow_id, SwitchId src_sw,
                              SwitchId dst_sw, const net::Packet& pkt);
  void process_openflow_decision(const workload::Flow& flow,
                                 std::uint64_t flow_id, SwitchId src_sw,
                                 SwitchId dst_sw, const net::Packet& pkt,
                                 const EdgeSwitch::Decision& d);
  void process_lazyctrl_decision(const workload::Flow& flow,
                                 std::uint64_t flow_id, SwitchId src_sw,
                                 SwitchId dst_sw, const net::Packet& pkt,
                                 const EdgeSwitch::Decision& d);
  /// Executes the controller path for a `reason`-classified flow:
  /// PacketIn round trip, reactive rule install, metric accounting.
  void finish_controller_flow(const workload::Flow& flow,
                              std::uint64_t flow_id, SwitchId src_sw,
                              SwitchId dst_sw, const net::Packet& pkt,
                              ControllerPathReason reason);
  [[nodiscard]] bool host_pair_excluded(const workload::Flow& flow) const {
    return !excluded_hosts_.empty() &&
           (excluded_hosts_.contains(flow.src.value()) ||
            excluded_hosts_.contains(flow.dst.value()));
  }

  /// PacketIn round trip from `via` (invalid = generic path): request at
  /// `now`, rule back. Returns the added delay and records workload
  /// metrics. A non-null `breakdown` receives the stage decomposition
  /// (latency attribution); passing nullptr costs nothing.
  SimDuration controller_round_trip(SimTime now,
                                    SwitchId via = SwitchId::invalid(),
                                    ControllerTripBreakdown* breakdown =
                                        nullptr);
  /// Extra one-way delay of `via`'s control link: when the failure wheel
  /// has detoured it through the upstream ring neighbour (§III-E2), each
  /// direction pays one more peer-link hop; 0 otherwise.
  [[nodiscard]] SimDuration control_detour(SwitchId via);

  /// Outcome of a punt attempt sequence under the fault model: `delay`
  /// is the total elapsed time (backoffs + the successful round trip
  /// when delivered; backoffs only when not), `backoff` the accumulated
  /// retry waits, `delivered` false when every attempt was lost/rejected.
  struct PuntOutcome {
    SimDuration delay = 0;
    SimDuration backoff = 0;
    bool delivered = true;
  };
  /// The fault-aware generalization of controller_round_trip(): sends
  /// the PacketIn up to 1 + ctrl.punt_retry_limit times, pricing lost /
  /// duplicated legs, bounded admission rejects and deterministic
  /// exponential backoff between attempts. With loss_rate = dup_rate = 0
  /// and queue_cap = 0 the first attempt succeeds and prices exactly
  /// what controller_round_trip() does. Controller workload
  /// series and PacketIn counters are bumped only for the successful
  /// attempt, so the conservation identities are unchanged by faults.
  PuntOutcome controller_punt_with_retry(std::uint64_t flow_id, SimTime now,
                                         SwitchId via,
                                         ControllerTripBreakdown* breakdown);

  /// Installs the coarse inter-group rule (LazyCtrl) or the exact-match
  /// rule (OpenFlow) for a resolved flow.
  void install_reactive_rule(EdgeSwitch& sw, const net::Packet& pkt,
                             SwitchId dst_sw, bool exact_match, SimTime now);

  void account_flow_latency(const workload::Flow& flow,
                            SimDuration first_packet,
                            SimDuration steady_packet);

  /// Installs `grouping` (compacted) and rebuilds designated switches,
  /// G-FIBs and transition windows for every group whose member set
  /// actually changed. The rebuild set is derived here by diffing against
  /// the switches' previous assignment rather than trusted from the
  /// caller: compact() renumbers groups by first appearance, so ids
  /// computed against the pre-compact numbering (IncUpdate/DGM touched
  /// lists) can point at the wrong group after renumbering. Unchanged
  /// groups' G-FIB banks move to their new ids as they are.
  void apply_grouping(Grouping grouping, bool initial);
  /// Brings group `g`'s G-FIB bank in sync with its `members`. When the
  /// bank's peer set differs from the members, the bank is rebuilt from
  /// scratch and every member re-attached; otherwise only the filters of
  /// `changed_members` — members whose own host set just changed (live
  /// host migration, tenant arrival/departure, cold-cache learning) — are
  /// re-synced, since every other filter is a pure function of an
  /// unchanged host set.
  void rebuild_group_fib(GroupId g, const std::vector<SwitchId>& members,
                         std::span<const SwitchId> changed_members = {});
  /// An empty bank with the configured filter geometry and layout.
  [[nodiscard]] GFib empty_gfib() const {
    return GFib(BloomParameters{config_.fib.bloom_bits,
                                config_.fib.bloom_hashes},
                config_.fib.layout);
  }
  void select_designated(const std::vector<SwitchId>& members);
  void compute_excluded_hosts();
  void rebuild_failure_wheels();
  /// One IncUpdate round on the monitor's intensity estimate, above the
  /// `dgm.min_flow_evidence` floor and, unless `forced`, only when the
  /// controller's growth trigger fires. Returns true on a commit.
  bool run_incupdate(bool forced);
  /// Resyncs the G-FIBs of every group containing a `changed` switch,
  /// marking those switches dirty (their host sets just changed).
  void resync_changed_members(const std::vector<SwitchId>& changed);
  /// True when `h` must not appear in any G-FIB or bootstrap
  /// dissemination (appendix-B exclusion or a dormant tenant's host).
  [[nodiscard]] bool host_hidden(HostId h) const {
    return excluded_hosts_.contains(h.value()) ||
           dormant_hosts_.contains(h.value());
  }
  void perform_migration(HostId host, SwitchId to);
  void roll_stats_window();
  /// Body of the periodic state-report timer (begin_replay), shared with
  /// the checkpoint restorer so the re-attached periodic runs the exact
  /// same code.
  void state_report_tick();

  // dgm::GroupingHost (the seam the MigrationExecutor commits through).
  // commit_grouping is also IncUpdate's commit: the one tail that applies
  // a new grouping, restarts the controller's cooldown and counts the
  // grouping update.
  [[nodiscard]] const Grouping& current_grouping() const override {
    return controller_.grouping();
  }
  void commit_grouping(Grouping grouping,
                       const std::vector<GroupId>& touched) override;

  topo::Topology topology_;
  Config config_;
  sim::Simulator simulator_;
  Rng rng_;
  CentralController controller_;
  std::vector<std::unique_ptr<EdgeSwitch>> switches_;
  /// One G-FIB bank per group (indexed by GroupId) holding every member's
  /// filter once; each member views it through EdgeSwitch::gfib().
  std::vector<GFib> gfibs_;
  std::unique_ptr<RunMetrics> metrics_;
  Sgi sgi_;

  /// Host ids excluded from grouping (appendix B); flows touching them are
  /// controller-handled.
  std::unordered_set<std::uint32_t> excluded_hosts_;
  /// Hosts of dormant (not-yet-arrived / departed) tenants: invisible to
  /// L-FIB dissemination and G-FIBs until activate_tenant().
  std::unordered_set<std::uint32_t> dormant_hosts_;

  /// Switch-pair traffic: on_flow counts every cross-switch flow into its
  /// current window (the aggregate the state advertisements report), and
  /// each stats window folds into its decayed intensity estimate. Feeds
  /// both IncUpdate and the DGM maintainer.
  std::unique_ptr<dgm::TrafficMonitor> traffic_monitor_;
  /// The DGM control loop (null unless dgm.mode is periodic or
  /// drift_triggered).
  std::unique_ptr<dgm::Maintainer> dgm_;

  struct PendingMigration {
    HostId host;
    SwitchId to;
    SimTime at;
    /// Simulator event id once begin_replay() scheduled it (0 before);
    /// lets a checkpoint classify and a restore re-attach the one-shot.
    sim::EventId event = 0;
  };
  std::vector<PendingMigration> pending_migrations_;

  /// Timer ids of the current replay (valid once begin_replay() ran);
  /// read by the snapshot codec to classify pending periodic events.
  ReplayTimers replay_timers_;

  /// Live position of the flow-injection cursor chain, so a snapshot can
  /// describe — and a restore re-create — the chain's single pending
  /// event.
  sim::CursorTracker cursor_;

  /// Non-null while the sharded runtime merges a span: installs are
  /// recorded per ingress switch (outer index = switch id) so the merge
  /// can re-decide any later packet of the span whose worker pre-decision
  /// an install made stale.
  std::vector<std::vector<openflow::Match>>* span_install_log_ = nullptr;

  /// Bumped by every apply_grouping(); the sharded runtime re-partitions
  /// groups onto shards when it observes a new epoch at a span boundary.
  std::uint64_t grouping_epoch_ = 0;

  /// One failure-detection wheel per group (empty unless failover enabled).
  std::vector<std::unique_ptr<FailureWheel>> wheels_;

  /// Sharded replay stats (see runtime_obs()); the ShardedRuntime counts
  /// into it through the friend seam.
  RuntimeObsStats runtime_obs_;

  bool bootstrapped_ = false;
  bool replayed_ = false;
  SimDuration horizon_ = 24 * kHour;
};

}  // namespace lazyctrl::core
