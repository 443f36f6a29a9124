// Configuration for a LazyCtrl (or baseline OpenFlow) control plane run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace lazyctrl::core {

/// Which control plane drives the network.
enum class ControlMode {
  kOpenFlow,  ///< Baseline: every new flow is set up by the controller.
  kLazyCtrl,  ///< Hybrid: LCGs handle intra-group flows, controller the rest.
};

struct LatencyModel {
  /// Host NIC <-> edge switch.
  SimDuration host_link = 20 * kMicrosecond;
  /// One-hop underlay path between any two edge switches (§III-B1).
  SimDuration datapath = 150 * kMicrosecond;
  /// Per-switch pipeline processing (table lookups, encap).
  SimDuration switch_processing = 10 * kMicrosecond;
  /// One-way control/state/peer link latency to the controller or peers.
  SimDuration control_link = 500 * kMicrosecond;
  /// Controller service time per request (1 / capacity). The paper cites
  /// ~30K requests/s for commodity controllers; scaled runs keep the ratio.
  SimDuration controller_service = 50 * kMicrosecond;

  bool operator==(const LatencyModel&) const = default;
};

struct ControllerConfig {
  /// Number of servers behind the logically centralized controller
  /// (§III-B2: "a logical controller comprised of a cluster of servers").
  /// Requests go to the earliest-free server (M/D/k-style FIFO).
  std::size_t servers = 1;

  // --- unreliable control plane (all defaults are behavior-preserving) ---
  /// Per-message control-channel loss probability in [0, 1]. Decided by a
  /// splitmix64 hash of (the flow's position in the trace, attempt,
  /// direction, seed) — never the run RNG — so lossy runs stay
  /// bit-identical across reps and shard counts, and rate 0 is a true
  /// no-op.
  double loss_rate = 0.0;
  /// Per-message control-channel duplication probability in [0, 1]. A
  /// duplicate consumes control-link bandwidth (message counters) but is
  /// idempotent at the receiver.
  double dup_rate = 0.0;
  /// Outage/backlog queue capacity (0 = unlimited). When bounded, punts
  /// arriving during an outage with a full backlog get an explicit reject
  /// reply instead of queueing (drop-tail admission).
  std::size_t queue_cap = 0;
  /// Retries an edge switch attempts after a punt's reply times out (the
  /// initial attempt is not a retry). Past the limit the flow degrades to
  /// §III-D intra-group flooding (LazyCtrl) or is dropped (OpenFlow).
  std::uint32_t punt_retry_limit = 3;
  /// Base detection timeout / backoff unit: a failed attempt k costs
  /// (punt_retry_base << k) plus deterministic jitter before the next try.
  SimDuration punt_retry_base = 2 * kMillisecond;
  /// Anti-entropy reconciliation period (0 = off): periodically audits
  /// and repairs L-FIB/C-LIB/G-FIB state that diverged under loss.
  SimDuration reconcile_period = 0;

  bool operator==(const ControllerConfig&) const = default;
};

struct GroupingConfig {
  /// Hard cap on switches per local control group.
  std::size_t group_size_limit = 46;
  /// IncUpdate trigger (dgm.mode = controller_load): accumulated
  /// controller-workload growth since the last update.
  double workload_growth_trigger = 0.30;
  /// Window over which workload/traffic statistics are accumulated.
  SimDuration stats_window = 1 * kMinute;
  /// EWMA decay for the recent intensity estimate: each closed window
  /// contributes (1 - decay) of the estimate, so the effective horizon is
  /// stats_window / (1 - decay). Smooths out scaled-trace noise so
  /// IncUpdate follows traffic structure rather than per-window jitter.
  double intensity_ewma_decay = 0.85;
  /// Max merge-split iterations per IncUpdate invocation.
  int max_incupdate_iterations = 4;
  /// Appendix B: process several disjoint group pairs per iteration.
  bool parallel_incupdate = false;
  /// Appendix B: preload temporary rules during grouping transitions.
  bool preload_on_update = true;
  /// Duration of the reconfiguration window after an update during which
  /// affected switches lack fresh G-FIBs (absorbed by preload when on).
  SimDuration transition_window = 200 * kMillisecond;
  /// Appendix B: exclude hosts of switches serving more tenants than this
  /// from grouping (0 = feature off); their flows go to the controller.
  std::size_t host_exclusion_tenant_threshold = 0;

  bool operator==(const GroupingConfig&) const = default;
};

/// The regroup policy after IniGroup. kControllerLoad is the paper's
/// IncUpdate (§III-C2); the two maintenance modes run Dynamic Group
/// Maintenance (the src/dgm subsystem), which keeps switch groups tracking
/// traffic drift online without rerunning the full multilevel partitioner
/// on the hot path.
enum class DgmMode {
  kOff,             ///< groups frozen after IniGroup
  kControllerLoad,  ///< IncUpdate when a stats window's controller workload
                    ///< grew past `workload_growth_trigger`
  kPeriodic,        ///< DGM regroup attempt every `maintenance_period`
  kDriftTriggered,  ///< DGM regroup only when the drift detector fires
};

struct DgmConfig {
  DgmMode mode = DgmMode::kControllerLoad;
  /// Cadence of maintenance rounds. In kDriftTriggered mode this is how
  /// often the drift detector is evaluated; regrouping itself only happens
  /// on a triggered verdict.
  SimDuration maintenance_period = 5 * kMinute;
  /// Absolute drift trigger: inter-group fraction of the monitored
  /// cross-switch intensity above this fires the detector.
  double inter_fraction_limit = 0.15;
  /// Relative drift trigger: inter-group fraction above
  /// `degradation_factor` x the post-last-regroup baseline fires too...
  double degradation_factor = 1.5;
  /// ...but only once the fraction also exceeds this floor (keeps noise on
  /// near-perfect groupings from triggering).
  double degradation_floor = 0.02;
  /// Group-size skew trigger: (max - min group size) / group_size_limit
  /// above this fires. Skewed groups concentrate designated-switch load.
  double size_skew_limit = 0.75;
  /// Regrouping (IncUpdate or a DGM round) is skipped while the decayed
  /// intensity estimate carries fewer flows than this — regrouping on no
  /// evidence only churns state.
  double min_flow_evidence = 200.0;
  /// Anti-oscillation spacing: the minimum time between applied DGM plans,
  /// or between IncUpdate attempts.
  SimDuration cooldown = 2 * kMinute;
  /// Migration-cost bounds per maintenance round.
  std::size_t max_moves_per_round = 8;
  std::size_t max_merges_per_round = 2;
  std::size_t max_splits_per_round = 2;
  /// A planned action must improve its local objective by at least this
  /// fraction to be committed (marginal gains on sampled estimates churn).
  double min_gain_fraction = 0.02;

  bool operator==(const DgmConfig&) const = default;
};

/// Storage layout of the G-FIB Bloom bank. Both layouts hold the SAME
/// bits and produce bit-identical candidate sets (including false
/// positives) for any key; they differ only in memory order and therefore
/// scan cost.
enum class GFibLayout {
  /// One independent filter per peer; a scan probes S-1 bit arrays
  /// (O(S) cache lines). The paper's literal §III-D2 layout.
  kLinear,
  /// Bit-sliced (transposed): per bit position, a word-packed peer mask;
  /// a scan ANDs k peer masks (O(k) cache lines regardless of group
  /// size). See bloom::SlicedBloomBank.
  kSliced,
};

struct FibConfig {
  /// Bloom-filter bits per G-FIB entry filter. The paper's sizing example
  /// uses 16 x 128-byte entries = 2048 bytes = 16384 bits per peer filter.
  std::size_t bloom_bits = 16384;
  std::size_t bloom_hashes = 8;
  /// G-FIB bank layout; kSliced is the cache-interleaved fast scan,
  /// kLinear the literal per-peer transcription (same candidate sets).
  GFibLayout layout = GFibLayout::kSliced;
  /// Report mis-forwarded (false-positive) packets to the controller so it
  /// can install exact rules (§III-D4, optional).
  bool report_false_positives = false;

  bool operator==(const FibConfig&) const = default;
};

struct RuleConfig {
  /// TTL for reactively installed rules; hit refreshes the expiry.
  SimDuration rule_ttl = 60 * kSecond;
  /// Per-switch flow-table capacity (0 = unlimited).
  std::size_t flow_table_capacity = 0;

  bool operator==(const RuleConfig&) const = default;
};

/// Sharded parallel replay (the src/runtime subsystem): partitions the
/// network by edge group into shards, each driven by its own worker
/// thread, which pre-decide the flows of each replay span in parallel.
/// All side effects commit on the coordinator in global flow order, so
/// metrics are bit-identical to the single-threaded Network::replay
/// (enforced by tests/runtime_test.cpp).
struct RuntimeConfig {
  /// Number of replay shards. 1 = the single-threaded datapath (no
  /// worker threads); > 1 makes Network::replay hand each span to
  /// runtime::ShardedRuntime. Effective shard count is clamped to the
  /// number of groups (or switches when ungrouped).
  std::size_t num_shards = 1;

  bool operator==(const RuntimeConfig&) const = default;
};

/// Full configuration of a run; every subsystem documents its own knobs
/// above and the README's "Configuration" section summarises them.
struct Config {
  /// Which control plane drives the network (kOpenFlow = baseline).
  ControlMode mode = ControlMode::kLazyCtrl;
  /// Link/processing/service latencies of the simulated fabric.
  LatencyModel latency;
  /// Controller cluster sizing (M/D/k queueing model).
  ControllerConfig controller;
  /// LCG sizing, IncUpdate triggers and transition handling.
  GroupingConfig grouping;
  /// The regroup policy (IncUpdate by default) and its DGM knobs.
  DgmConfig dgm;
  /// G-FIB Bloom-filter geometry and mis-forward reporting.
  FibConfig fib;
  /// Reactive-rule TTL and flow-table capacity.
  RuleConfig rules;
  /// Sharded parallel replay (src/runtime); 1 shard = single-threaded.
  RuntimeConfig runtime;
  /// Designated switches report aggregated state this often (state link).
  SimDuration state_report_period = 30 * kSecond;
  /// Enable the per-group failure-detection wheel (keep-alive machinery);
  /// off by default because long replays do not exercise failures.
  bool failover_enabled = false;
  /// Keep-alive period on the wheel when failover is enabled.
  SimDuration keepalive_period = 1 * kSecond;
  /// Keep-alives missed before declaring loss.
  int keepalive_loss_threshold = 3;
  /// Time for a remotely rebooted switch to come back (§III-E3).
  SimDuration switch_reboot_delay = 10 * kSecond;
  /// Master seed for all run randomness; equal seeds replay bit-identically.
  std::uint64_t seed = 1;

  bool operator==(const Config&) const = default;
};

}  // namespace lazyctrl::core
