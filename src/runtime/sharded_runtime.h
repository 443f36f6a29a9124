// Sharded parallel replay runtime with deterministic fence-bounded
// synchronization.
//
// LazyCtrl's edge groups localize most traffic, which makes them natural
// parallelism units: ShardedRuntime partitions the network's switches by
// group onto N shards (ShardPlan), each serviced by its own worker thread,
// and steps the replay in *spans* — runs of consecutive trace flows
// fenced by the next pending control-plane event
// (Simulator::next_event_time(): stats window, state report, outage, DGM
// round, checkpoint fence), kept narrower than one rule TTL, and capped at
// kMaxSpanFlows flows, which bounds the per-span scratch memory. Within a
// span every shard pre-decides the flows entering its own switches with
// EdgeSwitch::decide() (single-owner state, race-free by construction; a
// group's shared G-FIB bank is only read during a span and belongs to the
// group's one shard); shards re-synchronize at the span barrier.
//
// Workers only pre-decide; all side effects (rule installs, controller
// queueing, metrics) commit on the coordinator in global flow order at
// the barrier, with a per-switch install log that re-decides any packet
// whose pre-decision a span install made stale. The TTL bound keeps a
// worker's expiry sweep from removing a rule an earlier flow of the span
// refreshed before the merge re-decides that flow, so metrics are
// bit-identical to the single-threaded Network::replay — enforced by
// tests/runtime_test.cpp.
//
// Network::replay() delegates here when Config.runtime.num_shards > 1;
// the runtime reuses all of Network's periodic machinery (stats windows,
// state reports, DGM maintenance, scheduled migrations) through the
// begin_replay()/end_replay() seam, so dynamic regrouping keeps working
// under sharded replay — a grouping change bumps Network's grouping
// epoch and the runtime re-partitions groups onto shards at the next
// span boundary.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/edge_switch.h"
#include "core/network.h"
#include "net/packet.h"
#include "openflow/flow_table.h"
#include "runtime/shard_plan.h"
#include "workload/trace.h"

namespace lazyctrl::runtime {

class ShardedRuntime {
 public:
  /// Binds to a bootstrapped Network. Worker threads are spawned by
  /// replay() and joined before it returns (and by the destructor).
  explicit ShardedRuntime(core::Network& net);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Replays the trace through the sharded datapath. Semantics (horizon,
  /// periodic machinery, migrations) match Network::replay; results land
  /// in the network's RunMetrics as usual. May be called once.
  void replay(const workload::Trace& trace);

  /// Continues a checkpoint-restored replay (src/ckpt): every timer and
  /// migration has already been re-attached and the simulator clock and
  /// counters restored, so this skips begin_replay(), re-creates the
  /// span-injection chain under its exact snapshot tuple (`rc`) and
  /// drives the simulator to the horizon.
  void resume(const workload::Trace& trace,
              const core::Network::ResumeCursor& rc);

  /// Largest number of flows one span may carry. Spans end at the next
  /// control event or one rule TTL after their first flow; this cap bounds the per-span scratch (the shards'
  /// packets, decisions and candidate pools, the coordinator's per-flow
  /// bookkeeping) on dense traces with no control event in sight.
  static constexpr std::size_t kMaxSpanFlows = 8192;

  struct Stats {
    std::uint64_t spans = 0;            ///< spans processed
    std::uint64_t flows = 0;            ///< flows routed through spans
    std::uint64_t redecided_flows = 0;  ///< staleness repairs at the merge
    std::uint64_t repartitions = 0;     ///< shard-plan rebuilds observed
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Effective shard count (requested, clamped to groups/switches).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  /// A worker's pre-decision of one flow: the decide() kind plus the
  /// flow's candidate range in the shard's pool (kIntraGroup only).
  struct PreDecision {
    core::EdgeSwitch::DecisionKind kind;
    std::uint32_t cand_begin;
    std::uint32_t cand_end;
  };

  /// Per-shard worker state. Everything here is touched by the owning
  /// worker during a span and by the coordinator only between spans (the
  /// barrier mutex orders the two).
  struct Shard {
    std::vector<std::uint32_t> offsets;     ///< span offsets owned, in order
    std::vector<net::Packet> packets;       ///< one packet per owned offset
    std::vector<PreDecision> decisions;     ///< aligned with packets
    std::vector<SwitchId> candidates;       ///< pool decisions index into
  };

  void spawn_workers();
  void stop_workers();
  void worker_main(std::size_t shard_idx);

  /// The span-injection cursor step (shared by replay() and
  /// resume(); see the comment at its schedule site in replay()).
  [[nodiscard]] sim::CursorStep span_cursor_step(
      const std::vector<workload::Flow>* flows);
  /// Common tail of replay()/resume(): drive the simulator to the trace
  /// horizon, release the periodic machinery, stop workers and publish
  /// runtime observability stats.
  void run_to_horizon(const workload::Trace& trace,
                      const core::Network::ReplayTimers& timers);

  /// Rebuilds the switch->shard plan from the live grouping when the
  /// grouping epoch moved (span boundaries only).
  void refresh_plan();

  /// Handles trace flows [begin, end) as one span: meta pass,
  /// parallel pre-decide, barrier, ordered merge.
  void process_span(const std::vector<workload::Flow>& flows,
                    std::size_t begin, std::size_t end);
  void run_shard(Shard& shard);
  void merge(const std::vector<workload::Flow>& flows, std::size_t begin,
             std::size_t end);

  core::Network& net_;
  bool replayed_ = false;

  ShardPlan plan_;
  std::uint64_t plan_epoch_ = 0;
  /// Sized once at construction: workers hold references into it.
  std::vector<Shard> shards_;

  // --- span scratch (coordinator-owned, capacity reused across spans) ---
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;
  /// The span workers are currently (or were last) working on: pointer to
  /// the trace flows plus the span's first flow index. Published before
  /// the work barrier, read by workers during the parallel phase.
  const std::vector<workload::Flow>* span_flows_ = nullptr;
  std::size_t span_begin_ = 0;
  std::vector<SwitchId> src_sw_;             ///< per span offset
  std::vector<SwitchId> dst_sw_;             ///< per span offset
  std::vector<std::uint32_t> shard_of_flow_;  ///< per span offset
  /// Position of the offset inside its shard's packets/decisions, or
  /// kUnassigned for flows the coordinator handles itself (transition
  /// windows).
  std::vector<std::uint32_t> pos_;
  /// Per-switch matches installed while merging the current span
  /// (exposed to Network via span_install_log_).
  std::vector<std::vector<openflow::Match>> install_log_;

  // --- worker pool (barrier-synchronized per span) ---
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t span_seq_ = 0;
  std::size_t done_count_ = 0;
  bool shutdown_ = false;

  Stats stats_;
};

}  // namespace lazyctrl::runtime
