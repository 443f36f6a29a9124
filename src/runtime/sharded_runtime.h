// Sharded parallel span processing with deterministic fence-bounded
// synchronization.
//
// LazyCtrl's edge groups localize most traffic, which makes them natural
// parallelism units: ShardedRuntime partitions the network's switches by
// group onto N shards (ShardPlan), each serviced by its own worker thread,
// and processes the *spans* core::Network's replay loop cuts — runs of
// consecutive trace flows that start before the next pending simulator
// event, within one rule TTL of the span's first flow and at most
// Network::kMaxSpanFlows long. Within a span every shard pre-decides the
// flows entering its own switches with EdgeSwitch::decide() (single-owner
// state, race-free by construction; a group's shared G-FIB bank is only
// read during a span and belongs to the group's one shard); shards
// re-synchronize at the span barrier.
//
// Workers only pre-decide; all side effects (rule installs, controller
// queueing, metrics) commit on the coordinator in global flow order at
// the barrier, through Network::on_flow() — the same per-flow entry point
// a single-threaded replay uses — with a per-switch install log that
// re-decides any packet whose pre-decision a span install made stale. The
// TTL bound keeps a worker's expiry sweep from removing a rule an earlier
// flow of the span refreshed before the merge re-decides that flow, so
// metrics are bit-identical to the single-threaded replay — enforced by
// tests/runtime_test.cpp.
//
// Network's replay loop creates the runtime when
// Config.runtime.num_shards > 1 and keeps it for the whole replay. A
// grouping change bumps Network's grouping epoch and the runtime
// re-partitions groups onto shards at the next span.
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
  /// Binds to a bootstrapped Network and spawns one worker thread per
  /// shard; the destructor joins them.
  explicit ShardedRuntime(core::Network& net);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Handles trace flows [begin, end) — one span cut by Network's replay
  /// loop — as parallel pre-decide, barrier, ordered merge. Counts into
  /// Network::runtime_obs().
  void process_span(const std::vector<workload::Flow>& flows,
                    std::size_t begin, std::size_t end);

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

  void worker_main(std::size_t shard_idx);

  /// Rebuilds the switch->shard plan from the live grouping when the
  /// grouping epoch moved (span boundaries only).
  void refresh_plan();

  void run_shard(Shard& shard);
  void merge(const std::vector<workload::Flow>& flows, std::size_t begin,
             std::size_t end);

  core::Network& net_;

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
  std::vector<SwitchId> src_sw_;              ///< per span offset
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
};

}  // namespace lazyctrl::runtime
