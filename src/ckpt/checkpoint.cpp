#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/metrics.h"
#include "core/network.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/simulator.h"

namespace lazyctrl::ckpt {

namespace {

// Section tags, in file order. The save order IS the restore order; a
// reader meeting a different tag fails with both names in the message.
constexpr std::uint32_t kSpec = fourcc("SPEC");
constexpr std::uint32_t kMeta = fourcc("META");
constexpr std::uint32_t kConf = fourcc("CONF");
constexpr std::uint32_t kGrpg = fourcc("GRPG");
constexpr std::uint32_t kTopo = fourcc("TOPO");
constexpr std::uint32_t kCtrl = fourcc("CTRL");
constexpr std::uint32_t kSwch = fourcc("SWCH");
constexpr std::uint32_t kWhel = fourcc("WHEL");
constexpr std::uint32_t kDgms = fourcc("DGMS");
constexpr std::uint32_t kRngs = fourcc("RNGS");
constexpr std::uint32_t kSimu = fourcc("SIMU");
constexpr std::uint32_t kMetr = fourcc("METR");

// Pending-event descriptor kinds: what a queued (time, seq, id) tuple
// WAS, so the restorer can re-attach an equivalent callback. Everything
// that can legally be pending at a scenario-event fence is one of these;
// anything else fails the save (the in-flight ≡ 0 check).
enum PendingKind : std::uint8_t {
  kPendingWindowTimer = 0,     ///< Network::roll_stats_window periodic
  kPendingReportTimer = 1,     ///< Network::state_report_tick periodic
  kPendingDgmTimer = 2,        ///< Network::run_dgm_maintenance periodic
  kPendingReconcileTimer = 3,  ///< Network::reconcile_state periodic
  kPendingMigration = 4,       ///< payload = pending_migrations_ index
  kPendingWheelKeepalive = 5,  ///< payload = wheel index
  kPendingWheelReboot = 6,     ///< payload = wheel index, payload2 = switch
  kPendingFlowCursor = 7,      ///< payload = flow index (ResumeCursor)
  kPendingScriptEvent = 8,     ///< payload = spec event index
  kPendingExtraCheckpoint = 9, ///< payload = extra_checkpoint_times_ index
};
constexpr std::uint8_t kPendingKindMax = kPendingExtraCheckpoint;

struct PendingDesc {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  bool periodic = false;
  SimDuration period = 0;
  std::uint8_t kind = 0;
  std::uint64_t payload = 0;
  std::uint32_t payload2 = 0;
};

[[nodiscard]] bool kind_is_periodic(std::uint8_t kind) noexcept {
  switch (kind) {
    case kPendingWindowTimer:
    case kPendingReportTimer:
    case kPendingDgmTimer:
    case kPendingReconcileTimer:
    case kPendingWheelKeepalive:
      return true;
    default:
      return false;
  }
}

}  // namespace

// --- metrics field helpers (private-state access via friendship) ---

void StateAccess::write_series(Writer& w, const TimeBucketSeries& s) {
  w.i64(s.width_);
  w.u64(s.buckets_.size());
  for (const auto& b : s.buckets_) {
    w.f64(b.sum);
    w.u64(b.events);
  }
  w.i64(s.memo_begin_);
  w.i64(s.memo_end_);
  w.u64(s.memo_idx_);
}

void StateAccess::read_series(Reader& r, TimeBucketSeries& s) {
  const SimDuration width = r.i64();
  if (r.ok() && width <= 0) {
    r.fail("time series bucket width must be positive");
    return;
  }
  const std::uint64_t n = r.count(16);
  if (r.ok() && n == 0) {
    r.fail("time series needs at least one bucket");
    return;
  }
  s.width_ = width;
  s.buckets_.assign(static_cast<std::size_t>(n), {});
  for (std::uint64_t i = 0; i < n; ++i) {
    s.buckets_[static_cast<std::size_t>(i)].sum = r.f64();
    s.buckets_[static_cast<std::size_t>(i)].events = r.u64();
  }
  s.memo_begin_ = r.i64();
  s.memo_end_ = r.i64();
  s.memo_idx_ = static_cast<std::size_t>(r.u64());
  if (r.ok() && s.memo_idx_ >= s.buckets_.size()) {
    r.fail("time series memo index out of range");
  }
}

void StateAccess::write_running(Writer& w, const RunningStats& s) {
  w.u64(s.count_);
  w.f64(s.mean_);
  w.f64(s.m2_);
  w.f64(s.min_);
  w.f64(s.max_);
  w.f64(s.sum_);
}

void StateAccess::read_running(Reader& r, RunningStats& s) {
  s.count_ = static_cast<std::size_t>(r.u64());
  s.mean_ = r.f64();
  s.m2_ = r.f64();
  s.min_ = r.f64();
  s.max_ = r.f64();
  s.sum_ = r.f64();
}

// --- save ---

bool StateAccess::save(scenario::ScenarioRunner& runner, std::uint32_t index,
                       std::vector<std::uint8_t>* out, std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  core::Network* net = runner.net_.get();
  if (net == nullptr || !net->replayed_) {
    return fail("checkpoint requires a live replay (nothing to snapshot)");
  }
  // Classify every live pending event. The map covers everything that
  // may legally be queued at a scenario-event fence; an id outside it is
  // in-flight work and fails the snapshot.
  struct Tag {
    std::uint8_t kind;
    std::uint64_t payload;
    std::uint32_t payload2;
  };
  std::unordered_map<std::uint64_t, Tag> known;
  const auto tag = [&](sim::EventId id, std::uint8_t kind,
                       std::uint64_t payload = 0, std::uint32_t p2 = 0) {
    if (id != 0) known.emplace(id, Tag{kind, payload, p2});
  };
  tag(net->replay_timers_.window, kPendingWindowTimer);
  tag(net->replay_timers_.report, kPendingReportTimer);
  tag(net->replay_timers_.dgm, kPendingDgmTimer);
  tag(net->replay_timers_.reconcile, kPendingReconcileTimer);
  for (std::size_t i = 0; i < net->pending_migrations_.size(); ++i) {
    tag(net->pending_migrations_[i].event, kPendingMigration, i);
  }
  for (std::size_t wi = 0; wi < net->wheels_.size(); ++wi) {
    const core::FailureWheel& fw = *net->wheels_[wi];
    if (fw.running_) tag(fw.timer_, kPendingWheelKeepalive, wi);
    for (const auto& [id, sw] : fw.pending_reboots_) {
      tag(id, kPendingWheelReboot, wi, sw.value());
    }
  }
  if (net->cursor_.active) {
    tag(net->cursor_.id, kPendingFlowCursor, net->cursor_.index);
  }
  for (std::size_t i = 0; i < runner.script_event_ids_.size(); ++i) {
    tag(runner.script_event_ids_[i], kPendingScriptEvent, i);
  }
  for (std::size_t i = 0; i < runner.extra_event_ids_.size(); ++i) {
    tag(runner.extra_event_ids_[i], kPendingExtraCheckpoint, i);
  }

  std::vector<PendingDesc> descs;
  std::unordered_set<std::uint64_t> pending_ids;
  for (const sim::Simulator::PendingEvent& p :
       net->simulator_.pending_snapshot()) {
    const auto it = known.find(p.id);
    if (it == known.end()) {
      return fail("in-flight work at the checkpoint fence: pending event id " +
                  std::to_string(p.id) + " at t=" + std::to_string(p.time) +
                  "ns is not a classifiable control event");
    }
    pending_ids.insert(p.id);
    descs.push_back({p.time, p.seq, p.id, p.periodic, p.period,
                     it->second.kind, it->second.payload,
                     it->second.payload2});
  }
  // A restored-but-not-finished runner has no flow-cursor event in its
  // queue yet (finish() re-creates the chain); synthesize its descriptor
  // from the resume cursor so restore(checkpoint(s)) + save_now()
  // reproduces the snapshot byte for byte.
  if (runner.restored_ && !runner.ran_ && runner.resume_cursor_.active) {
    descs.push_back({runner.resume_cursor_.at, runner.resume_cursor_.seq,
                     runner.resume_cursor_.id, false, 0, kPendingFlowCursor,
                     runner.resume_cursor_.index, 0});
    std::sort(descs.begin(), descs.end(),
              [](const PendingDesc& a, const PendingDesc& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
  }

  Writer w;

  // SPEC: the canonical scenario text; topology and trace re-derive from
  // it deterministically on restore, so neither is serialized.
  w.begin_section(kSpec);
  w.str(scenario::serialize_scenario(runner.spec_));
  w.end_section();

  // META: runner bookkeeping.
  w.begin_section(kMeta);
  w.u32(index);
  w.i64(net->simulator_.now());
  w.u64(runner.extra_checkpoint_times_.size());
  for (const SimTime t : runner.extra_checkpoint_times_) w.i64(t);
  w.u64(runner.counts_.scheduled);
  w.u64(runner.counts_.applied);
  w.u64(runner.counts_.skipped);
  w.boolean(runner.check_invariants_);
  w.u64(runner.invariant_violations_.size());
  for (const std::string& v : runner.invariant_violations_) w.str(v);
  w.end_section();

  // CONF: the runtime-mutable config knobs (scenario seams can change
  // them mid-run; everything else is reconstructed from the spec).
  w.begin_section(kConf);
  const core::Config& cfg = net->config_;
  w.f64(cfg.controller.loss_rate);
  w.f64(cfg.controller.dup_rate);
  w.u64(cfg.controller.queue_cap);
  w.end_section();

  // GRPG: grouping + hidden-host sets.
  w.begin_section(kGrpg);
  const core::Grouping& grouping = net->controller_.grouping();
  w.u64(grouping.switch_to_group.size());
  for (const std::uint32_t g : grouping.switch_to_group) w.u32(g);
  w.u64(grouping.group_count);
  w.u64(net->grouping_epoch_);
  {
    std::vector<std::uint32_t> dormant(net->dormant_hosts_.begin(),
                                       net->dormant_hosts_.end());
    std::sort(dormant.begin(), dormant.end());
    w.u64(dormant.size());
    for (const std::uint32_t h : dormant) w.u32(h);
    std::vector<std::uint32_t> excluded(net->excluded_hosts_.begin(),
                                        net->excluded_hosts_.end());
    std::sort(excluded.begin(), excluded.end());
    w.u64(excluded.size());
    for (const std::uint32_t h : excluded) w.u32(h);
  }
  w.end_section();

  // TOPO: scheduled migrations, each flagged done when its one-shot has
  // already fired (the restorer replays done ones onto its fresh
  // topology copy and re-attaches the rest).
  w.begin_section(kTopo);
  w.u64(net->pending_migrations_.size());
  for (const core::Network::PendingMigration& m : net->pending_migrations_) {
    w.u32(m.host.value());
    w.u32(m.to.value());
    w.i64(m.at);
    w.u64(m.event);
    w.boolean(m.event != 0 && !pending_ids.contains(m.event));
  }
  w.end_section();

  // CTRL: C-LIB (sorted by MAC for canonical bytes) + queueing model +
  // workload-window state.
  w.begin_section(kCtrl);
  {
    const core::CentralController& c = net->controller_;
    std::vector<std::pair<std::uint64_t, core::ClibEntry>> clib;
    clib.reserve(c.clib_.size());
    for (const auto& [mac, entry] : c.clib_) clib.push_back({mac.bits(), entry});
    std::sort(clib.begin(), clib.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(clib.size());
    for (const auto& [mac, entry] : clib) {
      w.u64(mac);
      w.u32(entry.host.value());
      w.u32(entry.tenant.value());
      w.u32(entry.attached_switch.value());
    }
    w.u64(c.servers_free_at_.size());
    for (const SimTime t : c.servers_free_at_) w.i64(t);
    w.u64(c.total_requests_);
    w.i64(c.outage_until_);
    w.u64(c.outage_queue_depth_);
    w.u64(c.outage_queue_peak_);
    w.u64(c.outage_queued_total_);
    w.u64(c.admission_drops_);
    w.u64(c.window_requests_);
    w.f64(c.last_window_requests_);
    w.f64(c.baseline_window_requests_);
    w.i64(c.last_update_at_);
  }
  w.end_section();

  // SWCH: per-switch state. G-FIBs are rebuilt on restore (pure function
  // of topology + grouping + hidden hosts), so only the L-FIB, the flow
  // table and the window counters travel.
  w.begin_section(kSwch);
  w.u64(net->switches_.size());
  for (const auto& swp : net->switches_) {
    const core::EdgeSwitch& es = *swp;
    w.u32(es.group_.value());
    w.u32(es.designated_.value());
    w.i64(es.transition_until_);
    std::vector<MacAddress> macs = es.lfib_.macs();
    std::sort(macs.begin(), macs.end());
    w.u64(macs.size());
    for (const MacAddress mac : macs) {
      const auto entry = es.lfib_.lookup(mac);
      assert(entry.has_value());
      w.u64(mac.bits());
      w.u32(entry->host.value());
      w.u32(entry->tenant.value());
    }
    w.u64(es.window_flows_.size());
    for (const std::uint64_t f : es.window_flows_) w.u64(f);
    w.u64(es.window_touched_.size());
    for (const SwitchId p : es.window_touched_) w.u32(p.value());
    const openflow::FlowTable& t = es.table_;
    w.u64(t.capacity_);
    w.u64(t.evictions_);
    w.i64(t.next_expiry_);
    w.u64(t.rules_.size());
    for (const openflow::FlowRule& rule : t.rules_) {
      w.i64(rule.priority);
      std::uint8_t flags = 0;
      if (rule.match.tenant) flags |= 1;
      if (rule.match.src_mac) flags |= 2;
      if (rule.match.dst_mac) flags |= 4;
      w.u8(flags);
      w.u32(rule.match.tenant ? rule.match.tenant->value() : 0);
      w.u64(rule.match.src_mac ? rule.match.src_mac->bits() : 0);
      w.u64(rule.match.dst_mac ? rule.match.dst_mac->bits() : 0);
      w.u8(static_cast<std::uint8_t>(rule.action.type));
      w.u32(rule.action.remote_switch.value());
      w.u32(rule.action.tunnel_dst.bits());
      w.i64(rule.installed_at);
      w.i64(rule.expires_at);
      w.u64(rule.match_count);
    }
  }
  w.end_section();

  // WHEL: failure wheels, verbatim (members already MAC-ordered).
  w.begin_section(kWhel);
  w.u64(net->wheels_.size());
  for (const auto& wp : net->wheels_) {
    const core::FailureWheel& fw = *wp;
    w.u64(fw.members_.size());
    for (const SwitchId m : fw.members_) w.u32(m.value());
    w.u32(fw.designated_.value());
    w.u64(fw.backups_.size());
    for (const SwitchId b : fw.backups_) w.u32(b.value());
    for (const auto& s : fw.state_) {
      w.boolean(s.up);
      w.boolean(s.control_link_up);
      w.boolean(s.control_relayed);
      w.boolean(s.down_link_up);
      w.boolean(s.outage_announced);
    }
    w.boolean(fw.running_);
    w.u64(fw.timer_);
    w.u64(fw.events_.size());
    for (const core::WheelEvent& ev : fw.events_) {
      w.i64(ev.at);
      w.u32(ev.subject.value());
      w.u8(static_cast<std::uint8_t>(ev.kind));
      w.str(ev.action);
    }
    std::vector<std::uint64_t> reported(fw.reported_.begin(),
                                        fw.reported_.end());
    std::sort(reported.begin(), reported.end());
    w.u64(reported.size());
    for (const std::uint64_t k : reported) w.u64(k);
    std::vector<std::pair<std::uint64_t, int>> misses(fw.miss_counts_.begin(),
                                                      fw.miss_counts_.end());
    std::sort(misses.begin(), misses.end());
    w.u64(misses.size());
    for (const auto& [k, v] : misses) {
      w.u64(k);
      w.i64(v);
    }
    w.u64(fw.pending_reboots_.size());
    for (const auto& [id, sw] : fw.pending_reboots_) {
      w.u64(id);
      w.u32(sw.value());
    }
  }
  w.end_section();

  // DGMS: traffic monitor estimate + (when enabled) the maintainer.
  w.begin_section(kDgms);
  {
    const dgm::TrafficMonitor& tm = *net->traffic_monitor_;
    std::vector<std::pair<std::uint64_t, double>> ewma(tm.ewma_.begin(),
                                                       tm.ewma_.end());
    std::sort(ewma.begin(), ewma.end());
    w.u64(ewma.size());
    for (const auto& [k, v] : ewma) {
      w.u64(k);
      w.f64(v);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> window(
        tm.window_.begin(), tm.window_.end());
    std::sort(window.begin(), window.end());
    w.u64(window.size());
    for (const auto& [k, v] : window) {
      w.u64(k);
      w.u64(v);
    }
    w.f64(tm.flow_mass_);
  }
  w.boolean(net->dgm_ != nullptr);
  if (net->dgm_) {
    const dgm::Maintainer& m = *net->dgm_;
    w.u64(m.rng_.state());
    w.i64(m.last_applied_at_);
    w.f64(m.detector_.baseline_fraction_);
    w.i64(m.detector_.last_regroup_at_);
    w.u64(m.stats_.rounds);
    w.u64(m.stats_.plans_applied);
    w.u64(m.stats_.switch_moves);
    w.u64(m.stats_.group_merges);
    w.u64(m.stats_.group_splits);
    w.u64(m.stats_.flow_mods);
    w.u64(m.stats_.history.size());
    for (const dgm::MaintenanceRound& round : m.stats_.history) {
      w.i64(round.at);
      w.u8(static_cast<std::uint8_t>(round.verdict.kind));
      w.f64(round.verdict.inter_fraction);
      w.f64(round.verdict.baseline_fraction);
      w.f64(round.verdict.size_skew);
      w.f64(round.verdict.evidence);
      w.boolean(round.plan_applied);
      w.u64(round.moves);
      w.u64(round.merges);
      w.u64(round.splits);
      w.u64(round.touched_groups);
      w.u64(round.flow_mods);
      w.f64(round.inter_before);
      w.f64(round.inter_after);
    }
  }
  w.end_section();

  // RNGS: the network's run RNG position. (The runner's topology/
  // workload/surge/burst streams are consumed before replay starts and
  // never resume, so only this one travels.)
  w.begin_section(kRngs);
  w.u64(net->rng_.state());
  w.end_section();

  // SIMU: clock + allocation counters + the pending descriptor table.
  w.begin_section(kSimu);
  w.i64(net->simulator_.now());
  w.u64(net->simulator_.next_seq());
  w.u64(net->simulator_.next_event_id());
  w.u64(net->simulator_.processed_events());
  w.u64(descs.size());
  for (const PendingDesc& d : descs) {
    w.i64(d.time);
    w.u64(d.seq);
    w.u64(d.id);
    w.boolean(d.periodic);
    w.i64(d.period);
    w.u8(d.kind);
    w.u64(d.payload);
    w.u32(d.payload2);
  }
  w.end_section();

  // METR: RunMetrics, wholesale. Restored LAST so bookkeeping bumps made
  // while rebuilding derived state (G-FIB dissemination counters) are
  // overwritten with the exact snapshot values.
  w.begin_section(kMetr);
  {
    const core::RunMetrics& m = *net->metrics_;
#define LAZYCTRL_X(f) write_series(w, m.f);
    LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) w.u64(m.f);
    LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) write_running(w, m.f);
    LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
  w.end_section();

  *out = w.finish();
  return true;
}

// --- restore ---

std::unique_ptr<scenario::ScenarioRunner> StateAccess::restore_runner(
    const std::vector<std::uint8_t>& bytes, std::string* error) {
  const auto fail =
      [&](std::string msg) -> std::unique_ptr<scenario::ScenarioRunner> {
    if (error) *error = std::move(msg);
    return nullptr;
  };
  Reader r(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()));
  if (!r.ok()) return fail(r.error());

  // SPEC -> spec -> topology -> trace (all deterministic re-derivations).
  r.enter_section(kSpec);
  const std::string spec_text = r.str();
  r.leave_section();
  if (!r.ok()) return fail(r.error());
  scenario::ParseResult parsed = scenario::parse_scenario(spec_text);
  if (!parsed.ok()) {
    return fail("embedded scenario spec failed to parse:\n" +
                parsed.error_text());
  }
  std::unique_ptr<scenario::ScenarioRunner> runner(
      new scenario::ScenarioRunner(std::move(parsed.spec)));

  // META.
  r.enter_section(kMeta);
  const std::uint32_t snap_index = r.u32();
  const SimTime fence_at = r.i64();
  (void)fence_at;  // authoritative clock travels in SIMU
  {
    const std::uint64_t n = r.count(8);
    runner->extra_checkpoint_times_.clear();
    runner->extra_checkpoint_times_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      runner->extra_checkpoint_times_.push_back(r.i64());
    }
  }
  const std::uint64_t counts_scheduled = r.u64();
  const std::uint64_t counts_applied = r.u64();
  const std::uint64_t counts_skipped = r.u64();
  runner->check_invariants_ = r.boolean();
  {
    const std::uint64_t n = r.count(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      runner->invariant_violations_.push_back(r.str());
    }
  }
  r.leave_section();
  if (!r.ok()) return fail(r.error());

  std::string err;
  if (!runner->prepare_topology(&err) || !runner->validate(&err)) {
    return fail("embedded scenario spec failed validation: " + err);
  }
  runner->build_trace();  // bumps counts_ for build-time events...
  runner->counts_.scheduled = static_cast<std::size_t>(counts_scheduled);
  runner->counts_.applied = static_cast<std::size_t>(counts_applied);
  runner->counts_.skipped = static_cast<std::size_t>(counts_skipped);
  // ...which the saved fence values (just applied) already include.

  core::Config config = runner->spec_.config;
  config.seed = runner->spec_.seed;
  runner->net_ =
      std::make_unique<core::Network>(runner->topology_, config);
  core::Network* net = runner->net_.get();
  const std::size_t switch_count = net->switches_.size();

  // CONF.
  r.enter_section(kConf);
  net->config_.controller.loss_rate = r.f64();
  net->config_.controller.dup_rate = r.f64();
  net->config_.controller.queue_cap = static_cast<std::size_t>(r.u64());
  r.leave_section();

  // GRPG.
  r.enter_section(kGrpg);
  {
    // n == 0 is a run that never grouped (openflow mode, or lazyctrl
    // before bootstrap); otherwise the map must cover every switch.
    const std::uint64_t n = r.count(4);
    if (r.ok() && n != 0 && n != switch_count) {
      r.fail("grouping covers " + std::to_string(n) + " switches, topology has " +
             std::to_string(switch_count));
    }
    core::Grouping g;
    g.switch_to_group.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) g.switch_to_group.push_back(r.u32());
    g.group_count = static_cast<std::size_t>(r.u64());
    if (r.ok() && n == 0 && g.group_count != 0) {
      r.fail("empty grouping claims " + std::to_string(g.group_count) +
             " groups");
    }
    for (const std::uint32_t gi : g.switch_to_group) {
      if (r.ok() && gi != GroupId::kInvalidValue && gi >= g.group_count) {
        r.fail("switch assigned to group " + std::to_string(gi) +
               " >= group count " + std::to_string(g.group_count));
        break;
      }
    }
    if (r.ok()) net->controller_.set_grouping(std::move(g));
    net->grouping_epoch_ = r.u64();
    const std::uint64_t dn = r.count(4);
    for (std::uint64_t i = 0; i < dn; ++i) {
      net->dormant_hosts_.insert(r.u32());
    }
    const std::uint64_t en = r.count(4);
    for (std::uint64_t i = 0; i < en; ++i) {
      net->excluded_hosts_.insert(r.u32());
    }
  }
  r.leave_section();

  // TOPO: rebuild the migration schedule; replay completed moves onto
  // the network's fresh topology copy in firing order (at, then schedule
  // order — the order the one-shots fired in).
  r.enter_section(kTopo);
  {
    const std::uint64_t n = r.count(25);
    std::vector<std::size_t> done;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t host = r.u32();
      const std::uint32_t to = r.u32();
      const SimTime at = r.i64();
      const std::uint64_t event = r.u64();
      const bool completed = r.boolean();
      if (r.ok() && (host >= net->topology_.host_count() ||
                     to >= net->topology_.switch_count())) {
        r.fail("migration entry references host " + std::to_string(host) +
               " / switch " + std::to_string(to) + " outside the topology");
        break;
      }
      net->pending_migrations_.push_back(
          {HostId{host}, SwitchId{to}, at, event});
      if (completed) done.push_back(static_cast<std::size_t>(i));
    }
    std::stable_sort(done.begin(), done.end(),
                     [&](std::size_t a, std::size_t b) {
                       return net->pending_migrations_[a].at <
                              net->pending_migrations_[b].at;
                     });
    if (r.ok()) {
      for (const std::size_t i : done) {
        net->topology_.migrate_host(net->pending_migrations_[i].host,
                                    net->pending_migrations_[i].to);
      }
    }
  }
  r.leave_section();

  // CTRL.
  r.enter_section(kCtrl);
  {
    core::CentralController& c = net->controller_;
    const std::uint64_t n = r.count(20);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t mac = r.u64();
      const std::uint32_t host = r.u32();
      const std::uint32_t tenant = r.u32();
      const std::uint32_t sw = r.u32();
      c.clib_.emplace(MacAddress{mac},
                      core::ClibEntry{HostId{host}, TenantId{tenant},
                                      SwitchId{sw}});
    }
    const std::uint64_t servers = r.count(8);
    if (r.ok() && servers == 0) r.fail("controller needs at least one server");
    c.servers_free_at_.clear();
    for (std::uint64_t i = 0; i < servers; ++i) {
      c.servers_free_at_.push_back(r.i64());
    }
    c.total_requests_ = r.u64();
    c.outage_until_ = r.i64();
    c.outage_queue_depth_ = r.u64();
    c.outage_queue_peak_ = r.u64();
    c.outage_queued_total_ = r.u64();
    c.admission_drops_ = r.u64();
    c.window_requests_ = r.u64();
    c.last_window_requests_ = r.f64();
    c.baseline_window_requests_ = r.f64();
    c.last_update_at_ = r.i64();
  }
  r.leave_section();

  // SWCH.
  r.enter_section(kSwch);
  {
    const std::uint64_t n = r.count(16);
    if (r.ok() && n != switch_count) {
      r.fail("snapshot has " + std::to_string(n) + " switches, topology has " +
             std::to_string(switch_count));
    }
    for (std::uint64_t si = 0; r.ok() && si < n; ++si) {
      core::EdgeSwitch& es = *net->switches_[static_cast<std::size_t>(si)];
      es.group_ = GroupId{r.u32()};
      es.designated_ = SwitchId{r.u32()};
      es.transition_until_ = r.i64();
      const std::uint64_t ln = r.count(16);
      for (std::uint64_t i = 0; i < ln; ++i) {
        const std::uint64_t mac = r.u64();
        const std::uint32_t host = r.u32();
        const std::uint32_t tenant = r.u32();
        es.lfib_.learn(MacAddress{mac}, HostId{host}, TenantId{tenant});
      }
      const std::uint64_t wf = r.count(8);
      es.window_flows_.clear();
      for (std::uint64_t i = 0; i < wf; ++i) {
        es.window_flows_.push_back(r.u64());
      }
      const std::uint64_t wt = r.count(4);
      es.window_touched_.clear();
      for (std::uint64_t i = 0; i < wt; ++i) {
        es.window_touched_.push_back(SwitchId{r.u32()});
      }
      openflow::FlowTable& t = es.table_;
      t.capacity_ = static_cast<std::size_t>(r.u64());
      t.evictions_ = r.u64();
      t.next_expiry_ = r.i64();
      const std::uint64_t rn = r.count(47);
      for (std::uint64_t i = 0; i < rn; ++i) {
        openflow::FlowRule rule;
        rule.priority = static_cast<int>(r.i64());
        const std::uint8_t flags = r.u8();
        const std::uint32_t tenant = r.u32();
        const std::uint64_t src = r.u64();
        const std::uint64_t dst = r.u64();
        if (flags & 1) rule.match.tenant = TenantId{tenant};
        if (flags & 2) rule.match.src_mac = MacAddress{src};
        if (flags & 4) rule.match.dst_mac = MacAddress{dst};
        const std::uint8_t action = r.u8();
        if (r.ok() &&
            action > static_cast<std::uint8_t>(openflow::ActionType::kDrop)) {
          r.fail("flow rule has unknown action type " +
                 std::to_string(action));
          break;
        }
        rule.action.type = static_cast<openflow::ActionType>(action);
        rule.action.remote_switch = SwitchId{r.u32()};
        rule.action.tunnel_dst = IpAddress{r.u32()};
        rule.installed_at = r.i64();
        rule.expires_at = r.i64();
        rule.match_count = r.u64();
        t.rules_.push_back(std::move(rule));
      }
      t.index_dirty_ = true;
    }
  }
  r.leave_section();

  // G-FIBs: derived state. Each filter is a pure function of the
  // (restored) topology attachment and the hidden-host sets, so one fresh
  // bank per group reproduces the uninterrupted run's banks bit for bit.
  // The dissemination-counter bumps this makes are overwritten by METR
  // below.
  if (r.ok() && net->config_.mode == core::ControlMode::kLazyCtrl &&
      net->controller_.grouping().group_count > 0) {
    const auto members = net->controller_.grouping().members();
    net->gfibs_.assign(members.size(), net->empty_gfib());
    for (std::size_t gi = 0; gi < members.size(); ++gi) {
      if (!members[gi].empty()) {
        net->rebuild_group_fib(GroupId{static_cast<std::uint32_t>(gi)},
                               members[gi]);
      }
    }
  }

  // WHEL.
  r.enter_section(kWhel);
  {
    const std::uint64_t wn = r.count(8);
    for (std::uint64_t wi = 0; r.ok() && wi < wn; ++wi) {
      std::vector<SwitchId> members;
      const std::uint64_t mn = r.count(4);
      if (r.ok() && mn == 0) {
        r.fail("failure wheel has no members");
        break;
      }
      for (std::uint64_t i = 0; i < mn; ++i) {
        const std::uint32_t m = r.u32();
        if (r.ok() && m >= switch_count) {
          r.fail("wheel member " + std::to_string(m) +
                 " outside the topology");
          break;
        }
        members.push_back(SwitchId{m});
      }
      const SwitchId designated{r.u32()};
      std::vector<SwitchId> backups;
      const std::uint64_t bn = r.count(4);
      for (std::uint64_t i = 0; i < bn; ++i) backups.push_back(SwitchId{r.u32()});
      if (!r.ok()) break;
      auto wheel = std::make_unique<core::FailureWheel>(
          net->simulator_, members, designated, backups, net->config_);
      for (auto& s : wheel->state_) {
        s.up = r.boolean();
        s.control_link_up = r.boolean();
        s.control_relayed = r.boolean();
        s.down_link_up = r.boolean();
        s.outage_announced = r.boolean();
      }
      wheel->running_ = r.boolean();
      wheel->timer_ = r.u64();
      const std::uint64_t en = r.count(14);
      for (std::uint64_t i = 0; i < en; ++i) {
        core::WheelEvent ev;
        ev.at = r.i64();
        ev.subject = SwitchId{r.u32()};
        const std::uint8_t kind = r.u8();
        if (r.ok() &&
            kind > static_cast<std::uint8_t>(core::FailureKind::kSwitch)) {
          r.fail("wheel event has unknown failure kind " +
                 std::to_string(kind));
          break;
        }
        ev.kind = static_cast<core::FailureKind>(kind);
        ev.action = r.str();
        wheel->events_.push_back(std::move(ev));
      }
      const std::uint64_t rn = r.count(8);
      for (std::uint64_t i = 0; i < rn; ++i) wheel->reported_.insert(r.u64());
      const std::uint64_t miss = r.count(16);
      for (std::uint64_t i = 0; i < miss; ++i) {
        const std::uint64_t key = r.u64();
        wheel->miss_counts_[key] = static_cast<int>(r.i64());
      }
      const std::uint64_t pr = r.count(12);
      for (std::uint64_t i = 0; i < pr; ++i) {
        const std::uint64_t id = r.u64();
        wheel->pending_reboots_.push_back({id, SwitchId{r.u32()}});
      }
      net->wheels_.push_back(std::move(wheel));
    }
  }
  r.leave_section();

  // DGMS.
  r.enter_section(kDgms);
  {
    dgm::TrafficMonitor& tm = *net->traffic_monitor_;
    const std::uint64_t en = r.count(16);
    for (std::uint64_t i = 0; i < en; ++i) {
      const std::uint64_t key = r.u64();
      tm.ewma_[key] = r.f64();
    }
    const std::uint64_t wn = r.count(16);
    for (std::uint64_t i = 0; i < wn; ++i) {
      const std::uint64_t key = r.u64();
      tm.window_[key] = r.u64();
    }
    tm.flow_mass_ = r.f64();
    const bool dgm_present = r.boolean();
    if (r.ok() && dgm_present != (net->dgm_ != nullptr)) {
      r.fail(std::string("snapshot ") +
             (dgm_present ? "has" : "lacks") +
             " DGM state but the spec's dgm.mode says otherwise");
    }
    if (r.ok() && dgm_present) {
      dgm::Maintainer& m = *net->dgm_;
      m.rng_ = Rng(r.u64());
      m.last_applied_at_ = r.i64();
      m.detector_.baseline_fraction_ = r.f64();
      m.detector_.last_regroup_at_ = r.i64();
      m.stats_.rounds = r.u64();
      m.stats_.plans_applied = r.u64();
      m.stats_.switch_moves = r.u64();
      m.stats_.group_merges = r.u64();
      m.stats_.group_splits = r.u64();
      m.stats_.flow_mods = r.u64();
      const std::uint64_t hn = r.count(80);
      for (std::uint64_t i = 0; i < hn; ++i) {
        dgm::MaintenanceRound round;
        round.at = r.i64();
        const std::uint8_t kind = r.u8();
        if (r.ok() && kind > static_cast<std::uint8_t>(
                                 dgm::DriftKind::kGroupSizeSkew)) {
          r.fail("maintenance round has unknown drift kind " +
                 std::to_string(kind));
          break;
        }
        round.verdict.kind = static_cast<dgm::DriftKind>(kind);
        round.verdict.inter_fraction = r.f64();
        round.verdict.baseline_fraction = r.f64();
        round.verdict.size_skew = r.f64();
        round.verdict.evidence = r.f64();
        round.plan_applied = r.boolean();
        round.moves = static_cast<std::size_t>(r.u64());
        round.merges = static_cast<std::size_t>(r.u64());
        round.splits = static_cast<std::size_t>(r.u64());
        round.touched_groups = static_cast<std::size_t>(r.u64());
        round.flow_mods = static_cast<std::size_t>(r.u64());
        round.inter_before = r.f64();
        round.inter_after = r.f64();
        m.stats_.history.push_back(round);
      }
    }
  }
  r.leave_section();

  // RNGS.
  r.enter_section(kRngs);
  net->rng_ = Rng(r.u64());
  r.leave_section();

  // SIMU: clock/counters first (re-attachment validates tuples against
  // them), then the descriptor table.
  r.enter_section(kSimu);
  {
    const SimTime now = r.i64();
    const std::uint64_t next_seq = r.u64();
    const std::uint64_t next_id = r.u64();
    const std::uint64_t processed = r.u64();
    if (!r.ok()) {
      r.leave_section();
      return fail(r.error());
    }
    net->simulator_.restore_clock(now, next_seq, next_id, processed);
    runner->script_event_ids_.assign(runner->spec_.events.size(), 0);
    runner->extra_event_ids_.assign(runner->extra_checkpoint_times_.size(),
                                    0);
    scenario::ScenarioRunner* rp = runner.get();
    std::unordered_set<std::uint64_t> seen_ids;
    const std::uint64_t dn = r.count(39);
    for (std::uint64_t i = 0; r.ok() && i < dn; ++i) {
      PendingDesc d;
      d.time = r.i64();
      d.seq = r.u64();
      d.id = r.u64();
      d.periodic = r.boolean();
      d.period = r.i64();
      d.kind = r.u8();
      d.payload = r.u64();
      d.payload2 = r.u32();
      if (!r.ok()) break;
      if (d.kind > kPendingKindMax) {
        r.fail("unknown pending-event kind " + std::to_string(d.kind));
        break;
      }
      if (d.id == 0 || d.id >= next_id || d.seq >= next_seq || d.time < 0) {
        r.fail("pending event id " + std::to_string(d.id) +
               " has a tuple outside the restored counters");
        break;
      }
      if (!seen_ids.insert(d.id).second) {
        r.fail("pending event id " + std::to_string(d.id) +
               " appears twice");
        break;
      }
      if (d.periodic != kind_is_periodic(d.kind) ||
          (d.periodic && d.period <= 0)) {
        r.fail("pending event id " + std::to_string(d.id) +
               " has an inconsistent periodic flag/period");
        break;
      }
      switch (d.kind) {
        case kPendingWindowTimer:
          net->simulator_.restore_periodic(d.time, d.seq, d.id, d.period,
                                           [net] { net->roll_stats_window(); });
          net->replay_timers_.window = d.id;
          break;
        case kPendingReportTimer:
          net->simulator_.restore_periodic(d.time, d.seq, d.id, d.period,
                                           [net] { net->state_report_tick(); });
          net->replay_timers_.report = d.id;
          break;
        case kPendingDgmTimer:
          if (!net->dgm_) {
            r.fail("DGM timer pending but dgm.mode is off");
            break;
          }
          net->simulator_.restore_periodic(
              d.time, d.seq, d.id, d.period,
              [net] { net->run_dgm_maintenance(); });
          net->replay_timers_.dgm = d.id;
          break;
        case kPendingReconcileTimer:
          net->simulator_.restore_periodic(d.time, d.seq, d.id, d.period,
                                           [net] { net->reconcile_state(); });
          net->replay_timers_.reconcile = d.id;
          break;
        case kPendingMigration: {
          if (d.payload >= net->pending_migrations_.size() ||
              net->pending_migrations_[static_cast<std::size_t>(d.payload)]
                      .event != d.id) {
            r.fail("migration descriptor does not match the schedule");
            break;
          }
          const core::Network::PendingMigration& m =
              net->pending_migrations_[static_cast<std::size_t>(d.payload)];
          net->simulator_.restore_one_shot(
              d.time, d.seq, d.id, [net, host = m.host, to = m.to] {
                net->perform_migration(host, to);
              });
          break;
        }
        case kPendingWheelKeepalive: {
          if (d.payload >= net->wheels_.size()) {
            r.fail("wheel keep-alive descriptor references wheel " +
                   std::to_string(d.payload) + " of " +
                   std::to_string(net->wheels_.size()));
            break;
          }
          core::FailureWheel* fw =
              net->wheels_[static_cast<std::size_t>(d.payload)].get();
          if (!fw->running_ || fw->timer_ != d.id) {
            r.fail("wheel keep-alive descriptor does not match wheel state");
            break;
          }
          net->simulator_.restore_periodic(d.time, d.seq, d.id, d.period,
                                           [fw] { fw->tick(); });
          break;
        }
        case kPendingWheelReboot: {
          if (d.payload >= net->wheels_.size()) {
            r.fail("wheel reboot descriptor references wheel " +
                   std::to_string(d.payload) + " of " +
                   std::to_string(net->wheels_.size()));
            break;
          }
          core::FailureWheel* fw =
              net->wheels_[static_cast<std::size_t>(d.payload)].get();
          net->simulator_.restore_one_shot(
              d.time, d.seq, d.id, [fw, sw = SwitchId{d.payload2}] {
                fw->finish_reboot(sw);
              });
          break;
        }
        case kPendingFlowCursor:
          if (d.payload >= runner->trace_->flows.size()) {
            r.fail("flow cursor index " + std::to_string(d.payload) +
                   " beyond the trace's " +
                   std::to_string(runner->trace_->flows.size()) + " flows");
            break;
          }
          // Not re-attached here: finish() re-creates the flow chain
          // (Network::resume_replay) under this exact tuple.
          runner->resume_cursor_ = {true, d.time, d.seq, d.id,
                                    static_cast<std::size_t>(d.payload)};
          break;
        case kPendingScriptEvent:
          if (d.payload >= runner->spec_.events.size()) {
            r.fail("script event index " + std::to_string(d.payload) +
                   " beyond the spec's " +
                   std::to_string(runner->spec_.events.size()) + " events");
            break;
          }
          net->simulator_.restore_one_shot(
              d.time, d.seq, d.id,
              [rp, i = static_cast<std::size_t>(d.payload)] {
                rp->apply_event(rp->spec_.events[i]);
              });
          runner->script_event_ids_[static_cast<std::size_t>(d.payload)] =
              d.id;
          break;
        case kPendingExtraCheckpoint:
          if (d.payload >= runner->extra_checkpoint_times_.size()) {
            r.fail("extra checkpoint index " + std::to_string(d.payload) +
                   " beyond the recorded " +
                   std::to_string(runner->extra_checkpoint_times_.size()) +
                   " fences");
            break;
          }
          net->simulator_.restore_one_shot(
              d.time, d.seq, d.id, [rp] { rp->take_checkpoint(); });
          runner->extra_event_ids_[static_cast<std::size_t>(d.payload)] =
              d.id;
          break;
        default:
          r.fail("unhandled pending-event kind");
          break;
      }
    }
  }
  r.leave_section();

  // METR: last, replacing every bookkeeping bump made above.
  r.enter_section(kMetr);
  {
    net->horizon_ = runner->trace_->horizon;
    net->metrics_ = std::make_unique<core::RunMetrics>(net->horizon_);
    core::RunMetrics& m = *net->metrics_;
#define LAZYCTRL_X(f) read_series(r, m.f);
    LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) m.f = r.u64();
    LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) read_running(r, m.f);
    LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
  r.leave_section();
  if (r.ok() && r.offset() != bytes.size()) {
    r.fail("trailing bytes after the final section");
  }
  if (!r.ok()) return fail(r.error());

  net->bootstrapped_ = true;
  net->replayed_ = true;
  runner->restored_ = true;
  runner->restore_index_ = snap_index;
  runner->next_snapshot_index_ = snap_index + 1;
  return runner;
}

// --- file helpers ---

bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes,
                         std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

bool read_snapshot_file(const std::string& path,
                        std::vector<std::uint8_t>* out, std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    if (error) *error = "short read from " + path;
    return false;
  }
  return true;
}

}  // namespace lazyctrl::ckpt
