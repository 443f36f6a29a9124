#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
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
constexpr PendingKind kPendingKindMax = kPendingExtraCheckpoint;

struct PendingDesc {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  bool periodic = false;
  SimDuration period = 0;
  PendingKind kind = kPendingWindowTimer;
  std::uint64_t payload = 0;
  std::uint32_t payload2 = 0;
};

[[nodiscard]] bool kind_is_periodic(PendingKind kind) noexcept {
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

/// The simulator's clock and allocation counters (the head of SIMU).
struct Clock {
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 0;
  std::uint64_t processed = 0;
};

// --- the two directions of a section walk ---
//
// A walk (StateAccess::Walk) lists a section's fields once. Save runs it
// to append them to a Writer, Load to read them back from a Reader, and
// both offer the same members:
//   u8 u32 u64 i64 f64 boolean str   a field of that wire width; ids,
//                                    MAC/IP addresses and RNGs travel as
//                                    their index, bits and position;
//                                    restore rejects a value the field
//                                    cannot hold
//   kind(e, max, what)               an enum as one byte, at most `max`
//   count(n or vector, min_bytes)    an element count, bounded on restore
//                                    by Reader::count; a vector is
//                                    resized to it
//   sorted(set or map, min, what,    an unordered container as its
//          each)                     key-sorted entry sequence; restore
//                                    requires strictly ascending keys
//   check(holds, message)            a restore check; nothing on save (a
//                                    formatted message is a lambda, run
//                                    only on failure)
//   section(tag, body)               a framed section around `body`

/// The number a field travels as.
template <class T>
auto wire_value(const T& v) {
  if constexpr (requires { v.value(); }) {
    return v.value();
  } else if constexpr (requires { v.bits(); }) {
    return v.bits();
  } else if constexpr (requires { v.state(); }) {
    return v.state();
  } else {
    return v;
  }
}

/// An unordered container's entry with a mutable key.
template <class C>
struct EntryOf {
  using type = typename C::key_type;
};
template <class C>
  requires requires { typename C::mapped_type; }
struct EntryOf<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};
template <class C>
using Entry = typename EntryOf<C>::type;

/// The key of such an entry.
template <class E>
const auto& key_of(const E& e) {
  if constexpr (requires { e.first; }) {
    return e.first;
  } else {
    return e;
  }
}

class Save {
 public:
  static constexpr bool kLoading = false;
  explicit Save(Writer& w) : w_(w) {}

  [[nodiscard]] static constexpr bool ok() { return true; }
  template <class T>
  void u8(const T& v) { w_.u8(static_cast<std::uint8_t>(wire_value(v))); }
  template <class T>
  void u32(const T& v) { w_.u32(static_cast<std::uint32_t>(wire_value(v))); }
  template <class T>
  void u64(const T& v) { w_.u64(static_cast<std::uint64_t>(wire_value(v))); }
  template <class T>
  void i64(const T& v) { w_.i64(static_cast<std::int64_t>(wire_value(v))); }
  void f64(double v) { w_.f64(v); }
  template <class T>
  void boolean(const T& v) { w_.boolean(static_cast<bool>(v)); }
  void str(const std::string& s) { w_.str(s); }
  template <class E>
  void kind(E v, E /*max*/, const char* /*what*/) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void count(std::uint64_t n, std::uint64_t /*min_bytes*/) { w_.u64(n); }
  template <class T>
  void count(const std::vector<T>& v, std::uint64_t /*min_bytes*/) {
    w_.u64(v.size());
  }
  template <class C, class F>
  void sorted(const C& c, std::uint64_t /*min_bytes*/, const char* /*what*/,
              F&& each) {
    std::vector<Entry<C>> entries(c.begin(), c.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return key_of(a) < key_of(b);
              });
    w_.u64(entries.size());
    for (Entry<C>& e : entries) each(e);
  }
  template <class M>
  void check(bool /*holds*/, const M& /*message*/) {}
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    w_.begin_section(tag);
    body();
    w_.end_section();
  }

 private:
  Writer& w_;
};

class Load {
 public:
  static constexpr bool kLoading = true;
  explicit Load(Reader& r) : r_(r) {}

  [[nodiscard]] bool ok() const { return r_.ok(); }
  template <class T>
  void u8(T& v) { field(v, r_.u8()); }
  template <class T>
  void u32(T& v) { field(v, r_.u32()); }
  template <class T>
  void u64(T& v) { field(v, r_.u64()); }
  template <class T>
  void i64(T& v) { field(v, r_.i64()); }
  void f64(double& v) { v = r_.f64(); }
  template <class T>
  void boolean(T& v) {
    const std::uint8_t raw = r_.u8();
    check(raw <= 1, [&] { return "boolean byte " + std::to_string(raw); });
    v = T(raw != 0);
  }
  void str(std::string& s) { s = r_.str(); }
  template <class E>
  void kind(E& v, E max, const char* what) {
    const std::uint8_t raw = r_.u8();
    check(raw <= static_cast<std::uint8_t>(max),
          [&] { return what + (" " + std::to_string(raw)); });
    if (ok()) v = static_cast<E>(raw);
  }
  void count(std::uint64_t& n, std::uint64_t min_bytes) {
    n = r_.count(min_bytes);
  }
  template <class T>
  void count(std::vector<T>& v, std::uint64_t min_bytes) {
    v.clear();
    v.resize(static_cast<std::size_t>(r_.count(min_bytes)));
  }
  template <class C, class F>
  void sorted(C& c, std::uint64_t min_bytes, const char* what, F&& each) {
    std::optional<typename C::key_type> previous;
    for (std::uint64_t n = r_.count(min_bytes); n > 0 && ok(); --n) {
      Entry<C> e{};
      each(e);
      const auto& key = key_of(e);
      // A repeated key would be dropped by the insert, silently.
      check(!previous || *previous < key, [&] {
        return what + (" out of order: key " + std::to_string(key) +
                       " after " + std::to_string(*previous));
      });
      previous = key;
      c.insert(std::move(e));
    }
  }
  template <class M>
  void check(bool holds, const M& message) {
    if (holds || !r_.ok()) return;
    if constexpr (std::is_invocable_v<const M&>) {
      r_.fail(message());
    } else {
      r_.fail(message);
    }
  }
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    r_.enter_section(tag);
    body();
    r_.leave_section();
  }

 private:
  // T(raw) converts a number and builds an id, address or RNG alike. A
  // value its type does not hold as read (a MAC above 48 bits) would
  // restore as another value, silently, so it is diagnosed.
  template <class T, class Raw>
  void field(T& v, Raw raw) {
    v = T(raw);
    check(static_cast<Raw>(wire_value(v)) == raw, [&] {
      return "field value " + std::to_string(raw) +
             " does not fit its field";
    });
  }

  Reader& r_;
};

}  // namespace

// --- the section walks: every field of a snapshot, stated once ---

struct StateAccess::Walk {
  template <class IO>
  static void series(IO& io, TimeBucketSeries& s) {
    io.i64(s.width_);
    io.check(s.width_ > 0, "time series bucket width must be positive");
    io.count(s.buckets_, 16);
    io.check(!s.buckets_.empty(), "time series needs at least one bucket");
    for (auto& b : s.buckets_) {
      io.f64(b.sum);
      io.u64(b.events);
    }
    io.i64(s.memo_begin_);
    io.i64(s.memo_end_);
    io.u64(s.memo_idx_);
    io.check(s.memo_idx_ < s.buckets_.size(),
             "time series memo index out of range");
  }

  template <class IO>
  static void running(IO& io, RunningStats& s) {
    io.u64(s.count_);
    io.f64(s.mean_);
    io.f64(s.m2_);
    io.f64(s.min_);
    io.f64(s.max_);
    io.f64(s.sum_);
  }

  // META: runner bookkeeping. `fence_at` is informational; the
  // authoritative clock travels in SIMU.
  template <class IO>
  static void meta(IO& io, scenario::ScenarioRunner& runner,
                   std::uint32_t& index, SimTime& fence_at) {
    io.u32(index);
    io.i64(fence_at);
    io.count(runner.extra_checkpoint_times_, 8);
    for (SimTime& t : runner.extra_checkpoint_times_) io.i64(t);
    io.u64(runner.counts_.scheduled);
    io.u64(runner.counts_.applied);
    io.u64(runner.counts_.skipped);
    io.boolean(runner.check_invariants_);
    io.count(runner.invariant_violations_, 8);
    for (std::string& v : runner.invariant_violations_) io.str(v);
  }

  // CONF: the runtime-mutable config knobs (scenario seams can change
  // them mid-run; everything else is reconstructed from the spec).
  template <class IO>
  static void conf(IO& io, core::Config& cfg) {
    io.f64(cfg.controller.loss_rate);
    io.f64(cfg.controller.dup_rate);
    io.u64(cfg.controller.queue_cap);
  }

  // GRPG: grouping + hidden-host sets.
  template <class IO>
  static void grpg(IO& io, core::Network& net) {
    core::Grouping& g = net.controller_.grouping();
    const std::size_t switches = net.switches_.size();
    io.count(g.switch_to_group, 4);
    // An empty map is a run that never grouped (openflow mode, or
    // lazyctrl before bootstrap); otherwise it must cover every switch.
    const std::size_t n = g.switch_to_group.size();
    io.check(n == 0 || n == switches, [&] {
      return "grouping covers " + std::to_string(n) +
             " switches, topology has " + std::to_string(switches);
    });
    for (std::uint32_t& gi : g.switch_to_group) io.u32(gi);
    io.u64(g.group_count);
    io.check(n != 0 || g.group_count == 0, [&] {
      return "empty grouping claims " + std::to_string(g.group_count) +
             " groups";
    });
    io.check(g.group_count <= switches, [&] {
      return "grouping claims " + std::to_string(g.group_count) +
             " groups for " + std::to_string(switches) + " switches";
    });
    for (const std::uint32_t gi : g.switch_to_group) {
      io.check(gi == GroupId::kInvalidValue || gi < g.group_count, [&] {
        return "switch assigned to group " + std::to_string(gi) +
               " >= group count " + std::to_string(g.group_count);
      });
    }
    io.u64(net.grouping_epoch_);
    io.sorted(net.dormant_hosts_, 4, "dormant hosts",
              [&](std::uint32_t& h) { io.u32(h); });
    io.sorted(net.excluded_hosts_, 4, "excluded hosts",
              [&](std::uint32_t& h) { io.u32(h); });
  }

  // TOPO: scheduled migrations, each flagged `completed` when its
  // one-shot has already fired (the restorer replays completed ones onto
  // its fresh topology copy and re-attaches the rest).
  template <class IO>
  static void topo(IO& io, core::Network& net,
                   std::vector<std::uint8_t>& completed) {
    io.count(net.pending_migrations_, 25);
    completed.resize(net.pending_migrations_.size());
    for (std::size_t i = 0; i < completed.size(); ++i) {
      core::Network::PendingMigration& m = net.pending_migrations_[i];
      io.u32(m.host);
      io.u32(m.to);
      io.i64(m.at);
      io.u64(m.event);
      io.boolean(completed[i]);
      io.check(m.host.value() < net.topology_.host_count() &&
                   m.to.value() < net.topology_.switch_count(),
               [&] {
                 return "migration entry references host " +
                        std::to_string(m.host.value()) + " / switch " +
                        std::to_string(m.to.value()) + " outside the topology";
               });
    }
  }

  // CTRL: C-LIB + queueing model + workload-window state. The C-LIB
  // travels as its live slots in host order, which is MAC order, each as
  // (MAC, host, tenant, switch). A restored entry must be keyed by the
  // MAC of a host of the topology and record that host, and the keys
  // must ascend strictly.
  template <class IO>
  static void ctrl(IO& io, core::CentralController& c, std::size_t hosts) {
    std::uint64_t n = c.clib_size();
    io.count(n, 20);
    std::size_t slot = 0;  // save: the next C-LIB slot to look at
    MacAddress previous;
    for (std::uint64_t k = 0; k < n && io.ok(); ++k) {
      MacAddress mac;
      core::ClibEntry e;
      if constexpr (!IO::kLoading) {
        while (!c.clib_[slot].host.valid()) ++slot;
        mac = MacAddress::for_host(static_cast<std::uint32_t>(slot));
        e = c.clib_[slot++];
      }
      io.u64(mac);
      io.u32(e.host);
      io.u32(e.tenant);
      io.u32(e.attached_switch);
      const std::optional<std::uint32_t> index = mac.host_index();
      io.check(index.has_value(), [&] {
        return "C-LIB key " + mac.to_string() + " is not a host MAC";
      });
      io.check(!index || *index < hosts, [&] {
        return "C-LIB key " + mac.to_string() + " names host " +
               std::to_string(*index) + ", topology has " +
               std::to_string(hosts);
      });
      io.check(!index || e.host.value() == *index, [&] {
        return "C-LIB entry for host " + std::to_string(*index) +
               " records host " + std::to_string(e.host.value());
      });
      io.check(k == 0 || previous < mac, [&] {
        return "C-LIB keys out of order: " + mac.to_string() + " after " +
               previous.to_string();
      });
      previous = mac;
      if constexpr (IO::kLoading) {
        if (io.ok()) c.clib_learn(mac, e.host, e.tenant, e.attached_switch);
      }
    }
    io.count(c.servers_free_at_, 8);
    io.check(!c.servers_free_at_.empty(),
             "controller needs at least one server");
    for (SimTime& t : c.servers_free_at_) io.i64(t);
    io.u64(c.total_requests_);
    io.i64(c.outage_until_);
    io.u64(c.outage_queue_depth_);
    io.u64(c.outage_queue_peak_);
    io.u64(c.outage_queued_total_);
    io.u64(c.admission_drops_);
    io.u64(c.window_requests_);
    io.f64(c.last_window_requests_);
    io.f64(c.baseline_window_requests_);
    io.i64(c.last_update_at_);
  }

  // SWCH: per-switch state. G-FIBs are rebuilt on restore (pure function
  // of topology + grouping + hidden hosts), so only the membership
  // fields, the L-FIB and the flow table travel. The stats window's
  // traffic counts are per switch pair, in DGMS.
  template <class IO>
  static void swch(IO& io, core::Network& net) {
    std::uint64_t n = net.switches_.size();
    io.count(n, 16);
    io.check(n == net.switches_.size(), [&] {
      return "snapshot has " + std::to_string(n) + " switches, topology has " +
             std::to_string(net.switches_.size());
    });
    for (const auto& es : net.switches_) {
      if (!io.ok()) break;
      edge_switch(io, *es);
    }
  }

  template <class IO>
  static void edge_switch(IO& io, core::EdgeSwitch& es) {
    io.u32(es.group_);
    io.u32(es.designated_);
    io.i64(es.transition_until_);
    std::vector<std::pair<MacAddress, core::LFibEntry>> lfib;  // MAC order
    for (const MacAddress mac : es.lfib_.macs()) {
      lfib.emplace_back(mac, *es.lfib_.lookup(mac));
    }
    std::sort(lfib.begin(), lfib.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    io.count(lfib, 16);
    for (auto& [mac, entry] : lfib) {
      io.u64(mac);
      io.u32(entry.host);
      io.u32(entry.tenant);
      if constexpr (IO::kLoading) es.lfib_.learn(mac, entry.host, entry.tenant);
    }
    flow_table(io, es.table_, es.id());
  }

  template <class IO>
  static void flow_table(IO& io, openflow::FlowTable& t, SwitchId sw) {
    io.u64(t.capacity_);
    io.u64(t.evictions_);
    io.i64(t.next_expiry_);
    // Only live rules travel, in table order; tombstones are not state.
    std::uint64_t n = t.size();
    io.count(n, 47);
    if constexpr (IO::kLoading) {
      t.rules_.assign(static_cast<std::size_t>(n), openflow::FlowRule{});
      t.dead_.assign(t.rules_.size(), 0);
      t.tombstones_ = 0;
    }
    for (std::size_t i = 0; i < t.rules_.size(); ++i) {
      if (t.dead_[i]) continue;
      openflow::FlowRule& rule = t.rules_[i];
      io.i64(rule.priority);
      // A wildcarded match field travels as a clear flag bit and a 0.
      // Restore rejects any other flag bit, and a value under a clear
      // one: the restored rule would save other bytes.
      openflow::Match& m = rule.match;
      auto flags = static_cast<std::uint8_t>((m.tenant ? 1 : 0) |
                                             (m.src_mac ? 2 : 0) |
                                             (m.dst_mac ? 4 : 0));
      TenantId tenant = m.tenant.value_or(TenantId{0});
      MacAddress src = m.src_mac.value_or(MacAddress{});
      MacAddress dst = m.dst_mac.value_or(MacAddress{});
      io.u8(flags);
      io.u32(tenant);
      io.u64(src);
      io.u64(dst);
      const auto rule_name = [&] {
        return "switch " + std::to_string(sw.value()) + " flow rule " +
               std::to_string(i);
      };
      io.check(flags <= 7, [&] {
        return rule_name() + " has unknown match flags " +
               std::to_string(flags);
      });
      io.check((flags & 1) || tenant == TenantId{0}, [&] {
        return rule_name() + " wildcards the tenant but carries tenant " +
               std::to_string(tenant.value());
      });
      io.check((flags & 2) || src == MacAddress{}, [&] {
        return rule_name() + " wildcards the source MAC but carries " +
               src.to_string();
      });
      io.check((flags & 4) || dst == MacAddress{}, [&] {
        return rule_name() + " wildcards the destination MAC but carries " +
               dst.to_string();
      });
      if constexpr (IO::kLoading) {
        if (flags & 1) m.tenant = tenant;
        if (flags & 2) m.src_mac = src;
        if (flags & 4) m.dst_mac = dst;
      }
      io.kind(rule.action.type, openflow::ActionType::kDrop,
              "flow rule has unknown action type");
      io.u32(rule.action.remote_switch);
      io.u32(rule.action.tunnel_dst);
      io.i64(rule.installed_at);
      io.i64(rule.expires_at);
      io.u64(rule.match_count);
    }
    if constexpr (IO::kLoading) t.index_dirty_ = true;
  }

  // WHEL: failure wheels, verbatim (members already MAC-ordered). The
  // ring comes first: the restorer builds each wheel from it.
  template <class IO>
  static void wheel_ring(IO& io, std::vector<SwitchId>& members,
                         SwitchId& designated, std::vector<SwitchId>& backups,
                         std::size_t switch_count) {
    io.count(members, 4);
    io.check(!members.empty(), "failure wheel has no members");
    for (SwitchId& m : members) {
      io.u32(m);
      io.check(m.value() < switch_count, [&] {
        return "wheel member " + std::to_string(m.value()) +
               " outside the topology";
      });
    }
    io.u32(designated);
    io.count(backups, 4);
    for (SwitchId& b : backups) io.u32(b);
  }

  template <class IO>
  static void wheel_state(IO& io, core::FailureWheel& fw) {
    for (auto& s : fw.state_) {
      io.boolean(s.up);
      io.boolean(s.control_link_up);
      io.boolean(s.control_relayed);
      io.boolean(s.down_link_up);
      io.boolean(s.outage_announced);
    }
    io.boolean(fw.running_);
    io.u64(fw.timer_);
    io.count(fw.events_, 14);
    for (core::WheelEvent& ev : fw.events_) {
      io.i64(ev.at);
      io.u32(ev.subject);
      io.kind(ev.kind, core::FailureKind::kSwitch,
              "wheel event has unknown failure kind");
      io.str(ev.action);
    }
    io.sorted(fw.reported_, 8, "wheel reports",
              [&](std::uint64_t& key) { io.u64(key); });
    io.sorted(fw.miss_counts_, 16, "wheel miss counts", [&](auto& e) {
      io.u64(e.first);
      io.i64(e.second);
    });
    io.count(fw.pending_reboots_, 12);
    for (auto& [id, sw] : fw.pending_reboots_) {
      io.u64(id);
      io.u32(sw);
    }
  }

  // DGMS: the traffic monitor — its EWMA estimate and current stats
  // window as ascending (pair key, value) lists, then its flow mass — and
  // (when enabled) the maintainer.
  template <class IO>
  static void dgms(IO& io, core::Network& net) {
    dgm::TrafficMonitor& tm = *net.traffic_monitor_;
    // A key packs two distinct switches of the topology, the higher id in
    // its high 32 bits; each list ascends strictly, because roll_window
    // merges the two in one pass.
    std::uint64_t previous = 0;
    const auto check_key = [&](std::uint64_t key) {
      const std::uint64_t hi = key >> 32;
      const std::uint64_t lo = key & 0xFFFFFFFF;
      const std::uint64_t top = std::max(hi, lo);
      io.check(top < tm.switch_count_, [&] {
        return "traffic pair names switch " + std::to_string(top) +
               ", topology has " + std::to_string(tm.switch_count_);
      });
      io.check(lo < hi, [&] {
        return "traffic pair key " + std::to_string(key) +
               " does not pack two distinct switches, higher id first";
      });
      io.check(key > previous, [&] {
        return "traffic pairs out of order: key " + std::to_string(key) +
               " after " + std::to_string(previous);
      });
      previous = key;
    };
    io.count(tm.ewma_, 16);
    for (auto& [key, value] : tm.ewma_) {
      io.u64(key);
      io.f64(value);
      check_key(key);
      // roll_window drops every value below the prune threshold.
      io.check(std::isfinite(value) && value >= tm.options_.prune_threshold,
               [&] {
                 return "traffic estimate " + std::to_string(value) +
                        " is not finite or is below the prune threshold";
               });
    }
    std::vector<dgm::TrafficMonitor::Count> window = tm.sorted_window();
    io.count(window, 16);
    previous = 0;
    for (auto& [key, flows] : window) {
      io.u64(key);
      io.u64(flows);
      check_key(key);
      io.check(flows > 0, [&] {
        return "traffic window counts 0 flows for pair key " +
               std::to_string(key);
      });
      if constexpr (IO::kLoading) {
        if (io.ok()) tm.count_pair(key, flows);
      }
    }
    io.f64(tm.flow_mass_);
    io.check(std::isfinite(tm.flow_mass_) && tm.flow_mass_ >= 0, [&] {
      return "traffic flow mass " + std::to_string(tm.flow_mass_) +
             " is not finite or is negative";
    });
    bool present = net.dgm_ != nullptr;
    io.boolean(present);
    io.check(present == (net.dgm_ != nullptr), [&] {
      return std::string("snapshot ") + (present ? "has" : "lacks") +
             " DGM state but the spec's dgm.mode says otherwise";
    });
    if (!present || !io.ok()) return;
    dgm::Maintainer& m = *net.dgm_;
    io.u64(m.rng_);
    io.f64(m.detector_.baseline_fraction_);
    io.i64(m.detector_.last_regroup_at_);
    io.u64(m.stats_.rounds);
    io.u64(m.stats_.plans_applied);
    io.u64(m.stats_.switch_moves);
    io.u64(m.stats_.group_merges);
    io.u64(m.stats_.group_splits);
    io.u64(m.stats_.flow_mods);
    io.count(m.stats_.history, 80);
    for (dgm::MaintenanceRound& round : m.stats_.history) {
      io.i64(round.at);
      io.kind(round.verdict.kind, dgm::DriftKind::kGroupSizeSkew,
              "maintenance round has unknown drift kind");
      io.f64(round.verdict.inter_fraction);
      io.f64(round.verdict.baseline_fraction);
      io.f64(round.verdict.size_skew);
      io.f64(round.verdict.evidence);
      io.boolean(round.plan_applied);
      io.u64(round.moves);
      io.u64(round.merges);
      io.u64(round.splits);
      io.u64(round.touched_groups);
      io.u64(round.flow_mods);
      io.f64(round.inter_before);
      io.f64(round.inter_after);
    }
  }

  // RNGS: the network's run RNG position. (The runner's topology/
  // workload/surge/burst streams are consumed before replay starts and
  // never resume, so only this one travels.)
  template <class IO>
  static void rngs(IO& io, core::Network& net) {
    io.u64(net.rng_);
  }

  // SIMU: clock + allocation counters + the pending descriptor table.
  template <class IO>
  static void simu(IO& io, Clock& clock, std::vector<PendingDesc>& descs) {
    io.i64(clock.now);
    io.u64(clock.next_seq);
    io.u64(clock.next_id);
    io.u64(clock.processed);
    io.count(descs, 39);
    for (PendingDesc& d : descs) {
      io.i64(d.time);
      io.u64(d.seq);
      io.u64(d.id);
      io.boolean(d.periodic);
      io.i64(d.period);
      io.kind(d.kind, kPendingKindMax, "unknown pending-event kind");
      io.u64(d.payload);
      io.u32(d.payload2);
      io.check(d.id != 0 && d.id < clock.next_id && d.seq < clock.next_seq &&
                   d.time >= 0,
               [&] {
                 return "pending event id " + std::to_string(d.id) +
                        " has a tuple outside the restored counters";
               });
      io.check(d.periodic == kind_is_periodic(d.kind) &&
                   (!d.periodic || d.period > 0),
               [&] {
                 return "pending event id " + std::to_string(d.id) +
                        " has an inconsistent periodic flag/period";
               });
    }
  }

  // METR: RunMetrics, wholesale. Restored LAST so bookkeeping bumps made
  // while rebuilding derived state (G-FIB dissemination counters) are
  // overwritten with the exact snapshot values.
  template <class IO>
  static void metr(IO& io, core::RunMetrics& m) {
#define LAZYCTRL_X(f) series(io, m.f);
    LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) io.u64(m.f);
    LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f) running(io, m.f);
    LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
  }
};

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
    PendingKind kind;
    std::uint64_t payload;
    std::uint32_t payload2;
  };
  std::unordered_map<std::uint64_t, Tag> known;
  const auto tag = [&](sim::EventId id, PendingKind kind,
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
  std::vector<std::uint8_t> completed;  // parallel to pending_migrations_
  for (const core::Network::PendingMigration& m : net->pending_migrations_) {
    completed.push_back(m.event != 0 && !pending_ids.contains(m.event));
  }

  const sim::Simulator& simulator = net->simulator_;
  SimTime fence_at = simulator.now();
  Clock clock{simulator.now(), simulator.next_seq(),
              simulator.next_event_id(), simulator.processed_events()};
  Writer w;
  Save io(w);
  // SPEC: the canonical scenario text; topology and trace re-derive from
  // it deterministically on restore, so neither is serialized.
  io.section(kSpec,
             [&] { io.str(scenario::serialize_scenario(runner.spec_)); });
  io.section(kMeta, [&] { Walk::meta(io, runner, index, fence_at); });
  io.section(kConf, [&] { Walk::conf(io, net->config_); });
  io.section(kGrpg, [&] { Walk::grpg(io, *net); });
  io.section(kTopo, [&] { Walk::topo(io, *net, completed); });
  io.section(kCtrl, [&] {
    Walk::ctrl(io, net->controller_, net->topology_.host_count());
  });
  io.section(kSwch, [&] { Walk::swch(io, *net); });
  io.section(kWhel, [&] {
    io.count(net->wheels_.size(), 8);
    for (const auto& fw : net->wheels_) {
      Walk::wheel_ring(io, fw->members_, fw->designated_, fw->backups_,
                       net->switches_.size());
      Walk::wheel_state(io, *fw);
    }
  });
  io.section(kDgms, [&] { Walk::dgms(io, *net); });
  io.section(kRngs, [&] { Walk::rngs(io, *net); });
  io.section(kSimu, [&] { Walk::simu(io, clock, descs); });
  io.section(kMetr, [&] { Walk::metr(io, *net->metrics_); });
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
  Load io(r);

  // SPEC -> spec -> topology -> trace (all deterministic re-derivations).
  std::string spec_text;
  io.section(kSpec, [&] { io.str(spec_text); });
  if (!r.ok()) return fail(r.error());
  scenario::ParseResult parsed = scenario::parse_scenario(spec_text);
  if (!parsed.ok()) {
    return fail("embedded scenario spec failed to parse:\n" +
                parsed.error_text());
  }
  std::unique_ptr<scenario::ScenarioRunner> runner(
      new scenario::ScenarioRunner(std::move(parsed.spec)));

  std::uint32_t snap_index = 0;
  SimTime fence_at = 0;
  io.section(kMeta, [&] { Walk::meta(io, *runner, snap_index, fence_at); });
  if (!r.ok()) return fail(r.error());

  std::string err;
  if (!runner->prepare_topology(&err) || !runner->validate(&err)) {
    return fail("embedded scenario spec failed validation: " + err);
  }
  // build_trace() bumps counts_ for build-time events, which the saved
  // fence values already include.
  const scenario::ScenarioRunner::EventCounts counts = runner->counts_;
  runner->build_trace();
  runner->counts_ = counts;

  core::Config config = runner->spec_.config;
  config.seed = runner->spec_.seed;
  runner->net_ =
      std::make_unique<core::Network>(runner->topology_, config);
  core::Network* net = runner->net_.get();

  io.section(kConf, [&] { Walk::conf(io, net->config_); });
  io.section(kGrpg, [&] { Walk::grpg(io, *net); });
  std::vector<std::uint8_t> completed;
  io.section(kTopo, [&] { Walk::topo(io, *net, completed); });
  // Replay completed moves onto the network's fresh topology copy in
  // firing order (at, then schedule order — the order the one-shots
  // fired in).
  if (r.ok()) {
    std::vector<core::Network::PendingMigration> done;
    for (std::size_t i = 0; i < completed.size(); ++i) {
      if (completed[i]) done.push_back(net->pending_migrations_[i]);
    }
    std::stable_sort(done.begin(), done.end(),
                     [](const auto& a, const auto& b) { return a.at < b.at; });
    for (const auto& m : done) net->topology_.migrate_host(m.host, m.to);
  }
  io.section(kCtrl, [&] {
    Walk::ctrl(io, net->controller_, net->topology_.host_count());
  });
  io.section(kSwch, [&] { Walk::swch(io, *net); });

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

  io.section(kWhel, [&] {
    std::uint64_t wheels = 0;
    io.count(wheels, 8);
    for (; wheels > 0 && r.ok(); --wheels) {
      std::vector<SwitchId> members;
      SwitchId designated;
      std::vector<SwitchId> backups;
      Walk::wheel_ring(io, members, designated, backups,
                       net->switches_.size());
      if (!r.ok()) break;
      net->wheels_.push_back(std::make_unique<core::FailureWheel>(
          net->simulator_, members, designated, backups, net->config_));
      Walk::wheel_state(io, *net->wheels_.back());
    }
  });
  io.section(kDgms, [&] { Walk::dgms(io, *net); });
  io.section(kRngs, [&] { Walk::rngs(io, *net); });

  // SIMU: restore the clock, then re-attach every pending callback under
  // its exact (time, seq, id) tuple.
  io.section(kSimu, [&] {
    Clock clock;
    std::vector<PendingDesc> descs;
    Walk::simu(io, clock, descs);
    if (!r.ok()) return;
    sim::Simulator& simulator = net->simulator_;
    simulator.restore_clock(clock.now, clock.next_seq, clock.next_id,
                            clock.processed);
    scenario::ScenarioRunner* rp = runner.get();
    rp->script_event_ids_.assign(rp->spec_.events.size(), 0);
    rp->extra_event_ids_.assign(rp->extra_checkpoint_times_.size(), 0);
    std::unordered_set<std::uint64_t> seen_ids;
    for (const PendingDesc& d : descs) {
      if (!r.ok()) break;
      if (!seen_ids.insert(d.id).second) {
        r.fail("pending event id " + std::to_string(d.id) + " appears twice");
        break;
      }
      const auto i = static_cast<std::size_t>(d.payload);
      // False, diagnosed, when the payload indexes past `n` entries.
      const auto indexes = [&](std::size_t n, const char* what,
                               const char* of, const char* unit) {
        if (i < n) return true;
        r.fail(what + std::to_string(d.payload) + of + std::to_string(n) +
               unit);
        return false;
      };
      sim::Simulator::Callback cb;
      switch (d.kind) {
        case kPendingWindowTimer:
          cb = [net] { net->roll_stats_window(); };
          net->replay_timers_.window = d.id;
          break;
        case kPendingReportTimer:
          cb = [net] { net->state_report_tick(); };
          net->replay_timers_.report = d.id;
          break;
        case kPendingDgmTimer:
          if (!net->dgm_) {
            r.fail("DGM timer pending but dgm.mode is off");
            break;
          }
          cb = [net] { net->run_dgm_maintenance(); };
          net->replay_timers_.dgm = d.id;
          break;
        case kPendingReconcileTimer:
          cb = [net] { net->reconcile_state(); };
          net->replay_timers_.reconcile = d.id;
          break;
        case kPendingMigration:
          if (i >= net->pending_migrations_.size() ||
              net->pending_migrations_[i].event != d.id) {
            r.fail("migration descriptor does not match the schedule");
            break;
          }
          cb = [net, m = net->pending_migrations_[i]] {
            net->perform_migration(m.host, m.to);
          };
          break;
        case kPendingWheelKeepalive:
          if (!indexes(net->wheels_.size(),
                       "wheel keep-alive descriptor references wheel ", " of ",
                       "")) {
            break;
          }
          if (!net->wheels_[i]->running_ || net->wheels_[i]->timer_ != d.id) {
            r.fail("wheel keep-alive descriptor does not match wheel state");
            break;
          }
          cb = [fw = net->wheels_[i].get()] { fw->tick(); };
          break;
        case kPendingWheelReboot:
          if (indexes(net->wheels_.size(),
                      "wheel reboot descriptor references wheel ", " of ",
                      "")) {
            cb = [fw = net->wheels_[i].get(), sw = SwitchId{d.payload2}] {
              fw->finish_reboot(sw);
            };
          }
          break;
        case kPendingFlowCursor:
          // Not re-attached here: finish() re-creates the flow chain
          // (Network::resume_replay) under this exact tuple.
          if (indexes(rp->trace_->flows.size(), "flow cursor index ",
                      " beyond the trace's ", " flows")) {
            rp->resume_cursor_ = {true, d.time, d.seq, d.id, i};
          }
          break;
        case kPendingScriptEvent:
          if (indexes(rp->spec_.events.size(), "script event index ",
                      " beyond the spec's ", " events")) {
            cb = [rp, i] { rp->apply_event(rp->spec_.events[i]); };
            rp->script_event_ids_[i] = d.id;
          }
          break;
        case kPendingExtraCheckpoint:
          if (indexes(rp->extra_checkpoint_times_.size(),
                      "extra checkpoint index ", " beyond the recorded ",
                      " fences")) {
            cb = [rp] { rp->take_checkpoint(); };
            rp->extra_event_ids_[i] = d.id;
          }
          break;
        default:
          r.fail("unhandled pending-event kind");
          break;
      }
      if (!cb) continue;
      if (d.periodic) {
        simulator.restore_periodic(d.time, d.seq, d.id, d.period,
                                   std::move(cb));
      } else {
        simulator.restore_one_shot(d.time, d.seq, d.id, std::move(cb));
      }
    }
  });

  // METR: last, replacing every bookkeeping bump made above.
  net->horizon_ = runner->trace_->horizon;
  net->metrics_ = std::make_unique<core::RunMetrics>(net->horizon_);
  io.section(kMetr, [&] { Walk::metr(io, *net->metrics_); });
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
