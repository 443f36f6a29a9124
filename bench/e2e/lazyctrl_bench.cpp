// lazyctrl_bench — the repository's end-to-end benchmark driver.
//
//   lazyctrl_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--out DIR] [--scale F]
//   lazyctrl_bench --all [--seed N] [--seconds S] [--out DIR] [--scale F]
//
// One invocation measures one workload (bench/e2e/workloads/NAME.scn) in
// one process, so peak RSS belongs to
// that workload alone. `--all` re-executes the binary once per workload
// and leg. Every number is taken by timing calls into the library's
// public API from here; nothing inside the library is instrumented for
// the benchmark.
//
//   --trace 0  end-to-end leg: tracing off; reports the metrics a user of
//              the simulator sees (replay throughput, set-up, run, peak
//              RSS, checkpoint save/restore, and the simulated control-
//              plane outcomes). Writes DIR/BENCH_e2e_NAME.json.
//   --trace 1  per-layer leg: a traced run plus timed probes of each
//              layer; writes DIR/BENCH_e2e_NAME_layers.json and the
//              Chrome trace DIR/trace_NAME.json (bench spans, category
//              "bench", next to the library's own spans).
//
// Both legs start with a reference run through scenario::ScenarioRunner
// (the path lazyctrl_run takes) and gate every later run on it: any
// divergence, invariant violation or checkpoint mismatch is a gate
// failure, counted in the JSON as gate_failures and turned into exit 1.
// The last line on stdout is the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok; 1 a gate failed; 2 usage or workload error.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "core/gfib.h"
#include "core/network.h"
#include "core/sgi.h"
#include "e2e_metrics.h"
#include "harness.h"
#include "obs/flow_latency.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "workload/generators.h"
#include "workload/intensity.h"

extern char** environ;

using namespace lazyctrl;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// Sample counts. Timed reps run for --seconds but never fewer than
// kMinReps; set-up is cheap next to a replay, so extra set-up-only
// samples top it up to kMinSetupSamples.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
constexpr std::size_t kMinSetupSamples = 15;
constexpr int kProbeRounds = 9;
constexpr std::size_t kProbePackets = 4096;
// Traced run: flight-record 1 flow in 64, into a ring small enough to
// keep the exported trace loadable.
constexpr std::uint32_t kFlowSampleEvery = 64;
constexpr std::size_t kFlowRing = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps probe results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

struct Options {
  std::string workload;
  bool all = false;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  bool trace_given = false;
  std::string out;
  double scale = 1.0;
};

// ---------------------------------------------------------------------------
// Bench-side spans: wall-clock intervals around each call into a layer,
// stamped on the trace recorder's clock so they line up with the
// library's own spans in the exported trace (pid 2, own track).

class SpanLog {
 public:
  /// Opens a span; returns its id (ids start at 1, 0 means "no parent").
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), now(), parent});
    return static_cast<int>(spans_.size());
  }
  void end(int id) { spans_[id - 1].end = now(); }

  /// Chrome trace_event lines (",\n"-terminated) for export_chrome_json.
  [[nodiscard]] std::string chrome_events() const {
    std::string out =
        "    {\"ph\": \"M\", \"pid\": 2, \"tid\": 1, \"name\": "
        "\"thread_name\", \"args\": {\"name\": \"bench\"}},\n";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "    {\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 2, \"tid\": 1, "
                    "\"args\": {\"id\": %zu, \"parent\": %d}},\n",
                    s.name.c_str(), static_cast<double>(s.start) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3, i + 1,
                    s.parent);
      out += buf;
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start;
    std::int64_t end;
    int parent;
  };
  static std::int64_t now() { return obs::recorder().wall_now_ns(); }
  std::vector<Span> spans_;
};

/// RAII span; inert when `log` is null (the untraced leg).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->begin(std::move(name), parent) : 0) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_) log_->end(id_);
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Correctness gates.

struct Gates {
  int attempted = 0;
  int failures = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    }
  }
  void check_identical(const core::RunMetrics& got,
                       const core::RunMetrics& want, const std::string& what) {
    const bool same = got.identical_to(want);
    check(same, same ? what : what + ": " + got.diff_report(want));
  }
};

// ---------------------------------------------------------------------------
// The reference run: the workload's inputs (topology, trace), the
// checkpoint snapshot and the RunMetrics every later run must reproduce.

struct Reference {
  scenario::ScenarioSpec spec;
  std::unique_ptr<scenario::ScenarioRunner> runner;
  std::vector<std::uint8_t> snapshot;

  [[nodiscard]] const workload::Trace& trace() const { return runner->trace(); }
  [[nodiscard]] const topo::Topology& topology() const {
    return runner->network().topology();
  }
  [[nodiscard]] const core::RunMetrics& metrics() const {
    return runner->metrics();
  }
  [[nodiscard]] double flows() const {
    return static_cast<double>(trace().flows.size());
  }
};

/// Loads NAME.scn with the bench's seed and scale and checks that its
/// script stays inside what the timed path replays: controller outages
/// (injected per rep), traffic surges (already in the trace) and the one
/// checkpoint every restore starts from.
bool load_spec(const Options& o, scenario::ScenarioSpec* spec,
               std::string* error) {
  const std::string path =
      std::string(LAZYCTRL_E2E_WORKLOADS) + "/" + o.workload + ".scn";
  scenario::ParseResult parsed = scenario::parse_scenario_file(path);
  if (!parsed.ok()) {
    *error = path + ": invalid scenario\n" + parsed.error_text();
    return false;
  }
  *spec = std::move(parsed.spec);
  spec->seed = o.seed;
  spec->workload.flows = static_cast<std::size_t>(
      static_cast<double>(spec->workload.flows) * o.scale);
  int checkpoints = 0;
  for (const scenario::ScenarioEvent& ev : spec->events) {
    switch (ev.kind) {
      case scenario::EventKind::kControllerOutage:
      case scenario::EventKind::kTrafficSurge:
        break;
      case scenario::EventKind::kCheckpoint:
        ++checkpoints;
        break;
      default:
        *error = path + ": event kind " + scenario::to_string(ev.kind) +
                 " is not supported by the benchmark's timed path";
        return false;
    }
  }
  if (checkpoints != 1) {
    *error = path + ": needs exactly one checkpoint_at event";
    return false;
  }
  return true;
}

bool reference_run(const Options& o, Reference* ref, Gates& gates,
                   std::string* error) {
  if (!load_spec(o, &ref->spec, error)) return false;
  ref->runner = std::make_unique<scenario::ScenarioRunner>(ref->spec);
  ref->runner->enable_invariant_checks();
  if (!ref->runner->run(error)) return false;

  const auto& violations = ref->runner->invariant_violations();
  for (std::size_t i = 0; i < violations.size() && i < 5; ++i) {
    std::fprintf(stderr, "  invariant: %s\n", violations[i].c_str());
  }
  gates.check(violations.empty(),
              "reference run: " + std::to_string(violations.size()) +
                  " invariant violations");
  gates.check(ref->metrics().flows_seen == ref->trace().flows.size(),
              "reference run: trace conservation (flows_seen " +
                  std::to_string(ref->metrics().flows_seen) + " of " +
                  std::to_string(ref->trace().flows.size()) + ")");

  const auto& snaps = ref->runner->snapshots();
  if (snaps.size() != 1 || snaps.front().bytes.empty()) {
    *error = "reference run: checkpoint failed: " +
             (snaps.empty() ? std::string("no snapshot")
                            : snaps.front().error);
    return false;
  }
  ref->snapshot = snaps.front().bytes;
  return true;
}

// ---------------------------------------------------------------------------
// One rep = set-up + replay, mirroring ScenarioRunner::run's construction
// so a rep is RunMetrics-identical to the reference.

struct Setup {
  std::unique_ptr<core::Network> net;
  double total_s = 0;
  double bootstrap_s = 0;
};

Setup build_network(const Reference& ref, std::size_t num_shards,
                    SpanLog* spans = nullptr, int parent = 0) {
  const scenario::ScenarioSpec& spec = ref.spec;
  core::Config config = spec.config;
  config.seed = spec.seed;
  config.runtime.num_shards = num_shards;
  Setup s;
  SpanScope setup_span(spans, "setup", parent);
  const auto t0 = Clock::now();
  {
    SpanScope span(spans, "network", setup_span.id());
    s.net = std::make_unique<core::Network>(ref.topology(), config);
  }
  if (spec.bootstrap_history &&
      spec.config.mode == core::ControlMode::kLazyCtrl) {
    std::optional<graph::WeightedGraph> history;
    {
      SpanScope span(spans, "history", setup_span.id());
      history = workload::build_intensity_graph(
          ref.trace(), ref.topology(), 0,
          std::min<SimDuration>(kHour, ref.trace().horizon));
    }
    const auto tb = Clock::now();
    SpanScope span(spans, "bootstrap", setup_span.id());
    s.net->bootstrap(*history);
    s.bootstrap_s = seconds_since(tb);
  } else {
    const auto tb = Clock::now();
    SpanScope span(spans, "bootstrap", setup_span.id());
    s.net->bootstrap();
    s.bootstrap_s = seconds_since(tb);
  }
  s.total_s = seconds_since(t0);
  return s;
}

/// Schedules the script's controller outages and replays the trace;
/// returns the replay's wall seconds.
double replay(core::Network& net, const Reference& ref,
              SpanLog* spans = nullptr, int parent = 0) {
  for (const scenario::ScenarioEvent& ev : ref.spec.events) {
    if (ev.kind != scenario::EventKind::kControllerOutage) continue;
    net.simulator().schedule_at(ev.at, [n = &net, d = ev.duration] {
      n->begin_controller_outage(d);
    });
  }
  SpanScope span(spans, "replay", parent);
  const auto t0 = Clock::now();
  net.replay(ref.trace());
  return seconds_since(t0);
}

struct Rep {
  Setup setup;
  double replay_s = 0;
};

Rep run_rep(const Reference& ref, std::size_t num_shards, Gates& gates,
            const std::string& label, SpanLog* spans = nullptr,
            int parent = 0) {
  Rep r;
  r.setup = build_network(ref, num_shards, spans, parent);
  r.replay_s = replay(*r.setup.net, ref, spans, parent);
  gates.check_identical(r.setup.net->metrics(), ref.metrics(),
                        label + " vs reference");
  return r;
}

// ---------------------------------------------------------------------------
// Checkpoint calls on the reference snapshot, each timed and gated.

/// ScenarioRunner::restore() of the snapshot; appends its milliseconds to
/// `restore_ms`. Null (and a gate failure) when the restore fails.
std::unique_ptr<scenario::ScenarioRunner> restore_snapshot(
    const Reference& ref, Gates& gates, std::vector<double>& restore_ms,
    SpanLog* spans = nullptr, int parent = 0) {
  std::string err;
  SpanScope span(spans, "ckpt.restore", parent);
  const auto t0 = Clock::now();
  auto restored = scenario::ScenarioRunner::restore(ref.snapshot, &err);
  restore_ms.push_back(seconds_since(t0) * 1e3);
  gates.check(restored != nullptr, "ckpt restore: " + err);
  return restored;
}

/// save_now() of a restored run, which must reproduce the snapshot byte
/// for byte; appends its milliseconds to `save_ms`.
void save_snapshot(scenario::ScenarioRunner& restored, const Reference& ref,
                   Gates& gates, std::vector<double>& save_ms,
                   SpanLog* spans = nullptr, int parent = 0) {
  std::string err;
  std::vector<std::uint8_t> bytes;
  SpanScope span(spans, "ckpt.save_now", parent);
  const auto t0 = Clock::now();
  const bool ok = restored.save_now(&bytes, &err);
  save_ms.push_back(seconds_since(t0) * 1e3);
  gates.check(ok && bytes == ref.snapshot,
              ok ? "ckpt save_now bytes == snapshot" : "ckpt save_now: " + err);
}

/// finish() of a restored run, which must end identical to the
/// reference; returns its seconds.
double finish_restored(scenario::ScenarioRunner& restored,
                       const Reference& ref, Gates& gates,
                       SpanLog* spans = nullptr, int parent = 0) {
  std::string err;
  SpanScope span(spans, "ckpt.finish", parent);
  const auto t0 = Clock::now();
  const bool ok = restored.finish(&err);
  const double s = seconds_since(t0);
  gates.check(ok, "ckpt finish: " + err);
  if (ok) {
    gates.check_identical(restored.metrics(), ref.metrics(), "ckpt finish");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

void record_samples(benchx::BenchReport& report, const std::string& key,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  for (const double v : samples) report.metric(key, v, unit);
}

/// Records an end-to-end metric under its catalogue unit.
void record_e2e(benchx::BenchReport& report, std::string_view name,
                const std::vector<double>& samples) {
  const e2e::EndToEndMetric* m = e2e::find_end_to_end(name);
  if (m == nullptr) {
    std::fprintf(stderr, "internal: %.*s is not in the catalogue\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  record_samples(report, std::string(name), samples, std::string(m->unit));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Simulated control-plane outcomes of the reference run.
void record_simulated(benchx::BenchReport& report, const Reference& ref) {
  const core::RunMetrics& m = ref.metrics();
  const double seen = static_cast<double>(m.flows_seen);
  double latency_sum_ms = 0;
  double packets = 0;
  for (std::size_t i = 0; i < m.packet_latency.bucket_count(); ++i) {
    latency_sum_ms += m.packet_latency.bucket_sum(i);
    packets += static_cast<double>(m.packet_latency.bucket_events(i));
  }
  record_e2e(report, "packet_ins_per_kflow",
             {static_cast<double>(m.controller_packet_ins) / seen * 1e3});
  record_e2e(report, "first_packet_mean_us",
             {m.first_packet_latency_ms.mean() * 1e3});
  record_e2e(report, "packet_latency_mean_us",
             {latency_sum_ms / packets * 1e3});
  record_e2e(report, "delivered_frac",
             {1.0 - static_cast<double>(m.flows_dropped) / seen});
}

// ---------------------------------------------------------------------------
// The end-to-end leg (--trace 0).

void end_to_end_leg(const Options& o, const Reference& ref, Gates& gates,
                    benchx::BenchReport& report) {
  const std::size_t shards = ref.spec.config.runtime.num_shards;
  run_rep(ref, shards, gates, "warmup rep");
  // Every later rep has the warm-up's footprint, and restores (below)
  // are not part of running the workload, so this is its peak.
  const double rss = peak_rss_mb();

  // Reps and checkpoint round trips alternate for the whole window, so
  // drift on the host hits every timed metric alike. One restored run is
  // alive at a time; the last one is finished after the window.
  std::vector<double> setup_s, replay_s, run_s, flows_per_s, restore_ms,
      save_ms;
  std::unique_ptr<scenario::ScenarioRunner> restored;
  const auto t0 = Clock::now();
  while (replay_s.size() < kMinReps ||
         (seconds_since(t0) < o.seconds && replay_s.size() < kMaxReps)) {
    {
      const Rep r = run_rep(ref, shards, gates,
                            "rep " + std::to_string(replay_s.size() + 1));
      setup_s.push_back(r.setup.total_s);
      replay_s.push_back(r.replay_s);
      run_s.push_back(r.setup.total_s + r.replay_s);
      flows_per_s.push_back(ref.flows() / r.replay_s);
    }
    restored.reset();
    restored = restore_snapshot(ref, gates, restore_ms);
    if (restored == nullptr) break;
    save_snapshot(*restored, ref, gates, save_ms);
  }
  if (restored != nullptr) finish_restored(*restored, ref, gates);
  restored.reset();
  const auto t1 = Clock::now();
  while (setup_s.size() < kMinSetupSamples &&
         seconds_since(t1) < o.seconds / 2) {
    setup_s.push_back(build_network(ref, shards).total_s);
  }
  if (shards > 1) run_rep(ref, 1, gates, "1-shard replay");

  record_e2e(report, "replay_flows_per_s", flows_per_s);
  record_e2e(report, "setup_s", setup_s);
  record_e2e(report, "run_s", run_s);
  record_e2e(report, "peak_rss_mb", {rss});
  record_e2e(report, "ckpt_save_ms", save_ms);
  record_e2e(report, "ckpt_restore_ms", restore_ms);
  record_simulated(report, ref);
}

// ---------------------------------------------------------------------------
// The per-layer leg (--trace 1).

void set_tracing(bool on) {
  if (on) {
    obs::recorder().enable();
    obs::flow_recorder().enable(kFlowSampleEvery, kFlowRing);
  } else {
    obs::recorder().disable();
    obs::flow_recorder().disable();
  }
}

/// Median over kProbeRounds passes of the per-call cost of `op(i)` over
/// i in [0, n), in nanoseconds.
template <typename Op>
double ns_per_call(std::size_t n, Op&& op) {
  std::vector<double> rounds;
  for (int r = 0; r < kProbeRounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) op(i);
    rounds.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return e2e::median(rounds);
}

/// Median wall milliseconds of `rounds` calls of `fn`.
template <typename Fn>
double ms_per_call(int rounds, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return e2e::median(ms);
}

/// The first packets of kProbePackets flows spread evenly over the trace,
/// with their ingress switches.
struct ProbePackets {
  std::vector<net::Packet> packets;
  std::vector<SwitchId> ingress;
};

ProbePackets probe_packets(const Reference& ref) {
  ProbePackets p;
  const auto& flows = ref.trace().flows;
  const std::size_t n = std::min(kProbePackets, flows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const workload::Flow& f = flows[i * flows.size() / n];
    const topo::HostInfo& src = ref.topology().host_info(f.src);
    p.packets.push_back(core::Network::make_flow_packet(
        src, ref.topology().host_info(f.dst), f));
    p.ingress.push_back(src.attached_switch);
  }
  return p;
}

/// Cost of building one switch's G-FIB from scratch: one filter per group
/// peer. The OpenFlow baseline has no groups, so it is measured on the
/// first group_size_limit switches instead.
double gfib_build_ms(core::Network& net) {
  const core::Config& cfg = net.config();
  std::vector<SwitchId> members;
  if (net.grouping().group_count > 0) {
    for (const auto& g : net.grouping().members()) {
      if (g.size() > members.size()) members = g;
    }
  } else {
    const std::size_t n = std::min(cfg.grouping.group_size_limit,
                                   net.topology().switch_count());
    for (std::uint32_t i = 0; i < n; ++i) members.push_back(SwitchId{i});
  }
  std::vector<std::vector<MacAddress>> macs;
  for (const SwitchId m : members) {
    macs.push_back(net.edge_switch(m).lfib().macs());
  }
  return ms_per_call(kProbeRounds, [&] {
    core::GFib gfib(BloomParameters{cfg.fib.bloom_bits, cfg.fib.bloom_hashes},
                    cfg.fib.layout);
    gfib.reserve_peers(members.size() - 1);
    for (std::size_t i = 1; i < members.size(); ++i) {
      gfib.sync_peer(members[i], macs[i]);
    }
    g_sink = g_sink + gfib.storage_bytes();
  });
}

/// Generates a trace of the spec's kind, size and shaping with the public
/// generators (own random stream): the input-generation share of a
/// restore, which re-derives the trace from the snapshot's embedded spec.
workload::Trace generate_like(const scenario::ScenarioSpec& spec,
                              const topo::Topology& topology) {
  Rng rng(spec.seed);
  const scenario::WorkloadSpec& w = spec.workload;
  const workload::DiurnalProfile profile =
      w.flat_profile ? workload::DiurnalProfile::flat()
                     : workload::DiurnalProfile::business_day();
  workload::Trace trace;
  switch (w.kind) {
    case scenario::WorkloadKind::kRealLike: {
      workload::RealLikeOptions opt;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = profile;
      trace = workload::generate_real_like(topology, opt, rng);
      break;
    }
    case scenario::WorkloadKind::kSynthetic: {
      workload::SyntheticOptions opt;
      opt.p = w.p;
      opt.q = w.q;
      opt.total_flows = w.flows;
      opt.horizon = w.horizon;
      opt.profile = profile;
      trace = workload::generate_synthetic(topology, opt, rng);
      break;
    }
    case scenario::WorkloadKind::kDriftingLocality: {
      workload::DriftingLocalityOptions opt;
      opt.total_flows = w.flows;
      opt.community_count = w.communities;
      opt.intra_community_share = w.intra_share;
      opt.phases = w.phases;
      opt.drift_fraction = w.drift_fraction;
      opt.horizon = w.horizon;
      trace = workload::generate_drifting_locality(topology, opt, rng);
      break;
    }
  }
  for (const scenario::ScenarioEvent& ev : spec.events) {
    if (ev.kind != scenario::EventKind::kTrafficSurge) continue;
    trace = workload::surge_trace(
        trace, ev.at, std::min<SimTime>(ev.at + ev.duration, w.horizon),
        ev.factor, rng);
  }
  return trace;
}

/// Timed calls into each layer on a replayed network.
struct LayerProbes {
  double history_ms = 0;
  double inigroup_ms = 0;
  double decide_ns = 0;
  double lfib_ns = 0;
  double gfib_ns = 0;
  double gfib_candidates_mean = 0;
  double flow_table_ns = 0;
  double gfib_build_ms = 0;
  double dgm_round_ms = 0;
};

/// Runs every layer probe against `net` (mutating it: decide refreshes
/// rule TTLs, DGM rounds may regroup), using the trace's own packets.
LayerProbes run_probes(core::Network& net, const Reference& ref,
                       SpanLog& spans) {
  LayerProbes p;
  SpanScope probes(&spans, "probes", 0);
  const ProbePackets pp = probe_packets(ref);
  const std::size_t np = pp.packets.size();
  const SimTime now = net.simulator().now();
  const core::ControlMode mode = net.config().mode;
  // One span per probe: closes the previous probe's span, opens the next.
  std::unique_ptr<SpanScope> span;
  const auto probe = [&](const char* name) {
    span.reset();
    span = std::make_unique<SpanScope>(&spans, name, probes.id());
  };

  graph::WeightedGraph history(0);
  probe("probe.history");
  p.history_ms = ms_per_call(3, [&] {
    history = workload::build_intensity_graph(
        ref.trace(), ref.topology(), 0,
        std::min<SimDuration>(kHour, ref.trace().horizon));
  });
  probe("probe.inigroup");
  const core::GroupingConfig& gc = net.config().grouping;
  const core::Sgi sgi(core::SgiOptions{gc.group_size_limit,
                                       gc.max_incupdate_iterations,
                                       gc.parallel_incupdate, 3});
  p.inigroup_ms = ms_per_call(3, [&] {
    Rng rng(net.config().seed);
    g_sink = g_sink + sgi.initial_grouping(history, rng).group_count;
  });
  probe("probe.decide");
  p.decide_ns = ns_per_call(np, [&](std::size_t i) {
    const auto dec =
        net.edge_switch(pp.ingress[i]).decide(pp.packets[i], now, mode);
    g_sink = g_sink + static_cast<std::uint64_t>(dec.kind);
  });
  probe("probe.lfib");
  p.lfib_ns = ns_per_call(np, [&](std::size_t i) {
    g_sink = g_sink + net.edge_switch(pp.ingress[i]).lfib().contains(
                          pp.packets[i].dst_mac);
  });
  probe("probe.gfib");
  std::vector<SwitchId> out;
  std::uint64_t candidates = 0;
  p.gfib_ns = ns_per_call(np, [&](std::size_t i) {
    out.clear();
    net.edge_switch(pp.ingress[i])
        .gfib()
        .query_into(BloomHash::of(pp.packets[i].dst_mac), out);
    candidates += out.size();
  });
  p.gfib_candidates_mean = static_cast<double>(candidates) /
                           static_cast<double>(np * kProbeRounds);
  probe("probe.flow_table");
  p.flow_table_ns = ns_per_call(np, [&](std::size_t i) {
    g_sink = g_sink + (net.edge_switch(pp.ingress[i])
                           .flow_table()
                           .lookup(pp.packets[i], now) != nullptr);
  });
  probe("probe.gfib_build");
  p.gfib_build_ms = gfib_build_ms(net);
  probe("probe.dgm_round");
  p.dgm_round_ms =
      ms_per_call(5, [&] { g_sink = g_sink + net.run_dgm_maintenance(); });
  return p;
}

void layer_leg(const Options& o, const Reference& ref, Gates& gates,
               benchx::BenchReport& report) {
  const std::size_t shards = ref.spec.config.runtime.num_shards;
  run_rep(ref, shards, gates, "warmup rep");

  // Untraced and traced reps interleaved (plus 1-shard reps when the
  // workload is sharded), so drift on the host hits all legs alike. Half
  // the window: per-layer metrics carry no regression bound.
  std::vector<double> untraced_s, traced_s, one_shard_s, bootstrap_ms;
  const auto t0 = Clock::now();
  while (traced_s.size() < 2 ||
         (seconds_since(t0) < o.seconds / 2 && traced_s.size() < kMaxReps)) {
    const std::string n = std::to_string(traced_s.size() + 1);
    const Rep plain = run_rep(ref, shards, gates, "untraced rep " + n);
    untraced_s.push_back(plain.replay_s);
    bootstrap_ms.push_back(plain.setup.bootstrap_s * 1e3);
    set_tracing(true);
    traced_s.push_back(run_rep(ref, shards, gates, "traced rep " + n).replay_s);
    set_tracing(false);
    if (shards > 1) {
      one_shard_s.push_back(
          run_rep(ref, 1, gates, "1-shard rep " + n).replay_s);
    }
  }

  // The traced run the exported trace and the registry describe. The
  // recorder stops at its end; bench spans keep its clock.
  SpanLog spans;
  set_tracing(true);
  Rep traced;
  {
    SpanScope run_span(&spans, "traced_run", 0);
    traced = run_rep(ref, shards, gates, "final traced rep", &spans,
                     run_span.id());
  }
  set_tracing(false);
  core::Network& net = *traced.setup.net;
  // Emitted = kept in the ring + overwritten when it wrapped.
  const std::uint64_t trace_dropped = obs::recorder().dropped();
  const std::uint64_t trace_events = obs::recorder().size() + trace_dropped;
  const double gfib_rebuilds = static_cast<double>(
      obs::recorder().phase_total(obs::TraceEventType::kGfibRebuild).calls);
  std::map<std::string, double> g;
  {
    obs::Registry registry;
    net.register_stats(registry);
    for (const obs::Registry::Sample& s : registry.snapshot()) {
      g[s.name] = s.value;
    }
  }
  const double sim_events =
      static_cast<double>(net.simulator().processed_events());

  const LayerProbes p = run_probes(net, ref, spans);
  traced.setup.net.reset();  // free it before the restore below
  double finish_s = 0;
  {
    SpanScope leg(&spans, "ckpt", 0);
    std::vector<double> unused_ms;
    auto restored = restore_snapshot(ref, gates, unused_ms, &spans, leg.id());
    if (restored != nullptr) {
      save_snapshot(*restored, ref, gates, unused_ms, &spans, leg.id());
      finish_s = finish_restored(*restored, ref, gates, &spans, leg.id());
    }
  }
  double gen_s = 0;
  {
    SpanScope span(&spans, "generate", 0);
    const auto tg = Clock::now();
    g_sink = g_sink + generate_like(ref.spec, ref.topology()).flows.size();
    gen_s = seconds_since(tg);
  }

  const core::RunMetrics& m = ref.metrics();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double seen = d(m.flows_seen);
  const auto rec = [&](const std::string& key, double v,
                       const std::string& unit) {
    report.metric(key, v, unit);
  };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // sim
  rec("sim.events", sim_events, "count");
  rec("sim.flows_per_event", per(seen, sim_events), "ratio");
  // core: set-up
  rec("bootstrap.history_ms", p.history_ms, "ms");
  rec("bootstrap.inigroup_ms", p.inigroup_ms, "ms");
  record_samples(report, "bootstrap.wall_ms", bootstrap_ms, "ms");
  // core::EdgeSwitch
  rec("edge.decide_ns", p.decide_ns, "ns");
  const double hit = d(m.flows_flow_table_hit);
  const double local = d(m.flows_local_delivery);
  const double intra = d(m.flows_intra_group);
  rec("edge.share_hit", per(hit, seen), "ratio");
  rec("edge.share_local", per(local, seen), "ratio");
  rec("edge.share_intra", per(intra, seen), "ratio");
  rec("edge.share_punt", per(seen - hit - local - intra, seen), "ratio");
  // core::LFib
  rec("lfib.lookup_ns", p.lfib_ns, "ns");
  rec("lfib.entries", g["fib.lfib_entries"], "count");
  // core::GFib
  rec("gfib.scan_ns", p.gfib_ns, "ns");
  rec("gfib.candidates_mean", p.gfib_candidates_mean, "count");
  rec("gfib.fp_copies_per_kflow",
      per(d(m.bf_false_positive_copies), seen) * 1e3, "copies/kflow");
  rec("gfib.bytes", g["fib.gfib_total_bytes"], "bytes");
  rec("gfib.rebuild_ms", p.gfib_build_ms, "ms");
  rec("gfib.rebuilds", gfib_rebuilds, "count");
  // openflow::FlowTable
  rec("flow_table.lookup_ns", p.flow_table_ns, "ns");
  rec("flow_table.rules", g["fib.flow_table_rules"], "count");
  // core controller path (simulated time: sim_* units)
  rec("ctrl.packet_ins", d(m.controller_packet_ins), "count");
  rec("ctrl.queue_delay_mean_ms", m.controller_queue_delay_ms.mean(),
      "sim_ms");
  rec("ctrl.queue_delay_max_ms", m.controller_queue_delay_ms.max(), "sim_ms");
  rec("ctrl.outage_queue_peak", g["controller.outage_queue_peak"], "count");
  rec("ctrl.admission_drops", d(m.ctrl_admission_drops), "count");
  rec("ctrl.punt_retries", d(m.punt_retries), "count");
  rec("ctrl.punt_timeouts", d(m.punt_timeouts), "count");
  rec("ctrl.flows_dropped", d(m.flows_dropped), "count");
  // dgm
  rec("dgm.rounds", d(m.dgm_rounds), "count");
  rec("dgm.plans_applied", d(m.dgm_plans_applied), "count");
  rec("dgm.switch_moves", d(m.dgm_switch_moves), "count");
  rec("dgm.flow_mods", d(m.dgm_flow_mods), "count");
  rec("dgm.round_ms", p.dgm_round_ms, "ms");
  rec("grouping.updates", d(m.grouping_update_count), "count");
  // runtime
  rec("runtime.spans", g["runtime.spans"], "count");
  rec("runtime.flows_per_span", per(g["runtime.flows"], g["runtime.spans"]),
      "ratio");
  rec("runtime.redecided_flows", g["runtime.redecided_flows"], "count");
  rec("runtime.repartitions", g["runtime.repartitions"], "count");
  rec("runtime.barrier_wait_pct",
      per(g["phase.barrier_wait_wall_ms"], traced.replay_s * 1e3) * 100,
      "%");
  rec("runtime.replay_span_ms", g["phase.replay_span_wall_ms"], "ms");
  rec("runtime.speedup_vs_1shard",
      shards > 1 ? per(e2e::median(one_shard_s), e2e::median(untraced_s))
                 : 1.0,
      "x");
  // ckpt
  rec("ckpt.bytes", d(ref.snapshot.size()), "bytes");
  rec("ckpt.finish_s", finish_s, "s");
  // obs
  rec("obs.trace_overhead_pct",
      (per(e2e::median(traced_s), e2e::median(untraced_s)) - 1.0) * 100, "%");
  rec("obs.trace_events", d(trace_events), "count");
  rec("obs.trace_dropped", d(trace_dropped), "count");
  // input generation (bench side)
  rec("bench.gen_s", gen_s, "s");

  if (!o.out.empty()) {
    const std::string path = o.out + "/trace_" + o.workload + ".json";
    const std::string extra =
        obs::flow_recorder().export_chrome_flow_spans() +
        spans.chrome_events();
    if (!obs::recorder().write_chrome_json(path, extra)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::printf("  trace: %llu events (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(trace_events),
                  static_cast<unsigned long long>(trace_dropped),
                  path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

void print_metrics(const benchx::BenchReport& report) {
  std::printf("  %-28s %16s %-12s %14s %14s %14s %14s %4s\n", "metric",
              "median", "unit", "p25", "p75", "min", "max", "n");
  for (const auto& [key, m] : report.metrics()) {
    const auto& s = m.samples;
    std::printf("  %-28s %16.6g %-12s %14.6g %14.6g %14.6g %14.6g %4zu\n",
                key.c_str(), e2e::median(s), m.unit.c_str(),
                e2e::quantile(s, 0.25), e2e::quantile(s, 0.75),
                *std::min_element(s.begin(), s.end()),
                *std::max_element(s.begin(), s.end()), s.size());
  }
}

/// The machine-readable result: the last line on stdout.
void print_result_line(const Gates& gates, const benchx::BenchReport& report) {
  std::string line = "{\"correct\": ";
  line += gates.failures == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(gates.attempted);
  line += ", \"failed\": " + std::to_string(gates.failures);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [key, m] : report.metrics()) {
    if (key == "gate_failures") continue;
    std::snprintf(buf, sizeof buf, "%.17g", e2e::median(m.samples));
    line += (first ? "\"" : ", \"") + key + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run_workload(const Options& o) {
  const auto t0 = Clock::now();
  std::printf("=== lazyctrl_bench: %s, seed %llu, %s leg ===\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? "per-layer (traced)" : "end-to-end");
  Gates gates;
  Reference ref;
  std::string error;
  if (!reference_run(o, &ref, gates, &error)) {
    std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), error.c_str());
    return 2;
  }
  std::printf("  reference: %zu flows, %llu packet-ins, snapshot %zu bytes\n",
              ref.trace().flows.size(),
              static_cast<unsigned long long>(ref.metrics().controller_packet_ins),
              ref.snapshot.size());

  benchx::BenchReport report;
  if (o.trace == 0) {
    end_to_end_leg(o, ref, gates, report);
  } else {
    layer_leg(o, ref, gates, report);
  }
  report.metric("gate_failures", gates.failures, "count");
  print_metrics(report);

  const int status = gates.failures == 0 ? 0 : 1;
  if (!o.out.empty()) {
    const std::string name =
        "e2e_" + o.workload + (o.trace ? "_layers" : "");
    const std::string path = o.out + "/BENCH_" + name + ".json";
    std::ofstream f(path);
    f << benchx::render_bench_json(
        name, "End-to-end benchmark - " + o.workload,
        "bench/e2e/workloads/" + o.workload + ".scn", 1, 1,
        seconds_since(t0), status, report);
    if (!f) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  print_result_line(gates, report);
  return status;
}

/// --all: one child process per workload and leg, so each workload's peak
/// RSS is its own.
int run_all(const Options& o) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(LAZYCTRL_E2E_WORKLOADS)) {
    if (entry.path().extension() == ".scn") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  int failed = 0;
  for (const std::string& name : names) {
    for (const char* trace : {"0", "1"}) {
      std::vector<std::string> args = {
          self,        "--workload", name,
          "--seed",    std::to_string(o.seed),
          "--seconds", std::to_string(o.seconds),
          "--trace",   trace,
          "--scale",   std::to_string(o.scale)};
      if (!o.out.empty()) {
        args.push_back("--out");
        args.push_back(o.out);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      std::fflush(stdout);
      pid_t pid = 0;
      int status = 0;
      if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0 ||
          waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "%s (trace %s) failed\n", name.c_str(), trace);
        ++failed;
      }
    }
  }
  std::printf("lazyctrl_bench --all: %zu workloads x 2 legs, %d failed\n",
              names.size(), failed);
  return failed == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--workload NAME | --all) [--seed N] [--seconds S]\n"
               "          [--trace 0|1] [--out DIR] [--scale F]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      o.all = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      o.trace = std::atoi(v.c_str());
      o.trace_given = true;
    } else if (arg == "--out") {
      o.out = v;
    } else if (arg == "--scale") {
      o.scale = std::atof(v.c_str());
    } else {
      return usage(argv[0]);
    }
  }
  if (o.all == !o.workload.empty() || (o.all && o.trace_given) ||
      (o.trace != 0 && o.trace != 1) || o.seconds <= 0 || o.scale <= 0) {
    return usage(argv[0]);
  }
  if (!o.out.empty()) {
    std::error_code ec;
    fs::create_directories(o.out, ec);
  }
  return o.all ? run_all(o) : run_workload(o);
}
