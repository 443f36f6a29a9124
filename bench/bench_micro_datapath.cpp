// Micro + end-to-end benchmarks of the per-packet hot path.
//
// The headline numbers are the end-to-end replay throughputs (flows/s and
// packets/s) of one single-threaded Network::replay() over a fixed
// workload.
//
// Topology, trace and intensity history are constructed ONCE outside every
// timed region (an earlier version of this bench timed setup together with
// the replay, which made before/after comparisons dishonest); each timed
// region covers exactly one Network::replay(). The harness repeats the
// whole body and reports medians in BENCH_micro_datapath.json.
//
// The micro section times the individual hot-path kernels (Bloom probe,
// G-FIB scan, L-FIB lookup, flow-table lookup and rule upkeep, Fig. 5
// decision) in ns/op.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "core/edge_switch.h"
#include "core/network.h"
#include "harness.h"
#include "openflow/flow_table.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

template <typename T>
inline void do_not_optimize(T const& value) {
  asm volatile("" : : "g"(value) : "memory");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times `op(i)` over `iters` iterations; returns ns per op.
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& op) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  return seconds_since(t0) * 1e9 / static_cast<double>(iters);
}

/// Shared fixture, built once (outside all timed regions) and reused by
/// every harness repetition.
struct Setup {
  topo::Topology topo;
  workload::Trace trace;
  graph::WeightedGraph history;

  Setup()
      : topo(make_topo()),
        trace(make_trace(topo)),
        history(workload::build_intensity_graph(trace, topo, 0, kHour)) {}

  static topo::Topology make_topo() {
    Rng rng(901);
    topo::MultiTenantOptions opt;
    opt.switch_count = 96;
    opt.tenant_count = 40;
    opt.min_vms_per_tenant = 20;
    opt.max_vms_per_tenant = 60;
    opt.vms_per_switch = 24;
    return topo::build_multi_tenant(opt, rng);
  }
  static workload::Trace make_trace(const topo::Topology& topo) {
    Rng rng(902);
    workload::RealLikeOptions opt;
    opt.total_flows =
        static_cast<std::size_t>(200000 * benchx::bench_scale());
    return workload::generate_real_like(topo, opt, rng);
  }
};

struct ReplayResult {
  double seconds = 0;
  double flows_per_sec = 0;
  double packets_per_sec = 0;
  std::uint64_t packet_ins = 0;
  double first_packet_ms = 0;
  std::size_t gfib_bytes = 0;
};

ReplayResult run_replay(const Setup& s) {
  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  cfg.grouping.group_size_limit = 18;
  core::Network net(s.topo, cfg);  // construction + bootstrap untimed
  net.bootstrap(s.history);

  const auto t0 = std::chrono::steady_clock::now();
  net.replay(s.trace);  // ONLY the replay is timed
  const double dt = seconds_since(t0);

  ReplayResult r;
  r.seconds = dt;
  r.flows_per_sec = static_cast<double>(net.metrics().flows_seen) / dt;
  r.packets_per_sec =
      static_cast<double>(net.metrics().packets_accounted) / dt;
  r.packet_ins = net.metrics().controller_packet_ins;
  r.first_packet_ms = net.metrics().first_packet_latency_ms.mean();
  r.gfib_bytes = net.total_gfib_bytes();
  return r;
}

int body(benchx::BenchReport& report) {
  static const Setup setup;  // built once, outside every timed region

  // --- end-to-end datapath throughput ---
  const ReplayResult replay = run_replay(setup);
  std::printf("end-to-end replay (%zu flows, %zu switches):\n",
              setup.trace.flow_count(), setup.topo.switch_count());
  std::printf("  %10.3fs %12.0f flows/s %14.0f packets/s\n\n",
              replay.seconds, replay.flows_per_sec, replay.packets_per_sec);

  report.throughput("throughput_replay_flows_per_sec", replay.flows_per_sec);
  report.throughput("throughput_replay_packets_per_sec",
                    replay.packets_per_sec);
  report.controller_load("controller_packet_ins",
                         static_cast<double>(replay.packet_ins));
  report.latency_ms("first_packet_latency_mean_ms", replay.first_packet_ms);
  report.memory_bytes("gfib_total_bytes",
                      static_cast<double>(replay.gfib_bytes));

  // --- micro kernels ---
  std::printf("hot-path kernels:\n");

  {
    BloomFilter f(BloomParameters{16384, 8});
    const double ins = ns_per_op(1 << 18, [&](std::size_t i) {
      f.insert(static_cast<std::uint64_t>(i));
      if ((i & 0x3FF) == 0) f.clear();  // keep fill ratio realistic
    });
    for (std::uint64_t k = 0; k < 24; ++k) f.insert(k * 977);
    const double qry = ns_per_op(1 << 19, [&](std::size_t i) {
      do_not_optimize(f.may_contain(static_cast<std::uint64_t>(i)));
    });
    std::printf("  %-34s %8.1f ns/op\n", "bloom insert", ins);
    std::printf("  %-34s %8.1f ns/op\n", "bloom query", qry);
    report.metric("bloom_insert_ns", ins, "ns");
    report.metric("bloom_query_ns", qry, "ns");
  }

  {
    // A paper-sized G-FIB (45 peer filters >= the 32-peer acceptance
    // floor, 24 hosts each), built under BOTH layouts from identical host
    // lists: the linear per-peer bank walks 45 filters per scan, the
    // bit-sliced bank ANDs k=8 peer-mask slices. Candidate sets are
    // bit-identical (tests/sliced_bank_test.cpp); only the memory walk
    // differs, which is exactly what this kernel times.
    core::GFib linear(BloomParameters{16384, 8}, core::GFibLayout::kLinear);
    core::GFib sliced(BloomParameters{16384, 8}, core::GFibLayout::kSliced);
    std::uint32_t host = 0;
    for (std::uint32_t peer = 1; peer <= 45; ++peer) {
      std::vector<MacAddress> macs;
      for (int h = 0; h < 24; ++h) {
        macs.push_back(MacAddress::for_host(host++));
      }
      linear.sync_peer(SwitchId{peer}, macs);
      sliced.sync_peer(SwitchId{peer}, macs);
    }
    std::vector<SwitchId> hits;
    hits.reserve(64);
    const double lin = ns_per_op(1 << 16, [&](std::size_t i) {
      hits.clear();
      linear.query_into(
          BloomHash::of(MacAddress::for_host(
              static_cast<std::uint32_t>(i % 2048))),
          hits);
      do_not_optimize(hits.size());
    });
    const double sli = ns_per_op(1 << 16, [&](std::size_t i) {
      hits.clear();
      sliced.query_into(
          BloomHash::of(MacAddress::for_host(
              static_cast<std::uint32_t>(i % 2048))),
          hits);
      do_not_optimize(hits.size());
    });
    const double scan_speedup = lin / sli;
    std::printf("  %-34s %8.1f ns/op\n", "g-fib scan (45 peers, linear)",
                lin);
    std::printf("  %-34s %8.1f ns/op\n", "g-fib scan (45 peers, sliced)",
                sli);
    std::printf("  %-34s %8.2fx\n", "g-fib sliced scan speedup",
                scan_speedup);
    if (scan_speedup < 1.5) {
      // Non-fatal: flags the regression in logs (and check_bench_json
      // repeats the warning from the committed JSON) without failing the
      // job — CI smoke boxes are too noisy for a hard perf gate.
      std::printf("WARNING: gfib_scan_speedup %.2fx < 1.5x "
                  "(non-fatal; sliced scan regressed?)\n",
                  scan_speedup);
    }
    report.metric("gfib_scan_ns", lin, "ns");
    report.metric("gfib_scan_sliced_ns", sli, "ns");
    report.metric("gfib_scan_speedup", scan_speedup, "x");
  }

  {
    core::LFib lfib;
    for (std::uint32_t h = 0; h < 24; ++h) {
      lfib.learn(MacAddress::for_host(h), HostId{h}, TenantId{0});
    }
    const double qry = ns_per_op(1 << 19, [&](std::size_t i) {
      do_not_optimize(lfib.contains(
          MacAddress::for_host(static_cast<std::uint32_t>(i % 48))));
    });
    std::printf("  %-34s %8.1f ns/op\n", "l-fib lookup (open addressing)",
                qry);
    report.metric("lfib_lookup_ns", qry, "ns");
  }

  {
    openflow::FlowTable table;
    for (std::uint32_t i = 0; i < 4096; ++i) {
      openflow::FlowRule r;
      r.priority = 10;
      r.match.tenant = TenantId{i % 16};
      r.match.dst_mac = MacAddress::for_host(i);
      r.action.type = openflow::ActionType::kEncapTo;
      table.install(r);
    }
    net::Packet p;
    p.tenant = TenantId{3};
    const double qry = ns_per_op(1 << 18, [&](std::size_t i) {
      p.dst_mac = MacAddress::for_host(static_cast<std::uint32_t>(i % 4096));
      do_not_optimize(table.lookup(p, 0));
    });
    std::printf("  %-34s %8.1f ns/op\n", "flow-table lookup (4096 rules)",
                qry);
    report.metric("flow_table_lookup_ns", qry, "ns");
  }

  {
    // Rule upkeep in openflow_outage's table shape: ~40 live reactive
    // rules, each step installs one and a lookup's expiry sweep removes
    // the one installed 40 steps earlier.
    openflow::FlowTable table;
    net::Packet p;
    p.tenant = TenantId{0};
    p.src_mac = MacAddress::for_host(0);
    SimTime now = 0;
    const auto step = [&](std::size_t) {
      openflow::FlowRule r;
      r.priority = 10;
      r.match.tenant = TenantId{0};
      r.match.src_mac = MacAddress::for_host(0);
      r.match.dst_mac =
          MacAddress::for_host(static_cast<std::uint32_t>(now % 4096));
      r.action.type = openflow::ActionType::kEncapTo;
      r.installed_at = now;
      r.expires_at = now + 40;
      table.install(r);
      p.dst_mac =
          MacAddress::for_host(static_cast<std::uint32_t>((now / 2) % 4096));
      do_not_optimize(table.lookup(p, now));
      ++now;
    };
    for (std::size_t i = 0; i < 1024; ++i) step(i);  // fill to ~40 rules
    const double churn = ns_per_op(1 << 18, step);
    std::printf("  %-34s %8.1f ns/op\n",
                "flow-table install+expire (40 rules)", churn);
    report.metric("flow_table_churn_ns", churn, "ns");
  }

  {
    // Fig. 5 decision: local hosts + a 46-member group bank (the switch's
    // own column, masked by decide(), plus 45 peers).
    core::Config cfg;
    core::EdgeSwitch sw(SwitchId{0}, IpAddress::for_switch(0),
                        MacAddress{0x060000000000ULL}, cfg);
    core::GFib bank(BloomParameters{cfg.fib.bloom_bits, cfg.fib.bloom_hashes},
                    cfg.fib.layout);
    std::uint32_t host = 0;
    for (std::uint32_t member = 0; member <= 45; ++member) {
      std::vector<MacAddress> macs;
      for (int h = 0; h < 24; ++h) {
        if (member == 0) {
          sw.lfib().learn(MacAddress::for_host(host), HostId{host},
                          TenantId{0});
        }
        macs.push_back(MacAddress::for_host(host++));
      }
      bank.sync_peer(SwitchId{member}, macs);
    }
    sw.attach_gfib(&bank);
    net::Packet p;
    p.tenant = TenantId{0};
    p.src_mac = MacAddress::for_host(0);
    const double single_ns = ns_per_op(1 << 16, [&](std::size_t i) {
      p.dst_mac = MacAddress::for_host(
          static_cast<std::uint32_t>(i % (46 * 24)));
      do_not_optimize(sw.decide(p, 0, core::ControlMode::kLazyCtrl));
    });
    std::printf("  %-34s %8.1f ns/op\n", "edge decide", single_ns);
    report.metric("edge_decide_single_ns", single_ns, "ns");
  }

  return 0;
}

}  // namespace

int main() {
  benchx::HarnessOptions opts;
  opts.repetitions = 5;
  opts.warmup = 1;
  return benchx::run_benchmark(
      "micro_datapath",
      "Micro datapath — replay throughput and hot-path kernels",
      "records the single-threaded replay's flows/s and packets/s on one "
      "workload plus ns/op of the hot-path kernels",
      opts, body);
}
