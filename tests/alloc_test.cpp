// Allocation audits: the steady-state datapath and trace ordering.
//
// The PR series' claim is that after warm-up the per-flow forwarding path
// performs NO heap allocation: the flow-table probe, L-FIB probe, G-FIB
// scan (either layout) and decide()'s candidate staging all run out of
// reused buffers. This binary overrides the global
// operator new/delete with a counting pass-through and asserts the count
// stays flat across thousands of steady-state decisions — so a future
// change that sneaks an allocation back in (a vector copy, a std::function
// capture, a map insert) fails loudly instead of showing up only as a
// perf regression. The same counters pin workload::finalize_trace's
// memory bound: it sorts in place with one 4-byte arrival position per
// sorted flow, in one scratch allocation the merge then reuses, so a
// trace of n flows never pays std::stable_sort's n/2-flow scratch
// buffer, the traffic monitor's
// per-flow recording, which allocates nothing once a roll has left its
// window table sized, the flow table's install/expire/compact churn,
// which reuses its slots once warm, partition refinement, whose vertex
// visits reuse one connectivity row per call, and per-host state: a
// topology copy and a C-LIB learning every host allocate as often for 16k
// hosts as for 1k.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/edge_switch.h"
#include "dgm/traffic_monitor.h"
#include "graph/fm_refinement.h"
#include "net/packet.h"
#include "topo/topology.h"
#include "workload/trace.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

/// Heap requests made while `fn` runs.
struct Allocated {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

template <class Fn>
Allocated allocated_by(Fn fn) {
  const std::uint64_t bytes = g_alloc_bytes.load();
  const std::uint64_t count = g_alloc_count.load();
  fn();
  return {g_alloc_bytes.load() - bytes, g_alloc_count.load() - count};
}

}  // namespace

// Counting pass-throughs. Sized/aligned/nothrow variants count too; the
// counters only ever increment, so a warmed-up region asserting a zero
// delta cannot be fooled by free-list reuse. The plain new and the
// deletes that free its memory stay out of line: inlined into the same
// caller, GCC would see free() on a pointer from operator new and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// std::stable_sort's scratch buffer comes from the nothrow form. Left
// to the sanitizer runtime, it would not be counted and its memory would
// reach the free() below from a foreign allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  g_alloc_bytes += size;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lazyctrl::core {
namespace {

/// A switch with 24 local hosts viewing a 46-member group bank under
/// `layout` (its own column plus 45 peers). The bank must outlive the
/// switch's view of it.
struct SwitchInGroup {
  GFib bank;
  EdgeSwitch sw;

  explicit SwitchInGroup(GFibLayout layout)
      : bank(BloomParameters{Config{}.fib.bloom_bits,
                             Config{}.fib.bloom_hashes},
             layout),
        sw(SwitchId{0}, IpAddress::for_switch(0),
           MacAddress{0x060000000000ULL}, Config{}) {
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
  }
};

class DatapathAllocTest : public ::testing::TestWithParam<GFibLayout> {};

TEST_P(DatapathAllocTest, PreDecideBurstSteadyStateIsAllocationFree) {
  // The sharded runtime's worker pattern: a 64-flow burst decided one
  // flow at a time, every candidate set copied into a reused pool. The
  // burst mixes all four outcomes — flow-table hits (TTL refresh on
  // installed rules), local delivery, intra-group candidates and
  // provable misses — so every decide() branch runs in steady state.
  SwitchInGroup group(GetParam());
  EdgeSwitch& sw = group.sw;
  for (std::uint32_t h = 0; h < 48 * 24; h += 5) {
    openflow::FlowRule rule;
    rule.priority = 10;
    rule.match.tenant = TenantId{0};
    rule.match.dst_mac = MacAddress::for_host(h);
    rule.action.type = openflow::ActionType::kEncapTo;
    sw.flow_table().install(rule);
  }
  net::Packet p;
  p.tenant = TenantId{0};
  p.src_mac = MacAddress::for_host(0);
  std::vector<EdgeSwitch::DecisionKind> kinds;
  std::vector<SwitchId> pool;
  kinds.reserve(64);

  std::uint32_t dst = 0;
  SimTime now = 0;
  std::size_t hits = 0;
  auto run_burst = [&] {
    kinds.clear();
    pool.clear();
    for (int i = 0; i < 64; ++i) {
      p.dst_mac = MacAddress::for_host(dst % (48 * 24));
      dst += 7;
      const EdgeSwitch::Decision d =
          sw.decide(p, now++, ControlMode::kLazyCtrl);
      kinds.push_back(d.kind);
      pool.insert(pool.end(), d.candidates.begin(), d.candidates.end());
      hits += d.kind == EdgeSwitch::DecisionKind::kFlowTableHit;
    }
  };

  for (int warm = 0; warm < 32; ++warm) run_burst();  // size every buffer

  const std::uint64_t before = g_alloc_count.load();
  for (int iter = 0; iter < 2000; ++iter) run_burst();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "per-flow pre-decide allocated in steady state";
  EXPECT_GT(hits, 0u);  // the burst really exercised flow-table hits
}

TEST_P(DatapathAllocTest, SinglePacketDecideSteadyStateIsAllocationFree) {
  SwitchInGroup group(GetParam());
  EdgeSwitch& sw = group.sw;
  net::Packet p;
  p.tenant = TenantId{0};
  p.src_mac = MacAddress::for_host(0);

  std::uint32_t dst = 0;
  std::size_t sink = 0;
  auto decide_one = [&] {
    p.dst_mac = MacAddress::for_host(dst % (48 * 24));
    dst += 7;
    const EdgeSwitch::Decision d =
        sw.decide(p, 0, ControlMode::kLazyCtrl);
    sink += d.candidates.size();
  };

  for (int warm = 0; warm < 512; ++warm) decide_one();

  const std::uint64_t before = g_alloc_count.load();
  for (int iter = 0; iter < 100'000; ++iter) decide_one();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "decide() allocated in steady state";
  EXPECT_GT(sink, 0u);  // the loop really produced candidates
}

INSTANTIATE_TEST_SUITE_P(Layouts, DatapathAllocTest,
                         ::testing::Values(GFibLayout::kLinear,
                                           GFibLayout::kSliced),
                         [](const auto& info) {
                           return info.param == GFibLayout::kLinear
                                      ? "Linear"
                                      : "Sliced";
                         });

TEST(FlowTableAllocTest, InstallExpireCompactChurnIsAllocationFree) {
  // openflow_outage's table shape: ~40 live reactive rules, one install
  // and one expiry per step. Sweeps bury expired rules in place and a
  // compaction drops the tombstones every few sweeps; once the slot,
  // index and tombstone vectors have grown to the churn's high-water
  // mark, none of that allocates.
  openflow::FlowTable table;
  net::Packet p;
  p.tenant = TenantId{0};
  p.src_mac = MacAddress::for_host(0);
  SimTime now = 0;
  std::size_t hits = 0;
  const auto step = [&] {
    openflow::FlowRule rule;
    rule.priority = 10;
    rule.match.tenant = TenantId{0};
    rule.match.src_mac = MacAddress::for_host(0);
    rule.match.dst_mac =
        MacAddress::for_host(static_cast<std::uint32_t>(now % 4096));
    rule.action.type = openflow::ActionType::kEncapTo;
    rule.installed_at = now;
    rule.expires_at = now + 40;
    table.install(rule);
    p.dst_mac =
        MacAddress::for_host(static_cast<std::uint32_t>((now / 2) % 4096));
    hits += table.lookup(p, now) != nullptr;
    ++now;
  };

  for (int warm = 0; warm < 500; ++warm) step();
  ASSERT_EQ(table.size(), 40u);

  const std::uint64_t before = g_alloc_count.load();
  for (int iter = 0; iter < 20'000; ++iter) step();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "flow-table churn allocated once warm";
  EXPECT_EQ(table.size(), 40u);
  EXPECT_GT(hits, 0u);  // lookups really hit live rules
}

}  // namespace
}  // namespace lazyctrl::core

namespace lazyctrl::dgm {
namespace {

TEST(TrafficMonitorAllocTest, RecordingIntoARolledWindowIsAllocationFree) {
  // Every flow Network::on_flow replays is counted into the monitor's
  // window; a roll empties the window table but keeps its capacity, so
  // the next window's recording allocates nothing.
  TrafficMonitor m(300, TrafficMonitorOptions{});
  const auto record_all = [&] {
    for (std::uint32_t a = 0; a < 300; a += 3) {
      for (std::uint32_t b = 0; b < 300; b += 7) {
        m.record_flow(SwitchId{a}, SwitchId{b}, 1 + a % 5);
      }
    }
  };
  record_all();  // sizes the window table
  m.roll_window();
  ASSERT_GT(m.tracked_pairs(), 1000u);

  const std::uint64_t before = g_alloc_count.load();
  record_all();
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "recording allocated after a roll";
}

}  // namespace
}  // namespace lazyctrl::dgm

namespace lazyctrl::graph {
namespace {

TEST(RefinePartitionAllocTest, VertexVisitsAreAllocationFree) {
  // Ten planted clusters of 50 vertices, weights of integer flow counts
  // over a minute (equal gains are common), dealt round-robin into ten
  // parts: every pass has moves to find. Greedy and FM passes both visit
  // vertices (FM rescans all unmoved vertices per step, so a pass makes
  // tens of thousands of visits); a visit sums into the row the call
  // allocates once (a near-tie's hash map lives on the stack), so only
  // the per-call and per-pass vectors allocate.
  constexpr std::size_t kClusters = 10, kSize = 50, kN = kClusters * kSize;
  Rng rng(3);
  WeightedGraph g(kN);
  for (VertexId u = 0; u < kN; ++u) {
    for (VertexId v = u + 1; v < kN; ++v) {
      const bool same = u / kSize == v / kSize;
      if (rng.next_bool(same ? 0.15 : 0.01)) {
        g.add_edge(u, v, static_cast<Weight>(1 + rng.next_below(20)) / 60);
      }
    }
  }
  Partition p;
  p.part_count = kClusters;
  for (VertexId v = 0; v < kN; ++v) p.assignment.push_back(v % kClusters);
  const PartitionConstraints c{kSize + 5.0};
  RefineOptions o;
  o.max_passes = 4;

  const std::uint64_t before = g_alloc_count.load();
  const Weight gain = refine_partition(g, p, c, o, rng);
  const std::uint64_t allocations = g_alloc_count.load() - before;
  ASSERT_GT(gain, 0);
  EXPECT_LE(allocations, 8u + 4u * o.max_passes)
      << "refinement allocated per vertex visit";
}

}  // namespace
}  // namespace lazyctrl::graph

namespace lazyctrl::workload {
namespace {

constexpr std::size_t kTraceFlows = 100'000;

/// `n` flows with random starts in [0, horizon), each tagged with its
/// arrival index in `packets` so a reordering of equal starts shows.
Trace random_trace(std::size_t n, SimTime horizon, std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.flows.resize(n);
  std::uint32_t arrival = 0;
  for (Flow& f : t.flows) {
    f.start = static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(horizon)));
    f.packets = ++arrival;
  }
  return t;
}

bool start_before(const Flow& a, const Flow& b) { return a.start < b.start; }

bool same_order(const Trace& a, const Trace& b) {
  return std::equal(a.flows.begin(), a.flows.end(), b.flows.begin(),
                    b.flows.end(), [](const Flow& x, const Flow& y) {
                      return x.start == y.start && x.packets == y.packets;
                    });
}

TEST(FinalizeTraceAllocTest, SortedTraceIsAllocationFree) {
  Trace t;
  t.flows.resize(kTraceFlows);
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    t.flows[i].start = static_cast<SimTime>(i / 3);  // ties included
  }
  EXPECT_EQ(allocated_by([&] { finalize_trace(t); }).count, 0u);
}

TEST(FinalizeTraceAllocTest, ShuffledTraceAllocatesOnePositionPerFlowOnce) {
  // The radix sort's only heap memory is the arrival positions, 4 bytes
  // per flow in one array: the 8-byte id each record used to carry is
  // gone, so 28n bytes are live at the sort where 32n were.
  Trace t = random_trace(kTraceFlows, kHour, 1);
  const Allocated a = allocated_by([&] { finalize_trace(t); });
  EXPECT_EQ(a.bytes, kTraceFlows * sizeof(std::uint32_t));
  EXPECT_EQ(a.count, 1u);
  ASSERT_TRUE(std::is_sorted(t.flows.begin(), t.flows.end(), start_before));
}

TEST(FinalizeTraceAllocTest, PrefixPlusTailBuffersAtMostTheSmallerRun) {
  // A sorted prefix of 100k flows over an hour, then 20k unsorted flows
  // inside [20 min, 30 min) — the shape surge_trace hands over.
  Trace t;
  for (std::size_t i = 0; i < kTraceFlows; ++i) {
    Flow f;
    f.start = static_cast<SimTime>(i) * (kHour / kTraceFlows);
    t.flows.push_back(f);
  }
  const Trace tail = random_trace(20'000, 10 * kMinute, 2);
  std::size_t overlap = 0;
  for (const Flow& f : t.flows) {
    overlap += f.start >= 20 * kMinute && f.start < 30 * kMinute;
  }
  for (Flow f : tail.flows) {
    f.start += 20 * kMinute;
    t.flows.push_back(f);
  }
  const std::size_t n = t.flows.size();
  const Allocated a = allocated_by([&] { finalize_trace(t); });
  // One allocation serves the tail's positions, then the merge's buffer:
  // the larger of the two, never their sum.
  EXPECT_EQ(a.count, 1u);
  EXPECT_LE(a.bytes,
            std::max(tail.flows.size() * sizeof(std::uint32_t),
                     std::min(overlap, tail.flows.size()) * sizeof(Flow)));
  EXPECT_LT(a.bytes, n / 2 * sizeof(Flow));  // std::stable_sort's buffer
  ASSERT_TRUE(std::is_sorted(t.flows.begin(), t.flows.end(), start_before));
}

TEST(FinalizeTraceAllocTest, PrefixPlusTailMergeKeepsArrivalOrderOnTies) {
  // Starts on a coarse grid, so ties abound within and across the runs.
  // A tail shorter than the overlap is merged backward from the buffer,
  // a longer one forward; both must give std::stable_sort's order.
  for (const std::size_t tail_flows : {2'000u, 60'000u}) {
    SCOPED_TRACE(tail_flows);
    Trace t = random_trace(kTraceFlows, 1000, 4);
    std::sort(t.flows.begin(), t.flows.end(),
              [](const Flow& a, const Flow& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.packets < b.packets;
              });
    const Trace tail = random_trace(tail_flows, 500, 5);
    for (Flow f : tail.flows) {
      f.start += 250;
      f.packets += kTraceFlows;  // arrival tags after the prefix's
      t.flows.push_back(f);
    }
    Trace want = t;
    std::stable_sort(want.flows.begin(), want.flows.end(), start_before);
    finalize_trace(t);
    EXPECT_TRUE(same_order(t, want));
  }
}

// Positions never wrap: a range of 2^32 or more flows sorts on 64-bit
// positions. Checked at the boundary and on a small range forced onto
// the 64-bit instance, without a 2^32-flow trace.
static_assert(!detail::wide_positions(0));
static_assert(!detail::wide_positions(std::size_t{0xFFFF'FFFF}));
static_assert(detail::wide_positions(std::size_t{1} << 32));

TEST(FinalizeTraceAllocTest, WidePositionsSortTheSameWithEightBytesPerFlow) {
  // Starts in [0, 1000): most of the key is the arrival position.
  const Trace shuffled = random_trace(kTraceFlows, 1000, 3);
  Trace want = shuffled;
  std::stable_sort(want.flows.begin(), want.flows.end(), start_before);

  Trace narrow = shuffled;
  finalize_trace(narrow);
  EXPECT_TRUE(same_order(narrow, want));

  Trace wide = shuffled;
  const Allocated a = allocated_by(
      [&] { detail::sort_flows<std::uint64_t>(wide.flows); });
  EXPECT_EQ(a.bytes, kTraceFlows * sizeof(std::uint64_t));
  EXPECT_EQ(a.count, 1u);
  EXPECT_TRUE(same_order(wide, want));
}

}  // namespace
}  // namespace lazyctrl::workload

namespace lazyctrl::core {
namespace {

/// 64 switches and `hosts` hosts attached round-robin.
topo::Topology topology_with(std::uint32_t hosts) {
  topo::Topology t;
  for (int s = 0; s < 64; ++s) t.add_switch();
  for (std::uint32_t h = 0; h < hosts; ++h) {
    t.add_host(TenantId{h % 7}, SwitchId{h % 64});
  }
  return t;
}

TEST(PerHostStateAllocTest, TopologyCopyAllocationsDoNotGrowWithHosts) {
  // Every network copies its topology. Hosts live in one array and a
  // MAC decodes to its host, so a copy allocates per switch, never per
  // host; a MAC-keyed hash index would add a node per host.
  const auto copy_allocations = [](const topo::Topology& t) {
    std::size_t copied = 0;
    const Allocated a = allocated_by([&] {
      const topo::Topology copy = t;
      copied = copy.host_count();
    });
    EXPECT_EQ(copied, t.host_count());
    return a.count;
  };
  const std::uint64_t small = copy_allocations(topology_with(1'000));
  EXPECT_EQ(copy_allocations(topology_with(16'000)), small);
}

TEST(PerHostStateAllocTest, ClibLearningAllocationsDoNotGrowWithHosts) {
  // The C-LIB is one slot per host, sized with the controller; learning
  // every host, in any order, allocates nothing more.
  const auto learn_all = [](std::uint32_t hosts) {
    std::size_t learned = 0;
    const Allocated a = allocated_by([&] {
      CentralController ctrl(Config{}, hosts);
      // 7919 is prime and so coprime with both host counts: the stride
      // visits every host once, out of order.
      for (std::uint32_t i = 0; i < hosts; ++i) {
        const std::uint32_t h = static_cast<std::uint32_t>(
            std::uint64_t{i} * 7919 % hosts);
        ctrl.clib_learn(MacAddress::for_host(h), HostId{h}, TenantId{0},
                        SwitchId{h % 64});
      }
      learned = ctrl.clib_size();
    });
    EXPECT_EQ(learned, hosts);
    return a.count;
  };
  EXPECT_EQ(learn_all(16'000), learn_all(1'000));
}

}  // namespace
}  // namespace lazyctrl::core
