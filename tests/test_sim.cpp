/**
 * @file
 * Tests for the timing simulator: replacement policies, cache hit/miss
 * semantics, MSHR behaviour, prefetch fill tracking, DRAM timing and
 * bandwidth monitoring, the core window model and the full system.
 */
#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/dram.hpp"
#include "sim/replacement.hpp"
#include "sim/system.hpp"
#include "sim/prefetcher_registry.hpp"
#include "workloads/generators.hpp"
#include "workloads/suites.hpp"

namespace pythia::sim {
namespace {

// --------------------------------------------------------------- replacement

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    ReplAccess ctx;
    for (std::uint32_t w = 0; w < 4; ++w)
        lru.onInsert(0, w, ctx);
    lru.onHit(0, 0, ctx); // way 0 becomes MRU; way 1 is LRU
    EXPECT_EQ(lru.victim(0), 1u);
    lru.onHit(0, 1, ctx);
    EXPECT_EQ(lru.victim(0), 2u);
}

TEST(Ship, PrefetchInsertionsAreFirstVictims)
{
    ShipPolicy ship(1, 4, 1024);
    ReplAccess demand;
    demand.pc = 0x100;
    ReplAccess pf;
    pf.pc = 0x200;
    pf.is_prefetch = true;
    ship.onInsert(0, 0, demand);
    ship.onInsert(0, 1, pf);
    ship.onInsert(0, 2, demand);
    ship.onInsert(0, 3, demand);
    // The prefetch entered at distant RRPV and should be chosen.
    EXPECT_EQ(ship.victim(0), 1u);
}

TEST(Ship, HitPromotesToNearReref)
{
    ShipPolicy ship(1, 2, 1024);
    ReplAccess ctx;
    ctx.pc = 0x1;
    ship.onInsert(0, 0, ctx);
    ship.onInsert(0, 1, ctx);
    ship.onHit(0, 0, ctx);
    EXPECT_EQ(ship.victim(0), 1u);
}

TEST(Ship, DeadSignaturesLearnDistantInsertion)
{
    ShipPolicy ship(1, 2, 1024);
    ReplAccess dead;
    dead.pc = 0xDEAD;
    // Train the signature as never-reused until its SHCT counter is zero.
    for (int i = 0; i < 4; ++i) {
        ship.onInsert(0, 0, dead);
        ship.onEvict(0, 0, /*was_reused=*/false);
    }
    // A fresh-signature insertion followed by a dead-signature insertion:
    // the dead one enters at distant RRPV and is evicted first.
    ReplAccess live;
    live.pc = 0x500;
    ship.onInsert(0, 0, live);
    ship.onInsert(0, 1, dead);
    EXPECT_EQ(ship.victim(0), 1u);
}

TEST(ReplacementFactory, KnownAndUnknownKinds)
{
    EXPECT_NE(makeReplacement("lru", 4, 2), nullptr);
    EXPECT_NE(makeReplacement("ship", 4, 2), nullptr);
    EXPECT_THROW(makeReplacement("plru", 4, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------- dram

DramConfig
dramCfg(std::uint32_t mtps = 2400)
{
    DramConfig cfg;
    cfg.mtps = mtps;
    return cfg;
}

TEST(Dram, TimingConversion)
{
    Dram d(dramCfg());
    // 12.5ns at 4GHz = 50 cycles; 15+15+12.5ns = 170 cycles.
    EXPECT_EQ(d.rowHitCycles(), 50u);
    EXPECT_EQ(d.rowMissCycles(), 170u);
    // 64B / 8B per transfer = 8 transfers at 4000/2400 cycles each.
    EXPECT_EQ(d.lineTransferCycles(), 13u);
}

TEST(Dram, LowerMtpsMeansSlowerTransfers)
{
    Dram slow(dramCfg(150)), fast(dramCfg(9600));
    EXPECT_GT(slow.lineTransferCycles(), fast.lineTransferCycles());
    EXPECT_EQ(slow.lineTransferCycles(), 8u * 4000 / 150);
}

TEST(Dram, RowHitFasterThanRowMiss)
{
    Dram d(dramCfg());
    const Cycle first = d.access(0, 0, false);   // row miss
    const Cycle second = d.access(1, first, false); // same row: hit
    EXPECT_GT(first, 0u);
    EXPECT_LT(second - first, first - 0);
}

TEST(Dram, BusSerializesConcurrentAccesses)
{
    Dram d(dramCfg());
    // Two simultaneous accesses to different banks share one bus.
    const Cycle a = d.access(0, 0, false);
    const Cycle b = d.access(1ull << 5, 0, false); // different bank
    EXPECT_GE(b, a + d.lineTransferCycles());
}

TEST(Dram, StatsCountReadsAndWrites)
{
    Dram d(dramCfg());
    d.access(0, 0, false);
    d.access(64, 100, true);
    EXPECT_EQ(d.stats().counter("reads"), 1u);
    EXPECT_EQ(d.stats().counter("writes"), 1u);
}

TEST(Dram, UtilizationRisesUnderLoad)
{
    Dram d(dramCfg(150)); // slow bus saturates quickly
    Cycle t = 0;
    for (int i = 0; i < 2000; ++i)
        t = d.access(static_cast<Addr>(i) * 64, t, false);
    // One more access right at the busy frontier rolls the epoch over.
    d.access(1ull << 30, t, false);
    EXPECT_GT(d.utilization(), 0.5);
    EXPECT_TRUE(d.highUsage());
}

TEST(Dram, UtilizationLowWhenIdle)
{
    Dram d(dramCfg(9600));
    Cycle t = 0;
    for (int i = 0; i < 10; ++i) {
        d.access(static_cast<Addr>(i) * 64, t, false);
        t += 50000; // long idle gaps
    }
    EXPECT_FALSE(d.highUsage());
}

TEST(Dram, BucketsSumToOne)
{
    Dram d(dramCfg());
    Cycle t = 0;
    for (int i = 0; i < 500; ++i)
        t = d.access(static_cast<Addr>(i) * 64, t + 100, false);
    d.access(1ull << 33, t + 100000, false);
    RunResult r;
    r.dram_bucket_epochs = d.bucketEpochCounts();
    r.derive();
    ASSERT_EQ(r.dram_buckets.size(), 4u);
    double sum = 0;
    for (double b : r.dram_buckets)
        sum += b;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --------------------------------------------------------------------- cache

/** Terminal memory level with fixed latency, recording accesses. */
class FakeMemory : public MemoryLevel
{
  public:
    Cycle access(const MemAccess& req) override
    {
        accesses.push_back(req);
        return req.at + latency;
    }
    const std::string& levelName() const override { return name_; }

    std::vector<MemAccess> accesses;
    Cycle latency = 100;

  private:
    std::string name_ = "fake";
};

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "t";
    cfg.size_bytes = 8 * 1024; // 16 sets x 8 ways
    cfg.ways = 8;
    cfg.lookup_latency = 2;
    cfg.mshrs = 4;
    return cfg;
}

MemAccess
load(Addr block, Cycle at)
{
    MemAccess a;
    a.pc = 0x42;
    a.block = block;
    a.type = AccessType::Load;
    a.at = at;
    return a;
}

TEST(Cache, MissThenHit)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    const Cycle t1 = c.access(load(10, 0));
    EXPECT_EQ(t1, 102u); // 2 lookup + 100 memory
    EXPECT_EQ(c.stats().counter("demand_load_miss"), 1u);

    const Cycle t2 = c.access(load(10, 200));
    EXPECT_EQ(t2, 202u); // hit: lookup only
    EXPECT_EQ(c.stats().counter("demand_load_miss"), 1u);
    EXPECT_EQ(c.stats().counter("demand_load_access"), 2u);
}

TEST(Cache, InFlightMergeWaitsForFill)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    const Cycle fill = c.access(load(10, 0));
    // A second access before the fill completes waits until fill time.
    const Cycle t2 = c.access(load(10, 10));
    EXPECT_EQ(t2, fill);
    EXPECT_EQ(mem.accesses.size(), 1u); // merged, no duplicate request
}

TEST(Cache, MshrLimitStallsMisses)
{
    FakeMemory mem;
    Cache c(smallCache(), mem); // 4 MSHRs
    // Issue 5 distinct misses at t=0; the 5th must stall until the first
    // completes.
    Cycle last = 0;
    for (Addr b = 0; b < 5; ++b)
        last = c.access(load(b * 16 + 1, 0));
    EXPECT_GT(last, 200u); // waited for an earlier completion + 100
    EXPECT_GT(c.stats().counter("mshr_stalls"), 0u);
}

TEST(Cache, EvictionWritesBackDirtyLines)
{
    FakeMemory mem;
    CacheConfig cfg = smallCache();
    cfg.ways = 1; // direct mapped: easy conflict
    cfg.size_bytes = 16 * 64;
    Cache c(cfg, mem);

    MemAccess store = load(3, 0);
    store.type = AccessType::Store;
    c.access(store);
    // Conflict on the same set (16 sets): block 3 + 16.
    c.access(load(3 + 16, 500));
    bool saw_writeback = false;
    for (const auto& a : mem.accesses)
        saw_writeback |= (a.type == AccessType::Writeback && a.block == 3);
    EXPECT_TRUE(saw_writeback);
    EXPECT_EQ(c.stats().counter("writebacks"), 1u);
}

/** Prefetcher stub that prefetches +1 on every demand. */
class PlusOnePrefetcher : public PrefetcherApi
{
  public:
    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override
    {
        ++trained;
        PrefetchRequest pr;
        pr.block = access.block + 1;
        out.push_back(pr);
    }
    void onFill(Addr block, Cycle at) override
    {
        fills.emplace_back(block, at);
    }
    void onPrefetchUsed(Addr block, bool timely) override
    {
        used.emplace_back(block, timely);
    }
    const std::string& name() const override { return name_; }
    std::size_t storageBytes() const override { return 0; }
    void saveState(snap::Writer&) const override {}
    void loadState(snap::Reader&) override {}

    int trained = 0;
    std::vector<std::pair<Addr, Cycle>> fills;
    std::vector<std::pair<Addr, bool>> used;

  private:
    std::string name_ = "+1";
};

TEST(Cache, PrefetcherTrainedOnDemandsOnly)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    PlusOnePrefetcher pf;
    c.setPrefetcher(&pf);
    c.access(load(100, 0));
    EXPECT_EQ(pf.trained, 1);
    EXPECT_EQ(c.stats().counter("prefetch_issued"), 1u);
    ASSERT_EQ(pf.fills.size(), 1u);
    EXPECT_EQ(pf.fills[0].first, 101u);
}

TEST(Cache, TimelyPrefetchHitReported)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    PlusOnePrefetcher pf;
    c.setPrefetcher(&pf);
    c.access(load(100, 0));      // prefetches 101, fill at ~102+100
    c.access(load(101, 1000));   // long after the fill: timely
    ASSERT_EQ(pf.used.size(), 1u);
    EXPECT_EQ(pf.used[0].first, 101u);
    EXPECT_TRUE(pf.used[0].second);
    EXPECT_EQ(c.stats().counter("prefetch_useful_timely"), 1u);
}

TEST(Cache, LatePrefetchHitReported)
{
    FakeMemory mem;
    mem.latency = 500;
    Cache c(smallCache(), mem);
    PlusOnePrefetcher pf;
    c.setPrefetcher(&pf);
    c.access(load(100, 0));
    const Cycle t = c.access(load(101, 10)); // before the fill: late
    EXPECT_GT(t, 500u);                       // waited for the fill
    ASSERT_EQ(pf.used.size(), 1u);
    EXPECT_FALSE(pf.used[0].second);
    EXPECT_EQ(c.stats().counter("prefetch_useful_late"), 1u);
}

TEST(Cache, DuplicatePrefetchesDropped)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    PlusOnePrefetcher pf;
    c.setPrefetcher(&pf);
    c.access(load(100, 0));
    c.access(load(100, 10)); // same demand: +1 target already present
    EXPECT_EQ(c.stats().counter("prefetch_issued"), 1u);
    EXPECT_EQ(c.stats().counter("prefetch_dropped"), 1u);
}

TEST(Cache, ReadMissCountsDemandAndPrefetchAtLowerLevel)
{
    // read_miss_total at a level counts demand misses plus *incoming*
    // prefetch requests that miss — the LLC-side accounting the paper's
    // overprediction formula uses. A two-level stack demonstrates it:
    // the upper cache's prefetcher traffic reaches the lower level.
    FakeMemory mem;
    CacheConfig lower_cfg = smallCache();
    lower_cfg.name = "lower";
    Cache lower(lower_cfg, mem);
    Cache upper(smallCache(), lower);
    PlusOnePrefetcher pf;
    upper.setPrefetcher(&pf);
    upper.access(load(100, 0)); // demand miss + prefetch of 101
    EXPECT_EQ(upper.stats().counter("read_miss_total"), 1u);
    EXPECT_EQ(lower.stats().counter("read_miss_total"), 2u);
}

TEST(Cache, FlushClearsContents)
{
    FakeMemory mem;
    Cache c(smallCache(), mem);
    c.access(load(10, 0));
    EXPECT_TRUE(c.contains(10));
    c.flush();
    EXPECT_FALSE(c.contains(10));
    EXPECT_EQ(c.stats().counter("demand_load_access"), 0u);
}

// ---------------------------------------------------------------------- core

TEST(Core, IpcBoundedByWidthWithoutMemory)
{
    // A workload whose loads always hit needs IPC close to width.
    FakeMemory mem;
    mem.latency = 0;
    CacheConfig cfg = smallCache();
    cfg.lookup_latency = 1;
    Cache l1(cfg, mem);

    wl::GenParams p;
    p.mem_ratio = 0.1;
    p.write_ratio = 0.0;
    p.dep_ratio = 0.0;
    wl::StreamGen w("s", 1, {.gen = p, .streams = 1});

    CoreConfig core_cfg;
    Core core(core_cfg, 0, l1, w);
    core.runUntil(20000);
    const double ipc = static_cast<double>(core.instrsRetired()) /
                       core.currentCycle();
    EXPECT_GT(ipc, 1.0);
    EXPECT_LE(ipc, 4.05);
}

TEST(Core, MemoryLatencyReducesIpc)
{
    FakeMemory fast_mem, slow_mem;
    fast_mem.latency = 0;
    slow_mem.latency = 400;
    Cache fast_l1(smallCache(), fast_mem);
    Cache slow_l1(smallCache(), slow_mem);

    wl::GenParams p;
    p.mem_ratio = 0.5;
    p.write_ratio = 0.0;
    p.dep_ratio = 0.5;
    wl::IrregularGen wf("w", 2, {.gen = p, .stride_fraction = 0.0});
    wl::IrregularGen ws("w", 2, {.gen = p, .stride_fraction = 0.0});

    Core fast(CoreConfig{}, 0, fast_l1, wf);
    Core slow(CoreConfig{}, 0, slow_l1, ws);
    fast.runUntil(50000);
    slow.runUntil(50000);
    const double ipc_fast = static_cast<double>(fast.instrsRetired()) /
                            fast.currentCycle();
    const double ipc_slow = static_cast<double>(slow.instrsRetired()) /
                            slow.currentCycle();
    EXPECT_GT(ipc_fast, 2.0 * ipc_slow);
}

TEST(Core, DependentLoadsSerialize)
{
    FakeMemory mem;
    mem.latency = 200;

    wl::GenParams dep_p;
    dep_p.mem_ratio = 0.5;
    dep_p.write_ratio = 0.0;
    dep_p.dep_ratio = 1.0;
    wl::GenParams ind_p = dep_p;
    ind_p.dep_ratio = 0.0;

    // StreamGen samples the dependence flag from GenParams (IrregularGen
    // would override it structurally), and its fresh lines always miss.
    Cache l1a(smallCache(), mem), l1b(smallCache(), mem);
    wl::StreamGen wd("d", 3, {.gen = dep_p, .streams = 1});
    wl::StreamGen wi("i", 3, {.gen = ind_p, .streams = 1});
    Core dep(CoreConfig{}, 0, l1a, wd);
    Core ind(CoreConfig{}, 0, l1b, wi);
    dep.runUntil(100000);
    ind.runUntil(100000);
    const double ipc_dep = static_cast<double>(dep.instrsRetired()) /
                           dep.currentCycle();
    const double ipc_ind = static_cast<double>(ind.instrsRetired()) /
                           ind.currentCycle();
    EXPECT_GT(ipc_ind, 1.5 * ipc_dep);
}

// -------------------------------------------------------------------- system

TEST(System, SingleCoreRunProducesIpc)
{
    SystemConfig cfg;
    std::vector<std::unique_ptr<wl::Workload>> w;
    w.push_back(wl::makeWorkload("470.lbm-164B"));
    System sys(cfg, std::move(w));
    sys.warmup(5000);
    const RunResult res = sys.run(20000);
    ASSERT_EQ(res.ipc.size(), 1u);
    EXPECT_GT(res.ipc[0], 0.0);
    EXPECT_LT(res.ipc[0], 4.0);
    EXPECT_GT(res.llc_demand_load_misses, 0u);
}

TEST(System, RunIsDeterministic)
{
    auto run_once = [] {
        SystemConfig cfg;
        std::vector<std::unique_ptr<wl::Workload>> w;
        w.push_back(wl::makeWorkload("482.sphinx3-417B"));
        System sys(cfg, std::move(w));
        sys.warmup(5000);
        return sys.run(20000);
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_DOUBLE_EQ(a.ipc_geomean, b.ipc_geomean);
    EXPECT_EQ(a.llc_demand_load_misses, b.llc_demand_load_misses);
}

TEST(System, MultiCoreContentionLowersPerCoreIpc)
{
    auto make = [](std::uint32_t cores) {
        SystemConfig cfg;
        cfg.num_cores = cores;
        // Do NOT scale channels: keep bandwidth fixed to see contention.
        std::vector<std::unique_ptr<wl::Workload>> w;
        for (std::uint32_t c = 0; c < cores; ++c)
            w.push_back(wl::makeWorkload("462.libquantum-1343B",
                                         0x1000 + c));
        return std::make_unique<System>(cfg, std::move(w));
    };
    auto one = make(1);
    one->warmup(3000);
    const double ipc1 = one->run(15000).ipc[0];
    auto four = make(4);
    four->warmup(3000);
    const double ipc4 = four->run(15000).ipc_geomean;
    EXPECT_LT(ipc4, ipc1);
}

TEST(System, PaperChannelScaling)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.applyPaperChannelScaling();
    EXPECT_EQ(cfg.dram.channels, 1u);
    cfg.num_cores = 4;
    cfg.applyPaperChannelScaling();
    EXPECT_EQ(cfg.dram.channels, 2u);
    cfg.num_cores = 12;
    cfg.applyPaperChannelScaling();
    EXPECT_EQ(cfg.dram.channels, 4u);
}

TEST(System, PrefetcherImprovesStreamingIpc)
{
    auto run_with = [](const char* pf) {
        SystemConfig cfg;
        std::vector<std::unique_ptr<wl::Workload>> w;
        w.push_back(wl::makeWorkload("462.libquantum-1343B"));
        System sys(cfg, std::move(w));
        if (auto built = makePrefetcher(pf))
            sys.attachL2Prefetcher(0, std::move(built));
        sys.warmup(20000);
        return sys.run(50000).ipc_geomean;
    };
    const double base = run_with("none");
    const double streamer = run_with("streamer");
    EXPECT_GT(streamer, 1.2 * base);
}

} // namespace
} // namespace pythia::sim
