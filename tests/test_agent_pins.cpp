/**
 * @file
 * Bit-exact pins of the Pythia agent across its configuration shapes
 * (ctest label: golden).
 *
 * The golden grid pins the default shape only. Each case here runs one
 * agent shape through a 1-core sim::System and pins three digests:
 *  - FNV-1a of every prefetch block the agent emitted, in order;
 *  - the bytes of the measured RunResult;
 *  - the agent's saveState() bytes at the end of the run.
 * The shapes are the edges the agent's per-demand kernels treat
 * specially: the three registered variants, EQ capacities 1 and 3
 * (evict on every insert, a non-power-of-two ring), degrees 1, 16 (all
 * of 16 actions) and 64 (more than the actions), action counts that are
 * not a multiple of the scan's block width, 8 features x 8 planes (64
 * plane rows, more than an EQ entry caches, so retirement re-hashes),
 * gamma=1 (an infinite optimistic Q, so Q-values reach inf and NaN) and
 * a save/load of the agent halfway through (restored EQ entries carry
 * no cached rows). A pin moves only with a deliberate change to the
 * agent's model; a speed-only change must leave every one in place.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/prefetcher_registry.hpp"
#include "sim/system.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/codec.hpp"
#include "workloads/suites.hpp"

namespace pythia {
namespace {

/** Forwards every hook to the agent and digests the blocks it emits. */
class Recorder : public sim::PrefetcherApi
{
  public:
    explicit Recorder(std::unique_ptr<sim::PrefetcherApi> agent)
        : agent_(std::move(agent))
    {
    }

    void train(const sim::PrefetchAccess& access,
               std::vector<sim::PrefetchRequest>& out) override
    {
        const std::size_t from = out.size();
        agent_->train(access, out);
        ++demands;
        for (std::size_t i = from; i < out.size(); ++i) {
            const Addr block = out[i].block;
            blocks_fnv = snap::fnv1a(&block, sizeof block, blocks_fnv);
            ++prefetches;
        }
    }
    void onFill(Addr block, Cycle at) override { agent_->onFill(block, at); }
    void onPrefetchUsed(Addr block, bool timely) override
    {
        agent_->onPrefetchUsed(block, timely);
    }
    void onPrefetchEvicted(Addr block, bool used) override
    {
        agent_->onPrefetchEvicted(block, used);
    }
    void setBandwidthInfo(const sim::BandwidthInfo* bw) override
    {
        agent_->setBandwidthInfo(bw);
    }
    const std::string& name() const override { return agent_->name(); }
    std::size_t storageBytes() const override
    {
        return agent_->storageBytes();
    }
    void saveState(snap::Writer& w) const override { agent_->saveState(w); }
    void loadState(snap::Reader& r) override { agent_->loadState(r); }

    std::uint64_t demands = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t blocks_fnv = snap::kFnvOffset;

  private:
    std::unique_ptr<sim::PrefetcherApi> agent_;
};

struct Pins
{
    std::uint64_t prefetches;
    std::uint64_t blocks_fnv;
    std::uint64_t result_fnv;
    std::uint64_t state_fnv;
};

struct Shape
{
    const char* spec;
    bool restore_halfway;
    Pins pins;
};

constexpr std::uint64_t kHalf = 25'000; ///< instructions per half

/** Warm @p shape up for kHalf instructions, optionally save and reload
 *  the agent, then measure kHalf more. */
Pins
runShape(const Shape& shape, std::uint64_t* demands)
{
    std::vector<std::unique_ptr<wl::Workload>> w;
    w.push_back(wl::makeWorkload("429.mcf-184B"));
    // A 600 MT/s bus, so the agent sees both bandwidth levels and every
    // variant's high-bandwidth rewards take part.
    sim::SystemConfig cfg;
    cfg.dram.mtps = 600;
    sim::System sys(cfg, std::move(w));
    auto owned = std::make_unique<Recorder>(sim::makePrefetcher(shape.spec));
    Recorder& rec = *owned;
    sys.attachL2Prefetcher(0, std::move(owned));

    sys.warmup(kHalf);
    if (shape.restore_halfway) {
        snap::Writer saved;
        rec.saveState(saved);
        snap::Reader r(saved.buffer().data(), saved.buffer().size());
        rec.loadState(r);
    }
    const sim::RunResult result = sys.run(kHalf);

    snap::Writer result_bytes;
    snap::save(result, result_bytes);
    snap::Writer state_bytes;
    rec.saveState(state_bytes);
    *demands = rec.demands;
    return {rec.prefetches, rec.blocks_fnv,
            snap::fnv1a(result_bytes.buffer().data(),
                        result_bytes.buffer().size()),
            snap::fnv1a(state_bytes.buffer().data(),
                        state_bytes.buffer().size())};
}

const Shape kShapes[] = {
    {"pythia", false,
     {4564, 0x6de7f42ea8953e54ull, 0x83677bd3abba0b8full, 0xe6c44503aa030737ull}},
    {"pythia_strict", false,
     {4593, 0xa4d35f574ddcbe20ull, 0x9b264611aa7ac8e8ull, 0xdcf3072fdc1ff3faull}},
    {"pythia_bwobl", false,
     {4797, 0xe7ea6511e219ad1full, 0x2a4b3aa1d1d47cb9ull, 0x3725d55616e51007ull}},
    {"pythia:eq_size=1", false,
     {3663, 0x14bd6a303bfffad1ull, 0x7217bfb51ca9c2dbull, 0x28b594c63dd131cbull}},
    {"pythia:eq_size=3", false,
     {3214, 0xdb4ba1ddd9bbcf69ull, 0xc8a13a42f7c6eb98ull, 0x9cd97958e973e677ull}},
    {"pythia:degree=1", false,
     {5079, 0x0854c59bec9f2bfdull, 0xa6b3e71cec4f656dull, 0x2ec1fc123cde70caull}},
    {"pythia:degree=16", false,
     {5560, 0x386f3708755a484dull, 0x9da8ec9deb414e12ull, 0x8e81b8191ea510efull}},
    {"pythia:degree=64", false,
     {5560, 0x386f3708755a484dull, 0x9da8ec9deb414e12ull, 0x8e81b8191ea510efull}},
    {"pythia:actions=0/1/3", false,
     {2520, 0xf123a89a98076958ull, 0x4b8d9cdb135888b2ull, 0xc269450270a73440ull}},
    {"pythia:features=PC.Delta/Last4Deltas/PC.Addr/Offset/"
     "PCPath3.Delta/PCxPrevPC.Offset/PageNum/Last4Offsets,planes=8",
     false,
     {13137, 0x7fdf95d187a36ba9ull, 0x12c7350d4ab1ea12ull, 0xf830ce1afe928b8eull}},
    {"pythia:gamma=1", false,
     {7877, 0x59ccc312ac3744d5ull, 0x7b434e77eef812a1ull, 0xc383b75cb8f31092ull}},
    {"pythia", true,
     {4564, 0x6de7f42ea8953e54ull, 0x83677bd3abba0b8full, 0xe6c44503aa030737ull}},
};

TEST(AgentPins, EveryShapeIsBitExact)
{
    for (const Shape& shape : kShapes) {
        const std::string what =
            std::string(shape.spec) +
            (shape.restore_halfway ? " (restored halfway)" : "");
        std::uint64_t demands = 0;
        const Pins got = runShape(shape, &demands);
        // Enough demands to fill and cycle the default 256-entry EQ.
        EXPECT_GT(demands, 4000u) << what;
        char actual[160];
        std::snprintf(actual, sizeof actual,
                      "{%llu, 0x%016llxull, 0x%016llxull, 0x%016llxull}",
                      static_cast<unsigned long long>(got.prefetches),
                      static_cast<unsigned long long>(got.blocks_fnv),
                      static_cast<unsigned long long>(got.result_fnv),
                      static_cast<unsigned long long>(got.state_fnv));
        EXPECT_TRUE(got.prefetches == shape.pins.prefetches &&
                    got.blocks_fnv == shape.pins.blocks_fnv &&
                    got.result_fnv == shape.pins.result_fnv &&
                    got.state_fnv == shape.pins.state_fnv)
            << what << " moved after " << demands << " demands: now "
            << actual;
    }
}

} // namespace
} // namespace pythia
