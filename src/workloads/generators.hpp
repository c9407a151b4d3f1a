/**
 * @file
 * Synthetic workload generators standing in for the paper's SPEC / PARSEC /
 * Ligra / Cloudsuite traces.
 *
 * Each generator reproduces one *pattern class* that the paper's evaluation
 * hinges on (see DESIGN.md §4):
 *  - StreamGen        : monotonic streams (libquantum/bwaves-like); favours
 *                       streamer/Bingo-style full-page prefetching.
 *  - StrideGen        : constant per-PC strides (lbm-like); favours stride.
 *  - SpatialRegionGen : recurring region footprints triggered by the first
 *                       access (sphinx3/canneal/facesim-like); favours
 *                       Bingo/SMS.
 *  - DeltaChainGen    : repeating in-page delta sequences (GemsFDTD-like);
 *                       favours SPP's delta-history lookahead.
 *  - IrregularGen     : pointer-chasing over a large footprint (mcf-like);
 *                       punishes overprediction.
 *  - GraphGen         : CSR-style frontier processing mixing sequential
 *                       offset scans with irregular neighbour loads under
 *                       high bandwidth demand (Ligra-like).
 *  - MixedPhaseGen    : phase-alternating composite (Cloudsuite-like).
 *  - CaseStudyGen     : the exact "+23 / +11 after first page access"
 *                       behaviour dissected in the paper's §6.5 case study.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "workloads/trace.hpp"

namespace pythia::wl {

/** The generator families' range rules. */
inline constexpr Bound<double> kFraction{0.0, 1.0};             // [0, 1]
inline constexpr Bound<double> kPositiveFraction{0.0, 1.0, true}; // (0, 1]
inline constexpr Bound<std::uint32_t> kPositive{0, UINT32_MAX, true};
inline constexpr ByteSize kCacheline{
    {"at least one cacheline (64 bytes)",
     [](const std::uint64_t& bytes) { return bytes >= kBlockSize; }}};

/**
 * Shared knobs for all generators.
 *
 * @c mem_ratio controls memory intensity: the average number of non-memory
 * instructions between memory accesses is (1 - mem_ratio) / mem_ratio. The
 * paper only evaluates memory-intensive traces (>= 3 LLC MPKI); defaults
 * here are chosen to keep every generator memory-intensive.
 */
struct GenParams
{
    double mem_ratio = 0.30;       ///< fraction of instrs that touch memory
    double write_ratio = 0.10;     ///< fraction of memory ops that are stores
    /** Fraction of loads whose address depends on the previous load's
     *  data. Regular numeric kernels sit near 0.2-0.3; pointer chasing
     *  near 0.9. Controls how latency-bound the workload is. */
    double dep_ratio = 0.25;
    std::uint64_t footprint_bytes = 64ull << 20; ///< addressable working set

    /** The spec keys every family declares (common/knobs.hpp). Only
     *  irregular and graph read the footprint, so only they declare it. */
    template <class Self, class Ar>
    static void knobs(Self& g, Ar& ar)
    {
        ar("mem_ratio", g.mem_ratio, kPositiveFraction);
        ar("write_ratio", g.write_ratio, kFraction);
        ar("dep_ratio", g.dep_ratio, kFraction);
    }
};

/** Base class factoring the gap/store sampling shared by all generators. */
class GenBase : public Workload
{
  public:
    GenBase(std::string name, std::uint64_t seed, GenParams params);

    const std::string& name() const override { return name_; }
    void reset() override;

    /** Seed this generator was constructed with. */
    std::uint64_t seed() const { return seed_; }

  protected:
    /** Derived classes rebuild their pattern state here on reset(). */
    virtual void resetState() = 0;

    /** Wrap a byte address into a finished record with sampled gap/store. */
    TraceRecord emit(Addr pc, Addr addr);

    /** Force the next emitted record to be a load (for trigger accesses). */
    TraceRecord emitLoad(Addr pc, Addr addr);

    Rng& rng() { return rng_; }

  private:
    std::string name_;
    std::uint64_t seed_;
    GenParams params_;
    Rng rng_;
};

/**
 * A generator family over its Config: the constructor runs the knobs'
 * range check (common/knobs.hpp), the one check a spec string and a
 * direct caller share, and clone() rebuilds from the kept config.
 */
template <class Gen, class ConfigT>
class FamilyGen : public GenBase
{
  public:
    using Config = ConfigT;

    FamilyGen(const char* family, std::string name, std::uint64_t seed,
              const Config& cfg)
        : GenBase(std::move(name), seed, checkKnobs(family, cfg).gen),
          cfg_(cfg)
    {
    }

    std::unique_ptr<Workload> clone(std::uint64_t reseed) const override
    {
        return std::make_unique<Gen>(name(), reseed ? reseed : seed(), cfg_);
    }

  protected:
    Config cfg_;
};

struct StreamConfig
{
    GenParams gen;
    std::uint32_t streams = 4; ///< concurrently-advancing streams
    double backwards = 0.0;    ///< fraction of streams that descend

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("streams", c.streams, kPositive);
        ar("backwards", c.backwards, kFraction);
        GenParams::knobs(c.gen, ar);
    }
};

/** Monotonic multi-stream generator. */
class StreamGen : public FamilyGen<StreamGen, StreamConfig>
{
  public:
    StreamGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    struct Stream { Addr pc; Addr line; std::int32_t dir; };
    std::vector<Stream> streams_;
};

struct StrideConfig
{
    GenParams gen;
    /** Stride (in cachelines) of each simulated load PC. */
    std::vector<std::int32_t> strides = {2, 3, 5, 7};

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("strides", c.strides,
           Pred<std::vector<std::int32_t>>{
               "a non-empty list (e.g. 2/3/5)",
               [](const std::vector<std::int32_t>& s) { return !s.empty(); }});
        GenParams::knobs(c.gen, ar);
    }
};

/** Constant per-PC stride generator. */
class StrideGen : public FamilyGen<StrideGen, StrideConfig>
{
  public:
    StrideGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    struct Walker { Addr pc; Addr line; std::int32_t stride; };
    std::vector<Walker> walkers_;
};

struct SpatialConfig
{
    GenParams gen;
    /** Distinct footprint patterns (keyed by trigger PC). */
    std::uint32_t patterns = 6;
    /** Fraction of the 64 lines of a region each footprint touches. */
    double density = 0.4;
    /** Region visits in flight at once; interleaving gives prefetchers
     *  timeliness headroom, like the multiple live data structures of
     *  real workloads. */
    std::uint32_t concurrency = 4;

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("patterns", c.patterns, kPositive);
        ar("density", c.density, kPositiveFraction);
        ar("concurrency", c.concurrency, kPositive);
        GenParams::knobs(c.gen, ar);
    }
};

/** Recurring region-footprint generator (SMS/Bingo-friendly). */
class SpatialRegionGen : public FamilyGen<SpatialRegionGen, SpatialConfig>
{
  public:
    SpatialRegionGen(std::string name, std::uint64_t seed,
                     const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    struct Visit
    {
        Addr page = 0;
        unsigned pattern = 0;
        std::size_t cursor = 0;
    };

    void startRegion(Visit& v);

    std::vector<std::vector<std::uint8_t>> patterns_; ///< offsets per pattern
    std::vector<Visit> visits_;
    std::size_t active_visit_ = 0;
    unsigned burst_left_ = 0;
};

struct DeltaConfig
{
    GenParams gen;
    /** Repeating delta pattern, in cachelines. */
    std::vector<std::int32_t> deltas = {1, 2, 1, 3};

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("deltas", c.deltas,
           Pred<std::vector<std::int32_t>>{
               "all > 0", [](const std::vector<std::int32_t>& d) {
                   return !d.empty() &&
                          std::all_of(d.begin(), d.end(),
                                      [](std::int32_t x) { return x > 0; });
               }});
        GenParams::knobs(c.gen, ar);
    }
};

/** Repeating in-page delta-sequence generator (SPP-friendly). */
class DeltaChainGen : public FamilyGen<DeltaChainGen, DeltaConfig>
{
  public:
    DeltaChainGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    Addr page_ = 0;
    std::int32_t offset_ = 0;
    std::size_t delta_idx_ = 0;
};

struct IrregularConfig
{
    GenParams gen;
    /** Fraction of accesses that come from a regular auxiliary loop
     *  (index arrays etc.). */
    double stride_fraction = 0.2;

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("stride_fraction", c.stride_fraction, kFraction);
        ar("footprint", c.gen.footprint_bytes, kCacheline);
        GenParams::knobs(c.gen, ar);
    }
};

/** Pointer-chasing generator with no learnable pattern (mcf-like). */
class IrregularGen : public FamilyGen<IrregularGen, IrregularConfig>
{
  public:
    IrregularGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    std::uint64_t chase_state_ = 0;
    Addr aux_line_ = 0;
};

struct GraphConfig
{
    GenParams gen;
    /** Average edges scanned per visited vertex. */
    std::uint32_t degree = 8;
    /** Fraction of per-edge data loads that land on a random vertex (vs.
     *  a nearby one). */
    double irregularity = 0.8;

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("degree", c.degree, kPositive);
        ar("irregularity", c.irregularity, kFraction);
        ar("footprint", c.gen.footprint_bytes, kCacheline);
        GenParams::knobs(c.gen, ar);
    }
};

/** CSR graph-processing generator (Ligra-like, bandwidth hungry). */
class GraphGen : public FamilyGen<GraphGen, GraphConfig>
{
  public:
    GraphGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

  protected:
    void resetState() override;

  private:
    Addr offsets_line_ = 0;   ///< sequential scan of the CSR offsets array
    Addr edges_line_ = 0;     ///< sequential scan of the CSR edges array
    unsigned edges_left_ = 0; ///< edges remaining for the current vertex
    unsigned phase_ = 0;      ///< rotates offsets -> edges -> data loads
};

/** Phase-alternating composite generator (Cloudsuite-like). */
class MixedPhaseGen : public GenBase
{
  public:
    /**
     * Rotate through @p children; child i emits @p phase_lens[i]
     * records per rotation (the registry's "phase:stream@40+graph@60"
     * form).
     * @pre phase_lens.size() == children.size(), all entries > 0.
     */
    MixedPhaseGen(std::string name, std::uint64_t seed,
                  std::vector<std::unique_ptr<Workload>> children,
                  std::vector<std::size_t> phase_lens);

    TraceRecord next() override;
    std::unique_ptr<Workload> clone(std::uint64_t reseed) const override;

  protected:
    void resetState() override;

  private:
    std::vector<std::unique_ptr<Workload>> children_;
    std::vector<std::size_t> phase_lens_; ///< records per phase, per child
    std::size_t emitted_ = 0;
    std::size_t active_ = 0;
};

struct CaseStudyConfig
{
    GenParams gen;

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        GenParams::knobs(c.gen, ar);
    }
};

/** The §6.5 case-study pattern: first access to a page at a known PC is
 *  followed by exactly one more access +23 (or +11) lines ahead. */
class CaseStudyGen : public FamilyGen<CaseStudyGen, CaseStudyConfig>
{
  public:
    CaseStudyGen(std::string name, std::uint64_t seed, const Config& cfg);

    TraceRecord next() override;

    /** Trigger PC whose pages get a +23 companion access. */
    static constexpr Addr kPc23 = 0x436a81;
    /** Trigger PC whose pages get a +11 companion access. */
    static constexpr Addr kPc11 = 0x4377c5;

  protected:
    void resetState() override;

  private:
    Addr page_ = 0;
    int stage_ = 0;       ///< 0 = trigger access, 1 = companion access
    bool use_23_ = true;  ///< alternates between the two trigger PCs
};

} // namespace pythia::wl
