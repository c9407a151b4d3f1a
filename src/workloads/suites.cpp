#include "workloads/suites.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/hashing.hpp"
#include "common/spec.hpp"

namespace pythia::wl {

namespace {

/// Deterministic per-name seed: same workload name => same trace.
std::uint64_t
nameSeed(const std::string& name)
{
    std::uint64_t h = 0xB16B00B5ull;
    for (char c : name)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    return h | 1;
}

/**
 * The catalog's shared GenParams spelling. The catalog expresses
 * *relative* memory intensity; @p half_ratio is the absolute
 * mem_ratio with the 0.5x scaling already applied (so the no-prefetch
 * baseline is latency-bound rather than bus-saturated — prefetching
 * then pays off by hiding latency, as on the paper's systems, while
 * the low-MTPS sweeps of Fig. 8(b) still drive the bus into
 * saturation). dep_ratio 0.45 throughout; footprint only when it
 * departs from the family default of 64M.
 */
std::string
mp(const std::string& half_ratio, unsigned footprint_mb = 64)
{
    std::string s = "mem_ratio=" + half_ratio + ",dep_ratio=0.45";
    if (footprint_mb != 64)
        s += ",footprint=" + std::to_string(footprint_mb) + "M";
    return s;
}

/// Cloudsuite-like phase mix of spatial + irregular + stream. Child
/// seeds derive as mix64(seed ^ (i+1)) inside the registry's phase
/// factory, matching the historical makeCloudMix() construction.
std::string
cloudMix(const std::string& irr_frac, std::size_t phase_len)
{
    std::string at = "@";
    at += std::to_string(phase_len);
    std::string s = "phase:spatial:patterns=8,density=0.3,";
    s += mp("0.15");
    s += at;
    s += "+irregular:stride_fraction=";
    s += irr_frac;
    s += ",";
    s += mp("0.15");
    s += at;
    s += "+stream:streams=2,";
    s += mp("0.125");
    s += at;
    return s;
}

std::vector<WorkloadSpec>
buildCatalog()
{
    std::vector<WorkloadSpec> v;

    // ---- SPEC06-like -----------------------------------------------------
    v.push_back({"482.sphinx3-417B", "SPEC06",
                 "spatial:patterns=6,density=0.35," + mp("0.15")});
    v.push_back({"459.GemsFDTD-765B", "SPEC06",
                 "delta:deltas=1/2/1/3," + mp("0.16")});
    v.push_back({"459.GemsFDTD-1320B", "SPEC06",
                 "casestudy:" + mp("0.16")});
    v.push_back({"429.mcf-184B", "SPEC06",
                 "irregular:stride_fraction=0.15," + mp("0.165", 96)});
    v.push_back({"462.libquantum-1343B", "SPEC06",
                 "stream:streams=1," + mp("0.175")});
    v.push_back({"470.lbm-164B", "SPEC06",
                 "stride:strides=2/3," + mp("0.165")});
    v.push_back({"410.bwaves-945B", "SPEC06",
                 "stream:streams=8," + mp("0.165")});
    v.push_back({"433.milc-127B", "SPEC06",
                 "delta:deltas=2/3/2/5," + mp("0.15")});

    // ---- SPEC17-like -----------------------------------------------------
    v.push_back({"603.bwaves_s-2931B", "SPEC17",
                 "stream:streams=6," + mp("0.18")});
    v.push_back({"605.mcf_s-665B", "SPEC17",
                 "irregular:stride_fraction=0.2," + mp("0.16", 96)});
    v.push_back({"619.lbm_s-4268B", "SPEC17",
                 "stride:strides=3/5," + mp("0.17")});
    v.push_back({"654.roms_s-842B", "SPEC17",
                 "delta:deltas=1/1/2/4," + mp("0.15")});
    v.push_back({"623.xalancbmk_s-592B", "SPEC17",
                 "irregular:stride_fraction=0.45," + mp("0.14", 32)});
    v.push_back({"602.gcc_s-734B", "SPEC17", cloudMix("0.35", 8000)});

    // ---- PARSEC-like -----------------------------------------------------
    v.push_back({"PARSEC-Canneal", "PARSEC",
                 "spatial:patterns=8,density=0.45," + mp("0.15")});
    v.push_back({"PARSEC-Facesim", "PARSEC",
                 "spatial:patterns=5,density=0.5," + mp("0.14")});
    v.push_back({"PARSEC-Streamcluster", "PARSEC",
                 "stream:streams=3," + mp("0.165")});
    v.push_back({"PARSEC-Raytrace", "PARSEC",
                 "irregular:stride_fraction=0.3," + mp("0.13", 48)});
    v.push_back({"PARSEC-Fluidanimate", "PARSEC",
                 "stride:strides=1/2/6," + mp("0.15")});

    // ---- Ligra-like (bandwidth hungry graph processing) -------------------
    struct GraphCfg
    {
        const char* name;
        const char* deg;
        const char* irr;
        const char* half_mr; // memParams() intensity, pre-halved
    };
    const GraphCfg graphs[] = {
        {"Ligra-PageRank",      "16", "0.7",  "0.21"},
        {"Ligra-PageRankDelta", "12", "0.75", "0.2"},
        {"Ligra-CC",            "10", "0.8",  "0.21"},
        {"Ligra-BFS",            "6", "0.85", "0.19"},
        {"Ligra-BC",             "8", "0.8",  "0.2"},
        {"Ligra-BellmanFord",   "10", "0.75", "0.2"},
        {"Ligra-Triangle",      "20", "0.65", "0.21"},
        {"Ligra-Radii",          "8", "0.8",  "0.19"},
        {"Ligra-MIS",            "6", "0.85", "0.18"},
        {"Ligra-BFSCC",          "6", "0.85", "0.19"},
    };
    for (const auto& g : graphs)
        v.push_back({g.name, "Ligra",
                     std::string("graph:degree=") + g.deg +
                         ",irregularity=" + g.irr + "," +
                         mp(g.half_mr, 96)});

    // ---- Cloudsuite-like ---------------------------------------------------
    v.push_back({"Cloudsuite-Cassandra", "Cloudsuite",
                 cloudMix("0.3", 12000)});
    v.push_back({"Cloudsuite-Cloud9", "Cloudsuite",
                 cloudMix("0.4", 6000)});
    v.push_back({"Cloudsuite-Nutch", "Cloudsuite",
                 cloudMix("0.25", 9000)});
    v.push_back({"Cloudsuite-Classification", "Cloudsuite",
                 cloudMix("0.35", 15000)});

    return v;
}

std::vector<WorkloadSpec>
buildUnseenCatalog()
{
    // Held-out seeds and parameter draws never used anywhere else — the
    // moral equivalent of the CVP-2 traces of §6.4.
    std::vector<WorkloadSpec> v;
    v.push_back({"crypto-aes-17", "Crypto",
                 "stride:strides=1/1/4," + mp("0.125")});
    v.push_back({"crypto-sha-5", "Crypto",
                 "stream:streams=2," + mp("0.14")});
    v.push_back({"int-41", "INT", cloudMix("0.3", 7000)});
    v.push_back({"int-112", "INT",
                 "irregular:stride_fraction=0.35," + mp("0.15", 48)});
    v.push_back({"fp-23", "FP", "delta:deltas=1/3/1/5," + mp("0.165")});
    v.push_back({"fp-77", "FP", "stream:streams=5," + mp("0.17")});
    v.push_back({"srv-9", "Server",
                 "graph:degree=9,irregularity=0.75," + mp("0.19", 96)});
    v.push_back({"srv-62", "Server", cloudMix("0.45", 10000)});
    return v;
}

/** Candidate list for "did you mean": every catalog name (main +
 *  unseen) plus every registry family. */
std::vector<std::string>
suggestionCandidates()
{
    std::vector<std::string> out;
    for (const auto& w : allWorkloads())
        out.push_back(w.name);
    for (const auto& w : unseenWorkloads())
        out.push_back(w.name);
    for (const auto& f : workloadFamilyNames())
        out.push_back(f);
    return out;
}

} // namespace

namespace {

/// Store alias specs canonically (sorted key order) — names and
/// baseline keys then never depend on how suites.cpp spelled them —
/// and validate every alias against the registry on first use.
std::vector<WorkloadSpec>
canonicalized(std::vector<WorkloadSpec> v)
{
    for (auto& w : v)
        w.spec = WorkloadRegistry::instance().canonical(w.spec);
    return v;
}

} // namespace

const std::vector<WorkloadSpec>&
allWorkloads()
{
    static const std::vector<WorkloadSpec> catalog =
        canonicalized(buildCatalog());
    return catalog;
}

const std::vector<WorkloadSpec>&
unseenWorkloads()
{
    static const std::vector<WorkloadSpec> catalog =
        canonicalized(buildUnseenCatalog());
    return catalog;
}

const std::vector<std::string>&
suiteNames()
{
    static const std::vector<std::string> names = {
        "SPEC06", "SPEC17", "PARSEC", "Ligra", "Cloudsuite"};
    return names;
}

std::vector<const WorkloadSpec*>
suiteWorkloads(const std::string& suite)
{
    std::vector<const WorkloadSpec*> out;
    for (const auto& w : allWorkloads())
        if (w.suite == suite)
            out.push_back(&w);
    return out;
}

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const auto& w : allWorkloads())
        if (w.name == name)
            return &w;
    for (const auto& w : unseenWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed_override)
{
    // Catalog alias: the paper-style name carries its deterministic
    // seed and display name; the construction itself goes through the
    // registry, so aliases and raw specs share one path.
    if (const WorkloadSpec* alias = findWorkload(name))
        return WorkloadRegistry::instance().make(
            alias->spec, seed_override ? seed_override : nameSeed(name),
            alias->name);

    // Raw registry spec? Decide by whether the family token resolves,
    // so spec-shaped inputs get the registry's precise parameter
    // diagnostics while bare unknown names get catalog suggestions.
    auto& registry = WorkloadRegistry::instance();
    std::string family = name.substr(0, name.find(':'));
    std::transform(family.begin(), family.end(), family.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    if (name.find(':') != std::string::npos ||
        family == "phase" || registry.find(family) != nullptr) {
        const std::string canon = registry.canonical(name);
        return registry.make(
            name, seed_override ? seed_override : nameSeed(canon));
    }

    throw std::invalid_argument(
        "unknown workload '" + name + "'" +
        didYouMean(name, suggestionCandidates()) +
        " (catalog names: " + std::to_string(allWorkloads().size()) +
        " main + " + std::to_string(unseenWorkloads().size()) +
        " unseen, see wl::allWorkloads(); families: " +
        joinKeys(workloadFamilyNames()) + ")");
}

std::string
canonicalWorkloadSpec(const std::string& name)
{
    if (findWorkload(name))
        return name;
    try {
        return WorkloadRegistry::instance().canonical(name);
    } catch (const std::exception&) {
        return name; // not a valid spec; fails at makeWorkload time
    }
}

} // namespace pythia::wl
