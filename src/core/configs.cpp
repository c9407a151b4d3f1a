#include "core/configs.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/spec.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::rl {

namespace {

/** The spec-string tunables of every Pythia variant: the state
 *  vector, the action list, the Table 2 hyperparameters and the seven
 *  reward levels of §3.1 — the paper's "configuration registers",
 *  settable per run without recompiling. */
const std::vector<std::string> kPythiaParamKeys = {
    "features",  "actions",   "alpha",    "gamma",     "epsilon",
    "degree",    "eq_size",   "planes",   "plane_index_bits",
    "seed",      "r_at",      "r_al",     "r_cl",      "r_in_high",
    "r_in_low",  "r_np_high", "r_np_low"};

/** "features=PC.Delta/Last4Deltas": a '/'-list of featureName(f, '.')
 *  spellings. */
std::vector<FeatureSpec>
getFeatures(const sim::PrefetcherParams& p, std::vector<FeatureSpec> dflt)
{
    if (!p.has("features"))
        return dflt;
    std::vector<FeatureSpec> out;
    // The appended '/' makes getline yield every entry, a trailing
    // empty one included.
    std::istringstream list(p.getString("features") + '/');
    for (std::string name; std::getline(list, name, '/');) {
        if (const auto spec = parseFeatureName(name)) {
            out.push_back(*spec);
            continue;
        }
        std::vector<std::string> accepted;
        for (const FeatureSpec& f : allFeatureSpecs())
            accepted.push_back(featureName(f, '.'));
        throw std::invalid_argument(
            p.owner() + ": parameter 'features' names unknown feature '" +
            name + "'" + didYouMean(name, accepted) +
            " (accepted: " + joinKeys(accepted) + ")");
    }
    return out;
}

PythiaConfig
applyParams(PythiaConfig cfg, const sim::PrefetcherParams& p)
{
    cfg.features = getFeatures(p, std::move(cfg.features));
    cfg.actions = p.getI32List("actions", cfg.actions);
    cfg.alpha = p.getDouble("alpha", cfg.alpha);
    cfg.gamma = p.getDouble("gamma", cfg.gamma);
    cfg.epsilon = p.getDouble("epsilon", cfg.epsilon);
    cfg.degree = p.getU32("degree", cfg.degree);
    cfg.eq_size = p.getU64("eq_size", cfg.eq_size);
    cfg.planes = p.getU32("planes", cfg.planes);
    cfg.plane_index_bits =
        p.getU32("plane_index_bits", cfg.plane_index_bits);
    cfg.seed = p.getU64("seed", cfg.seed);
    cfg.rewards.r_at = p.getDouble("r_at", cfg.rewards.r_at);
    cfg.rewards.r_al = p.getDouble("r_al", cfg.rewards.r_al);
    cfg.rewards.r_cl = p.getDouble("r_cl", cfg.rewards.r_cl);
    cfg.rewards.r_in_high =
        p.getDouble("r_in_high", cfg.rewards.r_in_high);
    cfg.rewards.r_in_low = p.getDouble("r_in_low", cfg.rewards.r_in_low);
    cfg.rewards.r_np_high =
        p.getDouble("r_np_high", cfg.rewards.r_np_high);
    cfg.rewards.r_np_low = p.getDouble("r_np_low", cfg.rewards.r_np_low);
    return cfg;
}

sim::PrefetcherEntry
pythiaEntry(std::string name, PythiaConfig (*base)())
{
    return {std::move(name), kPythiaParamKeys,
            [base](const sim::PrefetcherParams& p) {
                // Parameters override the scaled defaults, so e.g.
                // "pythia:alpha=0.0065" pins the paper's raw value.
                return std::make_unique<PythiaPrefetcher>(
                    applyParams(scaledForSimLength(base()), p));
            }};
}

struct PythiaRegistrar
{
    PythiaRegistrar()
    {
        auto& registry = sim::PrefetcherRegistry::instance();
        // Basic config (Table 2).
        registry.add(pythiaEntry("pythia", &basicPythiaConfig));
        // Strict graph-suite rewards (paper §6.6.1).
        registry.add(pythiaEntry("pythia_strict", &strictPythiaConfig));
        // Bandwidth-oblivious ablation (paper §6.3.3).
        registry.add(pythiaEntry("pythia_bwobl", &bandwidthObliviousConfig));
    }
};

[[maybe_unused]] const PythiaRegistrar pythia_registrar;

} // namespace

PythiaConfig
basicPythiaConfig()
{
    return PythiaConfig{};
}

PythiaConfig
strictPythiaConfig()
{
    PythiaConfig cfg;
    cfg.name = "pythia_strict";
    cfg.rewards.r_in_high = -22.0;
    cfg.rewards.r_in_low = -20.0;
    cfg.rewards.r_np_high = 0.0;
    cfg.rewards.r_np_low = 0.0;
    return cfg;
}

PythiaConfig
bandwidthObliviousConfig()
{
    PythiaConfig cfg;
    cfg.name = "pythia_bwobl";
    cfg.rewards.r_in_high = -8.0;
    cfg.rewards.r_in_low = -8.0;
    cfg.rewards.r_np_high = -4.0;
    cfg.rewards.r_np_low = -4.0;
    return cfg;
}

PythiaConfig
scaledForSimLength(PythiaConfig cfg)
{
    cfg.alpha = 0.20;
    cfg.epsilon = 0.05;
    cfg.degree = 3;
    return cfg;
}

} // namespace pythia::rl
