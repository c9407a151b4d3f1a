#include "core/configs.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/spec.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::rl {

namespace {

// Spec parameters override each variant's scaled defaults, so e.g.
// "pythia:alpha=0.0065" pins the paper's raw value. Basic config (Table
// 2), strict graph-suite rewards (paper §6.6.1) and the
// bandwidth-oblivious ablation (paper §6.3.3).
[[maybe_unused]] const sim::PrefetcherRegistrar variants[] = {
    sim::registerPrefetcher<PythiaPrefetcher>(
        "pythia", scaledForSimLength(basicPythiaConfig())),
    sim::registerPrefetcher<PythiaPrefetcher>(
        "pythia_strict", scaledForSimLength(strictPythiaConfig())),
    sim::registerPrefetcher<PythiaPrefetcher>(
        "pythia_bwobl", scaledForSimLength(bandwidthObliviousConfig()))};

} // namespace

void
parseKnob(const SpecParams& p, const std::string& key,
          std::vector<FeatureSpec>& features)
{
    if (!p.has(key))
        return;
    features.clear();
    // The appended '/' makes getline yield every entry, a trailing
    // empty one included.
    std::istringstream list(p.getString(key) + '/');
    for (std::string name; std::getline(list, name, '/');) {
        if (const auto spec = parseFeatureName(name)) {
            features.push_back(*spec);
            continue;
        }
        std::vector<std::string> accepted;
        for (const FeatureSpec& f : allFeatureSpecs())
            accepted.push_back(featureName(f, '.'));
        throw std::invalid_argument(
            p.owner() + ": parameter '" + key + "' names unknown feature '" +
            name + "'" + didYouMean(name, accepted) +
            " (accepted: " + joinKeys(accepted) + ")");
    }
}

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
