#include "prefetchers/power7.hpp"

#include <algorithm>

#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<Power7Prefetcher>("power7", Power7Config{});

} // namespace

Power7Prefetcher::Power7Prefetcher(const Power7Config& cfg)
    : StatefulPrefetcher("power7", 1024), cfg_(cfg),
      streamer_(StreamerConfig{.degree = 4})
{
    checkKnobs(name(), cfg);
}

void
Power7Prefetcher::maybeRetune()
{
    if (issued_ < cfg_.epoch_prefetches)
        return;
    const double accuracy =
        used_ + wasted_ > 0
            ? static_cast<double>(used_) / (used_ + wasted_)
            : 1.0;
    std::uint32_t depth = streamer_.degree();
    // Accurate and bandwidth-cheap epochs ramp the depth up; inaccurate
    // or bandwidth-saturated epochs ramp it down.
    if (accuracy > 0.6 && !highBandwidth())
        depth = std::min(cfg_.max_depth, depth + 2);
    else if (accuracy < 0.4 || highBandwidth())
        depth = std::max(cfg_.min_depth, depth > 2 ? depth - 2 : 1);
    streamer_.setDegree(depth);
    issued_ = 0;
    used_ = 0;
    wasted_ = 0;
}

void
Power7Prefetcher::train(const PrefetchAccess& access,
                        std::vector<PrefetchRequest>& out)
{
    const std::size_t before = out.size();
    streamer_.train(access, out);
    issued_ += out.size() - before;
    maybeRetune();
}

void
Power7Prefetcher::onPrefetchUsed(Addr, bool)
{
    ++used_;
}

void
Power7Prefetcher::onPrefetchEvicted(Addr, bool used)
{
    if (!used)
        ++wasted_;
}

} // namespace pythia::pf
