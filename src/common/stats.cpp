#include "common/stats.hpp"

#include <utility>

namespace pythia {

StatGroup::StatGroup(std::string name) : name_(std::move(name)) {}

void
StatGroup::inc(const std::string& key, std::uint64_t delta)
{
    counters_[key] += delta;
}

void
StatGroup::set(const std::string& key, double value)
{
    values_[key] = value;
}

std::uint64_t
StatGroup::counter(const std::string& key) const
{
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
}

double
StatGroup::value(const std::string& key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatGroup::has(const std::string& key) const
{
    return counters_.count(key) > 0 || values_.count(key) > 0;
}

void
StatGroup::reset()
{
    for (auto& [k, v] : counters_)
        v = 0;
    for (auto& [k, v] : values_)
        v = 0.0;
}

void
StatGroup::dump(std::ostream& os) const
{
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    for (const auto& [k, v] : counters_)
        os << prefix << k << " " << v << "\n";
    for (const auto& [k, v] : values_)
        os << prefix << k << " " << v << "\n";
}

} // namespace pythia
