#include "common/stats.hpp"

#include <utility>

#include "snapshot/codec.hpp"

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
StatGroup::saveState(snap::Writer& w) const
{
    // std::map iterates in sorted key order, so identical statistics
    // always serialize to identical bytes (snapshot diffing depends on
    // byte-stable encodings).
    w.u64(counters_.size());
    for (const auto& [k, v] : counters_) {
        w.str(k);
        w.u64(v);
    }
    w.u64(values_.size());
    for (const auto& [k, v] : values_) {
        w.str(k);
        w.f64(v);
    }
}

void
StatGroup::loadState(snap::Reader& r)
{
    reset();
    const std::uint64_t n_counters = r.u64();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
        const std::string k = r.str();
        counters_[k] = r.u64();
    }
    const std::uint64_t n_values = r.u64();
    for (std::uint64_t i = 0; i < n_values; ++i) {
        const std::string k = r.str();
        values_[k] = r.f64();
    }
}

void
StatGroup::copyStateFrom(const StatGroup& other)
{
    reset();
    for (const auto& [k, v] : other.counters_)
        counters_[k] = v;
    for (const auto& [k, v] : other.values_)
        values_[k] = v;
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
