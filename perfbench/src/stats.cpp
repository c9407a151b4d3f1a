#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "harness/perf.hpp"

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return pythia::harness::percentileSorted(samples, p);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return n - std::min(n, rank);
}

std::size_t
minSamplesFor(double p)
{
    std::size_t n = 1;
    while (!tailSupported(n, p))
        ++n;
    return n;
}

namespace {

bool
charsIn(const std::string& s, const std::string& extra)
{
    return std::all_of(s.begin(), s.end(), [&](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               extra.find(c) != std::string::npos;
    });
}

} // namespace

bool
validName(const std::string& name)
{
    return !name.empty() && name.size() <= 64 &&
           std::isalnum(static_cast<unsigned char>(name[0])) &&
           charsIn(name, "_.-");
}

bool
validUnit(const std::string& unit)
{
    return !unit.empty() && unit.size() <= 16 && charsIn(unit, "_/%.-");
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::map<std::string, Metric>& metrics)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        if (!validName(name))
            throw std::invalid_argument("invalid metric name '" + name +
                                        "'");
        if (!validUnit(m.unit))
            throw std::invalid_argument("invalid unit '" + m.unit +
                                        "' of metric " + name);
        if (!std::isfinite(m.value))
            throw std::invalid_argument("metric " + name +
                                        " is not finite");
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
