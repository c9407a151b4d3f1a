/**
 * @file
 * Sample statistics and result-line helpers of the benchmark.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile (p in (0,100]) of @p samples; 0 if empty. */
double percentile(std::vector<double> samples, double p);

/** Median as the nearest-rank 50th percentile. */
inline double
median(const std::vector<double>& samples)
{
    return percentile(samples, 50);
}

/** Samples strictly above the nearest-rank @p p-th percentile of @p n
 *  samples (n - ceil(p/100 * n)). */
std::size_t samplesBeyond(std::size_t n, double p);

/** True when @p n samples leave at least ten beyond percentile @p p,
 *  the rule for reporting a tail percentile. */
inline bool
tailSupported(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

/** Fewest samples for which tailSupported(n, p) holds. */
std::size_t minSamplesFor(double p);

/** A metric or workload name: starts with a letter or digit, at most
 *  64 of [A-Za-z0-9_.-]. */
bool validName(const std::string& name);

/** A unit: 1 to 16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string& unit);

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: one JSON object with exactly the keys correct,
 * attempted, failed and metrics. Values print with 17 significant
 * digits. @throws std::invalid_argument on an invalid name or unit.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

} // namespace perfbench
