#include "harness/timeseries.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace pythia::harness {

void
TimeSeries::onWindowEnd(SimSession& session, const WindowSample& w)
{
    (void)session;
    samples_.push_back(w);
}

void
TimeSeries::append(WindowSample sample)
{
    samples_.push_back(std::move(sample));
}

const sim::RunResult&
TimeSeries::finalResult() const
{
    if (samples_.empty())
        throw std::logic_error("TimeSeries::finalResult(): no samples");
    return samples_.back().cumulative;
}

sim::RunResult
TimeSeries::composeRange(std::uint64_t instrs_begin,
                         std::uint64_t instrs_end) const
{
    if (instrs_end <= instrs_begin)
        throw std::invalid_argument(
            "TimeSeries::composeRange: empty range");
    sim::RunResult acc;
    std::uint64_t cursor = instrs_begin;
    for (const WindowSample& w : samples_) {
        if (w.instrs_end <= instrs_begin)
            continue;
        if (w.instrs_begin != cursor)
            break; // misaligned start or gap — fall through to throw
        accumulateDelta(acc, w.delta);
        cursor = w.instrs_end;
        if (cursor == instrs_end)
            return acc;
        if (cursor > instrs_end)
            break; // range ends inside this window
    }
    throw std::invalid_argument(
        "TimeSeries::composeRange: [" + std::to_string(instrs_begin) +
        ", " + std::to_string(instrs_end) +
        ") does not align with recorded window boundaries");
}

const char*
TimeSeries::csvHeader()
{
    return "window,instrs_begin,instrs_end,ipc_geomean,cum_ipc_geomean,"
           "llc_demand_load_misses,llc_read_misses,prefetch_issued,"
           "prefetch_useful,prefetch_useless,prefetch_late,accuracy,"
           "cum_accuracy,dram_utilization";
}

std::string
TimeSeries::csvRow(const WindowSample& w)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%zu,%" PRIu64 ",%" PRIu64 ",%.6g,%.6g,%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.6g,%.6g,%.6g",
        w.index, w.instrs_begin, w.instrs_end, w.delta.ipc_geomean,
        w.cumulative.ipc_geomean, w.delta.llc_demand_load_misses,
        w.delta.llc_read_misses, w.delta.prefetch_issued,
        w.delta.prefetch_useful, w.delta.prefetch_useless,
        w.delta.prefetch_late, w.delta.accuracy(),
        w.cumulative.accuracy(), w.delta.dram_utilization);
    return buf;
}

void
TimeSeries::writeCsv(std::ostream& os) const
{
    os << csvHeader() << "\n";
    for (const WindowSample& w : samples_)
        os << csvRow(w) << "\n";
}

bool
TimeSeries::writeCsv(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeCsv(f);
    return static_cast<bool>(f);
}

} // namespace pythia::harness
