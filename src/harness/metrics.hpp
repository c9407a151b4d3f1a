/**
 * @file
 * Metric definitions of the paper's artifact appendix (§A.6):
 *   Perf_X          = IPC_X / IPC_nopref
 *   Coverage_X      = (LLCloadmiss_nopref - LLCloadmiss_X)
 *                     / LLCloadmiss_nopref
 *   Overprediction_X = (LLCreadmiss_X - LLCreadmiss_nopref)
 *                     / LLCreadmiss_nopref
 * all measured at the LLC - main-memory boundary.
 *
 * Zero-denominator conventions (pinned by tests/test_session.cpp):
 *   - speedup: 1.0 when the baseline geomean IPC is 0 (an empty or
 *     degenerate baseline neither speeds up nor slows down a run).
 *   - coverage: 0.0 when the baseline had no demand load misses —
 *     there was nothing to cover.
 *   - overprediction: 0.0 when the baseline had no read misses, and
 *     clamped to 0.0 from below when prefetching *reduced* total reads
 *     (negative overprediction is reported as coverage, not here).
 *   - accuracy: RunResult::accuracy() — 1.0 when nothing was issued,
 *     clamped to 1.0 from above (warmup-issued prefetches can turn
 *     useful inside the measured window).
 */
#pragma once

#include "harness/timeseries.hpp"
#include "sim/system.hpp"

namespace pythia::harness {

/** Derived per-run metrics relative to the no-prefetching baseline. */
struct Metrics
{
    double speedup = 1.0;        ///< geomean IPC ratio vs baseline
    double coverage = 0.0;       ///< fraction of baseline misses removed
    double overprediction = 0.0; ///< extra memory reads vs baseline
    double accuracy = 1.0;       ///< useful / issued prefetches

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.speedup, self.coverage, self.overprediction, self.accuracy);
    }
};

/** Compute the paper's metrics from a prefetched and a baseline run. */
Metrics computeMetrics(const sim::RunResult& with_pf,
                       const sim::RunResult& baseline) noexcept;

/**
 * Windowed overload: the paper's metrics for ONE streamed window,
 * computed delta-against-delta from a prefetched and a baseline sample
 * taken over the same instruction window (see
 * Runner::evaluateWindowed, which aligns the two series). The
 * zero-denominator conventions above apply per window — e.g. a window
 * in which the baseline happened to miss nothing reports coverage 0.
 */
Metrics computeMetrics(const WindowSample& with_pf,
                       const WindowSample& baseline) noexcept;

/**
 * Per-window metric trajectory of a full streamed run: element i is
 * computeMetrics(run[i], baseline[i]). Throws std::invalid_argument
 * when the two series' window boundaries do not align.
 */
std::vector<Metrics> computeWindowedMetrics(const TimeSeries& with_pf,
                                            const TimeSeries& baseline);

} // namespace pythia::harness
