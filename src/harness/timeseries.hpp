/**
 * @file
 * TimeSeries — the stock SessionObserver that records every
 * WindowSample a streamed session emits, with CSV emission.
 *
 *     harness::TimeSeries series;
 *     harness::SimSession session(spec);
 *     session.addObserver(&series);
 *     while (!session.done())
 *         session.advance(window_instrs);
 *     series.writeCsv("run_series.csv");
 *
 * Each row is one window: per-window (delta) IPC, miss and
 * prefetch counters, accuracy and the DRAM utilization EWMA at window
 * end, plus the cumulative IPC/accuracy trajectory. composeRange()
 * re-aggregates any boundary-aligned span of windows into a single
 * RunResult — bit-exactly equal to what a run measured over exactly
 * that span would report for its counters (the window algebra of
 * harness/session.hpp), which is how bench_fig23_warmup derives every
 * warmup point from ONE streamed session.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/session.hpp"

namespace pythia::harness {

/** Recorded per-window samples of one streamed session. */
class TimeSeries : public SessionObserver
{
  public:
    // SessionObserver: record every window.
    void onWindowEnd(SimSession& session, const WindowSample& w) override;

    /** Append a sample directly (for series built without a session). */
    void append(WindowSample sample);

    const std::vector<WindowSample>& samples() const { return samples_; }
    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    const WindowSample& operator[](std::size_t i) const
    {
        return samples_[i];
    }

    void clear() { samples_.clear(); }

    /** Cumulative RunResult of the last recorded window; throws
     *  std::logic_error when empty. */
    const sim::RunResult& finalResult() const;

    /**
     * Compose the deltas of the windows spanning exactly
     * [@p instrs_begin, @p instrs_end) measured instructions into one
     * RunResult. Throws std::invalid_argument unless both bounds lie on
     * recorded window boundaries with a contiguous chain between them.
     */
    sim::RunResult composeRange(std::uint64_t instrs_begin,
                                std::uint64_t instrs_end) const;

    /** The CSV column list (no trailing newline). */
    static const char* csvHeader();

    /** One sample as a CSV row (no trailing newline). */
    static std::string csvRow(const WindowSample& w);

    void writeCsv(std::ostream& os) const;
    /** @return false on I/O failure. */
    bool writeCsv(const std::string& path) const;

  private:
    std::vector<WindowSample> samples_;
};

} // namespace pythia::harness
