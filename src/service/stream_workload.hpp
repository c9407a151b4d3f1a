/**
 * @file
 * StreamWorkload — the workload a serve tenant's session runs on.
 *
 * A client streams its access records incrementally (kAccess frames of
 * the pythia-serve-v1 protocol); the server appends them here and the
 * tenant SimSession consumes them through the ordinary Workload
 * interface. Two properties distinguish it from FileWorkload:
 *
 *  - It retains the FULL record history, not a looping window. The
 *    snapshot subsystem restores workload position by replaying
 *    records from the start (Core::loadState), so the history must
 *    reach back to record zero for evict/restore to be bit-exact.
 *  - It does NOT loop at the end: running past the appended history is
 *    a server bug (the pump's gating rule must prevent it) and throws
 *    StreamUnderrunError instead of silently replaying stale records.
 *
 * The pump gates in instructions, not records (DESIGN.md §12.2), so
 * the stream keeps running totals of the instructions streamed and
 * consumed (TraceRecord::instrs(): gap + 1 per record).
 */
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/trace.hpp"

namespace pythia::service {

/** The session consumed past the streamed history — a gating bug. */
class StreamUnderrunError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

class StreamWorkload : public wl::Workload
{
  public:
    /** @p history seeds the stream (restore path: the records the
     *  evicted session had already received). */
    explicit StreamWorkload(std::string name,
                            std::vector<wl::TraceRecord> history = {})
        : name_(std::move(name)), records_(std::move(history))
    {
        for (const wl::TraceRecord& r : records_)
            streamed_instrs_ += r.instrs();
    }

    wl::TraceRecord next() override
    {
        if (pos_ >= records_.size())
            throw StreamUnderrunError(
                "StreamWorkload '" + name_ + "': consumed past streamed "
                "history (" + std::to_string(records_.size()) +
                " records) — pump gating bug");
        consumed_instrs_ += records_[pos_].instrs();
        return records_[pos_++];
    }

    void reset() override
    {
        pos_ = 0;
        consumed_instrs_ = 0;
    }

    const std::string& name() const override { return name_; }

    std::unique_ptr<wl::Workload> clone(std::uint64_t /*reseed*/)
        const override
    {
        return std::make_unique<StreamWorkload>(name_, records_);
    }

    /** Append newly streamed records to the history. */
    void append(const std::vector<wl::TraceRecord>& batch)
    {
        records_.insert(records_.end(), batch.begin(), batch.end());
        for (const wl::TraceRecord& r : batch)
            streamed_instrs_ += r.instrs();
    }

    /** Records streamed so far (monotonic). */
    std::size_t size() const { return records_.size(); }

    /** Records the session has consumed (≤ size()). */
    std::size_t consumed() const { return pos_; }

    /** Instructions streamed but not yet consumed — what the pump's
     *  gates test. */
    std::uint64_t availableInstrs() const
    {
        return streamed_instrs_ - consumed_instrs_;
    }

    /** Full history, for eviction persistence (writeTraceFile). */
    const std::vector<wl::TraceRecord>& records() const { return records_; }

  private:
    std::string name_;
    std::vector<wl::TraceRecord> records_;
    std::size_t pos_ = 0;
    std::uint64_t streamed_instrs_ = 0; ///< Σ instrs() over records_
    std::uint64_t consumed_instrs_ = 0; ///< Σ instrs() over [0, pos_)
};

} // namespace pythia::service
