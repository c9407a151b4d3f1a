/**
 * @file
 * Span recording for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the program's public functions; nothing inside the program is
 * instrumented. Each span has a name, a start and end time, the index
 * of the span that caused it and the id of the experiment or replay it
 * belongs to. Spans stay in memory and are written out when the run
 * ends.
 *
 * Layers called once per simulated access (Workload::next,
 * PrefetcherApi::train) are far too frequent for one span per call.
 * Their calls are accumulated in a LayerTimer instead, and every span
 * records how much accumulated call time fell inside it, so a span's
 * self time still excludes them.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Call count and total host time of one frequently called layer. */
struct LayerTimer
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void add(std::int64_t d)
    {
        ++calls;
        ns += d;
    }

    double nsPerCall() const
    {
        return calls ? static_cast<double>(ns) / calls : 0.0;
    }
};

struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< index into the recorder's spans, -1 = root
    std::uint64_t id = 0;   ///< experiment or replay id
    /** Accumulated LayerTimer time inside this span but outside its
     *  child spans (what selfTimesNs() subtracts). */
    std::int64_t leaf_ns = 0;
    /** All accumulated LayerTimer time inside this span. */
    std::int64_t leaf_total_ns = 0;

    std::int64_t durationNs() const { return end_ns - start_ns; }
};

/**
 * Self time of every span: its duration minus the part of it covered
 * by its direct children (their intervals clipped to the parent and
 * merged, so overlapping children are not counted twice) minus its
 * accumulated leaf time. Never negative.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans);

/**
 * In-memory span recorder for one thread. begin() opens a span as a
 * child of the innermost open span; end() closes it. Leaf timers
 * registered with watch() are sampled at begin and end so each span
 * knows how much leaf time it contains.
 */
class Tracer
{
  public:
    /** Count @p t's time as leaf time of the spans open around it. */
    void watch(const LayerTimer* t) { watched_.push_back(t); }

    int begin(std::string name, std::uint64_t id);
    void end(int span);

    const std::vector<Span>& spans() const { return spans_; }

    /** Append @p other's closed spans (another thread's recorder),
     *  re-basing their parent indices; its roots stay roots. */
    void absorb(const Tracer& other);

    /** Sum of self times of every span called @p name. */
    std::int64_t selfNs(const std::string& name) const;
    /** Sum of durations of every span called @p name. */
    std::int64_t totalNs(const std::string& name) const;
    /** Number of spans called @p name. */
    std::size_t count(const std::string& name) const;

    /** One JSON object per line: name, start_ns, end_ns, parent, id,
     *  leaf_ns, self_ns. */
    void writeJsonLines(std::ostream& os) const;

  private:
    std::int64_t leafNow() const;

    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<std::int64_t> leaf_at_begin_; ///< per open span
    std::vector<std::int64_t> child_leaf_;    ///< per open span
    std::vector<const LayerTimer*> watched_;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* t, std::string name, std::uint64_t id)
        : t_(t), span_(t ? t->begin(std::move(name), id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end(span_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* t_;
    int span_;
};

} // namespace perfbench
