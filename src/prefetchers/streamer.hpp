/**
 * @file
 * L2 stream prefetcher in the style of commercial Intel streamers
 * [Chen & Baer, IEEE TC'95; Intel disclosure], the second half of the
 * "stride+streamer" multi-level baseline of §6.2.4.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** Streamer tuning knobs. */
struct StreamerConfig
{
    std::uint32_t streams = 64;  ///< concurrently tracked streams
    std::uint32_t degree = 8;    ///< lines run ahead once confirmed
    std::uint32_t train_len = 2; ///< accesses that confirm a direction

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("streams", c.streams, kTable);
        ar("degree", c.degree, kDegree);
        ar("train_len", c.train_len);
    }
};

/**
 * Tracks up to N concurrent streams at page granularity; once a stream's
 * direction is confirmed by @p train_len accesses it runs @p degree lines
 * ahead of the demand stream.
 */
class StreamerPrefetcher : public StatefulPrefetcher<StreamerPrefetcher>
{
  public:
    explicit StreamerPrefetcher(const StreamerConfig& cfg = StreamerConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). degree_ is state, not
     *  configuration: setDegree() adjusts it at run time. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.tick_, s.degree_);
        ar.table("streamer streams", s.streams_);
    }

    /** Restore hook: the degree bounds train()'s loop, so it stays
     *  within the configuration rule (kMaxDegree). */
    void afterRestore() const;

    /** Adjust the run-ahead distance (used by the POWER7-style wrapper). */
    void setDegree(std::uint32_t degree) { degree_ = degree; }

    /** Current run-ahead distance. */
    std::uint32_t degree() const { return degree_; }

  private:
    struct Stream
    {
        Addr page = ~0ull;
        std::int32_t last_offset = -1;
        std::int32_t dir = 0;     ///< +1 ascending, -1 descending, 0 unset
        std::uint8_t confirmations = 0;
        std::uint64_t lru = 0;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.page, e.last_offset, e.dir, e.confirmations, e.lru);
        }
    };

    std::vector<Stream> streams_;
    std::uint32_t degree_;
    std::uint32_t train_len_;
    std::uint64_t tick_ = 0;
};

} // namespace pythia::pf
