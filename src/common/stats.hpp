/**
 * @file
 * Lightweight named-counter statistics registry, in the spirit of the gem5
 * stats package but sized for this project: every simulator component owns
 * a StatGroup and registers scalar counters/values in it; the harness can
 * dump all groups as text or CSV.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace pythia {

/**
 * A flat collection of named statistics.
 *
 * Counters are uint64 and monotonically incremented; values are doubles
 * set directly (for derived metrics like IPC). Lookup of a missing name
 * creates it at zero, which keeps call sites terse.
 */
class StatGroup
{
  public:
    /** @param name Group name used as a prefix when dumping. */
    explicit StatGroup(std::string name = "");

    /** Add @p delta to the counter called @p key. */
    void inc(const std::string& key, std::uint64_t delta = 1);

    /**
     * Stable pointer to the counter called @p key, created at zero if
     * absent. Hot paths resolve their counters once at construction and
     * bump through the pointer, skipping the per-event string hash/map
     * walk; the pointer stays valid for the group's lifetime (std::map
     * nodes never move) and reset() zeroes the value in place.
     */
    std::uint64_t* counterSlot(const std::string& key)
    {
        return &counters_[key];
    }

    /** Set the floating-point value called @p key. */
    void set(const std::string& key, double value);

    /** Read a counter; missing counters read as zero. */
    std::uint64_t counter(const std::string& key) const;

    /** Read a value; missing values read as zero. */
    double value(const std::string& key) const;

    /** True when a counter or value of this name exists. */
    bool has(const std::string& key) const;

    /** Reset every counter and value to zero (keeps the names). */
    void reset();

    /** Group name. */
    const std::string& name() const { return name_; }

    /** Dump "group.key value" lines to @p os. */
    void dump(std::ostream& os) const;

    /** All integer counters (for test introspection). */
    const std::map<std::string, std::uint64_t>& counters() const
    {
        return counters_;
    }

    /** All floating-point values (for test introspection). */
    const std::map<std::string, double>& values() const { return values_; }

    /** Snapshot state (snapshot/archive.hpp): every counter and value,
     *  in sorted key order. A load or copy zeroes the maps in place and
     *  assigns, so counterSlot() pointers stay valid across it. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.map(s.counters_);
        ar.map(s.values_);
    }

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> values_;
};

} // namespace pythia
