/**
 * @file
 * One declaration per spec key. A component's config lists its
 * tunables once:
 *
 *     template <class Self, class Ar>
 *     static void knobs(Self& c, Ar& ar)
 *     {
 *         ar("pt_ways", c.pt_ways, kWays);         // key, member, rule
 *         ar("fill_threshold", c.fill_threshold); // no rule
 *     }
 *
 * The member's initializer is the key's one default, and everything a
 * registry needs derives from the list:
 *  - declareKnobs(): the accepted keys, in declaration order
 *    (Registry::Entry::param_keys), and each Bound as spec values;
 *  - parseKnobs(): each present key through the SpecParams getter that
 *    matches its member's type (a ByteSize rule reads a K/M/G size; a
 *    member type of its own brings a parseKnob overload found by ADL);
 *  - checkKnobs(): the one range check every component constructor
 *    runs, "<owner>: <key> must be <rule>" for the first rule broken.
 *
 * A rule is a Bound, whose text is rendered from its numbers, or a Pred
 * for forms no bound says ("a power of two <= 4096").
 */
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/params.hpp"

namespace pythia {

/** A numeric range rule: lo <= v <= hi (lo < v when @c open_lo). A side
 *  at its type's limit is not declared: Bound<std::uint32_t>{0, 64}
 *  reads "<= 64", {0, UINT32_MAX, true} reads "> 0". */
template <class T>
struct Bound
{
    T lo;
    T hi;
    bool open_lo = false;

    using Limits = std::numeric_limits<T>;

    bool hasLo() const { return open_lo || lo != Limits::lowest(); }
    bool hasHi() const { return hi != Limits::max(); }
    bool holds(T v) const { return (open_lo ? v > lo : v >= lo) && v <= hi; }

    /** "in [1, 65536]", "in (0, 1]", "<= 64" or "> 0". */
    std::string text() const
    {
        if (!hasHi())
            return (open_lo ? "> " : ">= ") + spell(lo);
        if (!hasLo())
            return "<= " + spell(hi);
        return std::string("in ") + (open_lo ? "(" : "[") + spell(lo) +
               ", " + spell(hi) + "]";
    }

    /** @p v as a spec value ("65536", "0.5"). */
    static std::string spell(T v)
    {
        char buf[32];
        return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
    }
};

/** A rule no bound says, with its text. */
template <class T>
struct Pred
{
    const char* text;
    bool (*ok)(const T&);
};

/** The rule of a byte-size key, which parses with an optional K/M/G
 *  suffix (SpecParams::getBytes). */
struct ByteSize : Pred<std::uint64_t> {};

/** One declared Bound as spec values: @c on holds the values on its
 *  closed sides (they must build), @c past the first value beyond each
 *  side (it must be refused, naming @c key and @c rule). An integer's
 *  next value is one past; a real's is a whole unit past. */
struct KnobBound
{
    std::string key;
    std::string rule;
    std::vector<std::string> on;
    std::vector<std::string> past;
};

/** Read @p key into @p v, whose current value is the default, through
 *  the SpecParams getter of v's type. */
template <class T>
void
parseKnob(const SpecParams& p, const std::string& key, T& v)
{
    if constexpr (std::is_same_v<T, std::uint32_t>)
        v = p.getU32(key, v);
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        v = p.getU64(key, v);
    else if constexpr (std::is_same_v<T, std::int32_t>)
        v = p.getI32(key, v);
    else if constexpr (std::is_same_v<T, double>)
        v = p.getDouble(key, v);
    else if constexpr (std::is_same_v<T, std::string>)
        v = p.getString(key, v);
    else
        v = p.getI32List(key, v);
}

/** What a config declares: its keys in order and its Bounds. */
struct KnobDecl
{
    std::vector<std::string> keys;
    std::vector<KnobBound> bounds;

    template <class T, class... Rule>
    void operator()(const char* key, const T&, const Rule&...)
    {
        keys.emplace_back(key);
    }
    template <class T>
    void operator()(const char* key, const T& v, const Bound<T>& b)
    {
        (*this)(key, v);
        KnobBound k{key, b.text(), {}, {}};
        if (b.hasLo() && !b.open_lo)
            k.on.push_back(b.spell(b.lo));
        if (b.hasLo())
            k.past.push_back(b.spell(b.open_lo ? b.lo : b.lo - 1));
        if (b.hasHi()) {
            k.on.push_back(b.spell(b.hi));
            k.past.push_back(b.spell(b.hi + 1));
        }
        bounds.push_back(std::move(k));
    }
};

/** Reads every present key into its member. */
struct KnobParse
{
    const SpecParams& p;

    template <class T, class... Rule>
    void operator()(const char* key, T& v, const Rule&...)
    {
        parseKnob(p, key, v);
    }
    void operator()(const char* key, std::uint64_t& v, const ByteSize&)
    {
        v = p.getBytes(key, v);
    }
};

/** Throws for the first rule a member breaks. A rule must be of its
 *  member's type, or this does not compile. */
struct KnobCheck
{
    const std::string& owner;

    template <class T>
    void operator()(const char*, const T&) {}
    template <class T>
    void operator()(const char* key, const T& v, const Bound<T>& rule)
    {
        if (!rule.holds(v))
            fail(key, rule.text());
    }
    template <class T>
    void operator()(const char* key, const T& v, const Pred<T>& rule)
    {
        if (!rule.ok(v))
            fail(key, rule.text);
    }
    [[noreturn]] void fail(const char* key, const std::string& rule) const
    {
        throw std::invalid_argument(owner + ": " + key + " must be " +
                                    rule);
    }
};

/** The keys and Bounds @p Config declares. */
template <class Config>
KnobDecl
declareKnobs()
{
    const Config c{};
    KnobDecl ar;
    Config::knobs(c, ar);
    return ar;
}

/** Overwrite each member of @p c whose key @p p sets. */
template <class Config>
void
parseKnobs(Config& c, const SpecParams& p)
{
    KnobParse ar{p};
    Config::knobs(c, ar);
}

/**
 * The range check: @return @p c when every rule holds.
 * @throws std::invalid_argument "<owner>: <key> must be <rule>" for the
 *         first rule, in declaration order, that does not.
 */
template <class Config>
const Config&
checkKnobs(const std::string& owner, const Config& c)
{
    KnobCheck ar{owner};
    Config::knobs(c, ar);
    return c;
}

} // namespace pythia
