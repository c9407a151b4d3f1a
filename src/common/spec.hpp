/**
 * @file
 * Parser for parameterized component spec strings.
 *
 * A spec names a component plus optional key=value parameters:
 *
 *     "spp"
 *     "spp:max_lookahead=4"
 *     "pythia:alpha=0.006,gamma=0.55"
 *     "stride+spp+bingo"          (composition of three components)
 *     "stride:degree=2+spp"       (per-part parameters compose too)
 *
 * The grammar is shared by every registry that constructs components
 * from strings: prefetchers (sim/prefetcher_registry.hpp) and workload
 * generator families (workloads/registry.hpp). It plays the role ChampSim's
 * ini-file knobs play in the paper's artifact: reconfiguration without
 * recompilation (paper §6.6).
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace pythia {

/** One parsed component of a spec string. */
struct ParsedSpec
{
    std::string name;                   ///< component name, lowercase
    /** key=value parameters in source order (keys unvalidated here). */
    std::vector<std::pair<std::string, std::string>> params;
};

/**
 * Parse @p spec into its "+"-separated parts, each of the form
 * `name[:key=value[,key=value]...]`. Whitespace around tokens is
 * ignored. @throws std::invalid_argument on structural errors (empty
 * part, empty key, empty value, missing '='), with the offending spec
 * quoted in the message.
 */
std::vector<ParsedSpec> parseSpecList(const std::string& spec);

/** @p s without leading and trailing whitespace. */
std::string trim(const std::string& s);

/** Split @p s at every @p sep; empty fields are kept ("a++b" with '+'
 *  gives "a", "", "b"). */
std::vector<std::string> split(const std::string& s, char sep);

/**
 * Split a ';'-separated list of specs — ',' belongs to spec parameters,
 * so list-valued options ("stream:streams=2,mem_ratio=0.4;spp")
 * cannot use it. Entries are trimmed and empty ones dropped.
 */
std::vector<std::string> splitSpecs(const std::string& list);

/**
 * Closest candidate to @p word by edit distance, or "" when nothing is
 * within distance 3 — used for "did you mean" hints in registry errors.
 */
std::string closestMatch(const std::string& word,
                         const std::vector<std::string>& candidates);

/** "; did you mean 'x'?" when a close candidate exists, else "". */
std::string didYouMean(const std::string& word,
                       const std::vector<std::string>& candidates);

/** Comma-join @p keys for error messages; @p empty when none exist. */
std::string joinKeys(const std::vector<std::string>& keys,
                     const std::string& empty = "(none)");

} // namespace pythia
