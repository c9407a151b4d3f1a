/**
 * @file
 * The one typed key=value layer: a strict, validated view over the
 * parameters of one parsed spec part (common/spec.hpp) or of one
 * command line. Every registry that constructs components from spec
 * strings — prefetchers (sim/prefetcher_registry.hpp) and workloads
 * (workloads/registry.hpp) — and every binary's command line
 * (fromArgs()) builds its view through the same key validator, so an
 * unknown key is rejected the same way everywhere: with a "did you
 * mean" hint and the accepted-key list.
 *
 * Getters return the default when the key is absent and throw
 * std::invalid_argument (naming the owner and the key) when the value
 * does not parse as the requested type. Integers are decimal.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pythia {

/** One key=value assignment, in source order. */
using KeyValue = std::pair<std::string, std::string>;

/** Upper bound every command line puts on a thread or process count
 *  (jobs=, workers=, clients=): a typo must not fork-bomb the host. */
inline constexpr std::uint32_t kMaxParallelism = 1024;

class SpecParams
{
  public:
    SpecParams() = default;

    /**
     * The key validator: accept @p pairs for @p owner when every key is
     * in @p allowed; a repeated key keeps its last assignment.
     * @throws std::invalid_argument "<owner>: unknown parameter 'k';
     *         did you mean '...'? (accepted: ...)" on an unknown key.
     */
    SpecParams(std::string owner, const std::vector<KeyValue>& pairs,
               const std::vector<std::string>& allowed);

    /**
     * Strict command-line view: every argv[1..] token is key=value
     * (split at the first '='; the value may be empty) with a key in
     * @p allowed. The owner is the basename of argv[0], so every error
     * message is one line that starts with the program name.
     * @throws std::invalid_argument on a token without '=' or with an
     *         empty key, and on an unknown key.
     */
    static SpecParams fromArgs(int argc, const char* const* argv,
                               const std::vector<std::string>& allowed);

    /** Name of the component these params configure (for messages). */
    const std::string& owner() const { return owner_; }

    bool has(const std::string& key) const;

    std::string getString(const std::string& key,
                          const std::string& dflt = "") const;
    std::int64_t getInt(const std::string& key, std::int64_t dflt) const;
    /** Non-negative integer no larger than @p max. */
    std::uint32_t getU32(const std::string& key, std::uint32_t dflt,
                         std::uint32_t max = UINT32_MAX) const;
    std::uint64_t getU64(const std::string& key, std::uint64_t dflt) const;
    std::int32_t getI32(const std::string& key, std::int32_t dflt) const;
    /** A finite number: "nan" and "inf" are refused. */
    double getDouble(const std::string& key, double dflt) const;
    /** 1/0/true/false/yes/no. */
    bool getBool(const std::string& key, bool dflt) const;

    /** Byte size with an optional K / M / G suffix ("256M", "4096"). */
    std::uint64_t getBytes(const std::string& key,
                           std::uint64_t dflt) const;

    /** '/'-separated integer list ("2/3/5" -> {2, 3, 5}). */
    std::vector<std::int32_t>
    getI32List(const std::string& key,
               const std::vector<std::int32_t>& dflt) const;

    /** All keys present, sorted. */
    std::vector<std::string> keys() const;

  private:
    [[noreturn]] void badValue(const std::string& key,
                               const std::string& value,
                               const std::string& expected) const;

    std::string owner_;
    std::map<std::string, std::string> kv_;
};

} // namespace pythia
