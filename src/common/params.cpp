#include "common/params.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/spec.hpp"

namespace pythia {

namespace {

/** Base-10 integer: "08" is 8, "010" is 10, "0x10" is rejected. */
bool
parseDecimal(const std::string& s, long long& out)
{
    errno = 0;
    char* end = nullptr;
    out = std::strtoll(s.c_str(), &end, 10);
    return errno == 0 && end != s.c_str() && *end == '\0';
}

} // namespace

SpecParams::SpecParams(std::string owner,
                       const std::vector<KeyValue>& pairs,
                       const std::vector<std::string>& allowed)
    : owner_(std::move(owner))
{
    for (const auto& [key, value] : pairs) {
        if (std::find(allowed.begin(), allowed.end(), key) ==
            allowed.end())
            throw std::invalid_argument(
                owner_ + ": unknown parameter '" + key + "'" +
                didYouMean(key, allowed) + " (accepted: " +
                joinKeys(allowed, "(no parameters)") + ")");
        kv_[key] = value;
    }
}

SpecParams
SpecParams::fromArgs(int argc, const char* const* argv,
                     const std::vector<std::string>& allowed)
{
    std::string prog = argc > 0 && argv[0] ? argv[0] : "program";
    prog = prog.substr(prog.find_last_of('/') + 1);
    std::vector<KeyValue> pairs;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                prog + ": argument '" + tok +
                "' is not of the form key=value (accepted: " +
                joinKeys(allowed) + ")");
        pairs.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return SpecParams(std::move(prog), pairs, allowed);
}

bool
SpecParams::has(const std::string& key) const
{
    return kv_.count(key) != 0;
}

std::string
SpecParams::getString(const std::string& key, const std::string& dflt) const
{
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
}

void
SpecParams::badValue(const std::string& key, const std::string& value,
                     const std::string& expected) const
{
    throw std::invalid_argument(owner_ + ": parameter '" + key +
                                "' expects " + expected + ", got '" +
                                value + "'");
}

std::int64_t
SpecParams::getInt(const std::string& key, std::int64_t dflt) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    long long v = 0;
    if (!parseDecimal(it->second, v))
        badValue(key, it->second, "an integer");
    return v;
}

std::uint32_t
SpecParams::getU32(const std::string& key, std::uint32_t dflt,
                   std::uint32_t max) const
{
    if (!has(key))
        return dflt;
    const std::int64_t v = getInt(key, 0);
    if (v < 0 || v > static_cast<std::int64_t>(max))
        badValue(key, kv_.at(key),
                 "an integer in [0, " + std::to_string(max) + "]");
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
SpecParams::getU64(const std::string& key, std::uint64_t dflt) const
{
    const std::int64_t v = getInt(key, static_cast<std::int64_t>(dflt));
    if (v < 0)
        badValue(key, kv_.at(key), "a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

std::int32_t
SpecParams::getI32(const std::string& key, std::int32_t dflt) const
{
    const std::int64_t v = getInt(key, dflt);
    if (v < INT32_MIN || v > INT32_MAX)
        badValue(key, kv_.at(key), "a 32-bit integer");
    return static_cast<std::int32_t>(v);
}

double
SpecParams::getDouble(const std::string& key, double dflt) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    // NaN fails every range comparison, so a non-finite value is not a
    // number here.
    if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
        !std::isfinite(v))
        badValue(key, it->second, "a number");
    return v;
}

bool
SpecParams::getBool(const std::string& key, bool dflt) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    const std::string& s = it->second;
    if (s == "1" || s == "true" || s == "yes")
        return true;
    if (s == "0" || s == "false" || s == "no")
        return false;
    badValue(key, s, "a boolean (1/0/true/false/yes/no)");
}

std::uint64_t
SpecParams::getBytes(const std::string& key, std::uint64_t dflt) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    const std::string& s = it->second;
    // strtoull silently wraps negative input ("-1" -> 2^64-1), so
    // reject a sign explicitly before parsing.
    if (!s.empty() && (s[0] == '-' || s[0] == '+'))
        badValue(key, s, "a non-negative byte size (optional K/M/G "
                         "suffix)");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str())
        badValue(key, s, "a byte size (optional K/M/G suffix)");
    std::uint64_t shift = 0;
    if (*end != '\0') {
        switch (*end) {
        case 'K': case 'k': shift = 10; break;
        case 'M': case 'm': shift = 20; break;
        case 'G': case 'g': shift = 30; break;
        default:
            badValue(key, s, "a byte size (optional K/M/G suffix)");
        }
        if (*(end + 1) != '\0')
            badValue(key, s, "a byte size (optional K/M/G suffix)");
        if (shift != 0 && (v >> (64 - shift)) != 0)
            badValue(key, s, "a byte size that fits in 64 bits");
    }
    return static_cast<std::uint64_t>(v) << shift;
}

std::vector<std::int32_t>
SpecParams::getI32List(const std::string& key,
                       const std::vector<std::int32_t>& dflt) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    const std::string& s = it->second;
    std::vector<std::int32_t> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i < s.size() && s[i] != '/')
            continue;
        const std::string tok = s.substr(start, i - start);
        start = i + 1;
        long long v = 0;
        if (!parseDecimal(tok, v) || v < INT32_MIN || v > INT32_MAX)
            badValue(key, s, "a '/'-separated integer list (e.g. 2/3/5)");
        out.push_back(static_cast<std::int32_t>(v));
    }
    return out;
}

std::vector<std::string>
SpecParams::keys() const
{
    std::vector<std::string> out;
    for (const auto& [k, v] : kv_)
        out.push_back(k);
    return out;
}

} // namespace pythia
