#include "common/spec.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace pythia {

namespace {

[[noreturn]] void
fail(const std::string& spec, const std::string& why)
{
    throw std::invalid_argument("bad spec '" + spec + "': " + why);
}

ParsedSpec
parsePart(const std::string& spec, const std::string& part)
{
    ParsedSpec out;
    const std::size_t colon = part.find(':');
    out.name = trim(part.substr(0, colon));
    if (out.name.empty())
        fail(spec, "empty component name");
    std::transform(out.name.begin(), out.name.end(), out.name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (colon == std::string::npos)
        return out;

    const std::string param_str = part.substr(colon + 1);
    if (trim(param_str).empty())
        fail(spec, "'" + out.name + "' has a ':' but no parameters");
    for (const std::string& kv : split(param_str, ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            fail(spec, "parameter '" + trim(kv) +
                           "' is not of the form key=value");
        const std::string key = trim(kv.substr(0, eq));
        const std::string value = trim(kv.substr(eq + 1));
        if (key.empty())
            fail(spec, "empty parameter name in '" + trim(kv) + "'");
        if (value.empty())
            fail(spec, "empty value for parameter '" + key + "' of '" +
                           out.name + "'");
        out.params.emplace_back(key, value);
    }
    return out;
}

std::size_t
editDistance(const std::string& a, const std::string& b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst = diag + (a[i - 1] != b[j - 1]);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

} // namespace

std::string
trim(const std::string& s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<ParsedSpec>
parseSpecList(const std::string& spec)
{
    std::vector<ParsedSpec> out;
    for (const std::string& part : split(spec, '+')) {
        if (trim(part).empty())
            fail(spec, "empty component in composition");
        out.push_back(parsePart(spec, part));
    }
    return out;
}

std::vector<std::string>
splitSpecs(const std::string& list)
{
    std::vector<std::string> out;
    for (const std::string& entry : split(list, ';'))
        if (!trim(entry).empty())
            out.push_back(trim(entry));
    return out;
}

std::string
closestMatch(const std::string& word,
             const std::vector<std::string>& candidates)
{
    std::string best;
    std::size_t best_d = 4; // hint only when within edit distance 3
    for (const auto& c : candidates) {
        const std::size_t d = editDistance(word, c);
        if (d < best_d) {
            best_d = d;
            best = c;
        }
    }
    return best;
}

std::string
didYouMean(const std::string& word,
           const std::vector<std::string>& candidates)
{
    const std::string best = closestMatch(word, candidates);
    return best.empty() ? "" : "; did you mean '" + best + "'?";
}

std::string
joinKeys(const std::vector<std::string>& keys, const std::string& empty)
{
    std::string out;
    for (const auto& k : keys) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out.empty() ? empty : out;
}

} // namespace pythia
