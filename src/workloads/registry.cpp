#include "workloads/registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/hashing.hpp"
#include "common/spec.hpp"
#include "workloads/generators.hpp"

namespace pythia::wl {

namespace {

/** Records each phase child emits before the rotation moves on when no
 *  "@<records>" suffix is given. */
constexpr std::size_t kDefaultPhaseLen = 20000;

/** True when @p spec's (lowercased) family token is "phase". */
bool
isPhaseSpec(const std::string& spec)
{
    const std::string head = trim(spec.substr(0, spec.find(':')));
    if (head.size() != 5)
        return false;
    std::string low = head;
    std::transform(low.begin(), low.end(), low.begin(), [](unsigned char c) {
        return std::tolower(c);
    });
    return low == "phase";
}

} // namespace

struct WorkloadRegistry::PhasePart
{
    std::string spec;     ///< child workload spec (single part)
    std::size_t len = kDefaultPhaseLen; ///< records per phase
};

WorkloadRegistry&
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

std::vector<WorkloadRegistry::PhasePart>
WorkloadRegistry::parsePhase(const std::string& spec) const
{
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos ||
        trim(spec.substr(colon + 1)).empty())
        throw std::invalid_argument(
            "bad workload spec '" + spec +
            "': phase needs children, e.g. phase:stream@40+graph@60");

    std::vector<PhasePart> parts;
    for (const std::string& raw : split(spec.substr(colon + 1), '+')) {
        PhasePart part;
        part.spec = trim(raw);
        // An "@<records>" suffix sets this child's phase length. '@' is
        // reserved in phase children (a trace file path containing '@'
        // cannot be composed this way).
        const std::size_t at = part.spec.rfind('@');
        if (at != std::string::npos) {
            const std::string digits = trim(part.spec.substr(at + 1));
            if (digits.empty() ||
                !std::all_of(digits.begin(), digits.end(),
                             [](unsigned char c) {
                                 return std::isdigit(c);
                             }))
                throw std::invalid_argument(
                    "bad workload spec '" + spec + "': '@" + digits +
                    "' is not a phase length (expected digits, e.g. "
                    "stream@40)");
            try {
                part.len = std::stoull(digits);
            } catch (const std::out_of_range&) {
                throw std::invalid_argument(
                    "bad workload spec '" + spec + "': phase length '" +
                    digits + "' is out of range");
            }
            if (part.len == 0)
                throw std::invalid_argument(
                    "bad workload spec '" + spec +
                    "': phase length must be > 0");
            part.spec = trim(part.spec.substr(0, at));
        }
        if (part.spec.empty())
            throw std::invalid_argument("bad workload spec '" + spec +
                                        "': empty phase child");
        if (isPhaseSpec(part.spec))
            throw std::invalid_argument(
                "bad workload spec '" + spec +
                "': phase children cannot nest another phase");
        parts.push_back(std::move(part));
    }
    return parts;
}

WorkloadRegistry::Resolved
WorkloadRegistry::resolveOne(const std::string& spec) const
{
    const std::vector<ParsedSpec> parts = parseSpecList(spec);
    if (parts.size() != 1)
        throw std::invalid_argument(
            "bad workload spec '" + spec +
            "': workloads do not compose with '+'; use the "
            "phase:child@len+child@len form");
    // The params view sorts its keys, which gives canonical() its key
    // order.
    return resolve(parts[0]);
}

std::unique_ptr<Workload>
WorkloadRegistry::makeOne(const std::string& spec, std::uint64_t seed,
                          const std::string& name) const
{
    const Resolved r = resolveOne(spec);
    auto built = r.entry->factory(r.params, seed, name);
    if (!built)
        throw std::logic_error("factory for workload family '" +
                               r.entry->name + "' returned null");
    return built;
}

std::unique_ptr<Workload>
WorkloadRegistry::make(const std::string& spec, std::uint64_t seed,
                       const std::string& name_override) const
{
    const std::string name =
        name_override.empty() ? canonical(spec) : name_override;
    if (!isPhaseSpec(spec))
        return makeOne(spec, seed, name);

    // Phase composite: child i is seeded mix64(seed ^ (i+1)), matching
    // the catalog's historical Cloudsuite-style mix construction so
    // catalog aliases replay bit-identically through this path.
    std::vector<std::unique_ptr<Workload>> children;
    std::vector<std::size_t> lens;
    std::size_t i = 0;
    for (const PhasePart& part : parsePhase(spec)) {
        children.push_back(makeOne(part.spec,
                                   mix64(seed ^ (i + 1)),
                                   name + "." + std::to_string(i)));
        lens.push_back(part.len);
        ++i;
    }
    return std::make_unique<MixedPhaseGen>(name, seed,
                                           std::move(children),
                                           std::move(lens));
}

std::string
WorkloadRegistry::canonicalOne(const std::string& spec) const
{
    const Resolved r = resolveOne(spec);
    std::string out = r.entry->name;
    bool first = true;
    for (const std::string& key : r.params.keys()) {
        out += first ? ":" : ",";
        out += key + "=" + r.params.getString(key);
        first = false;
    }
    return out;
}

std::string
WorkloadRegistry::canonical(const std::string& spec) const
{
    if (!isPhaseSpec(spec))
        return canonicalOne(spec);
    std::string out = "phase:";
    bool first = true;
    for (const PhasePart& part : parsePhase(spec)) {
        if (!first)
            out += "+";
        // Phase lengths are always explicit in the canonical form so
        // "a" and "a@20000" (the default) spell the same key.
        out += canonicalOne(part.spec) + "@" + std::to_string(part.len);
        first = false;
    }
    return out;
}

std::vector<std::string>
workloadFamilyNames()
{
    return WorkloadRegistry::instance().names();
}

} // namespace pythia::wl
