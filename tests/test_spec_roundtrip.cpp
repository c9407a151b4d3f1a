/**
 * @file
 * Property tests for prefetcher spec strings (ctest label: property).
 *
 * For every prefetcher in the registry: the bare name constructs, a
 * spec exercising every declared parameter key constructs, and the
 * parse → render → parse round trip is the identity (so a spec printed
 * into a log or CSV can be pasted back and means the same run).
 * Malformed specs must throw with a "did you mean" hint — a typo must
 * never silently run the defaults.
 */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/spec.hpp"
#include "sim/prefetcher_registry.hpp"

namespace {

using namespace pythia;

/** Render a parsed spec list back into the canonical string form. */
std::string
render(const std::vector<ParsedSpec>& parts)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += '+';
        out += parts[i].name;
        for (std::size_t k = 0; k < parts[i].params.size(); ++k) {
            out += (k == 0 ? ':' : ',');
            out += parts[i].params[k].first;
            out += '=';
            out += parts[i].params[k].second;
        }
    }
    return out;
}

/** A valid "key=value" for @p key: "2" parses as int, unsigned, double
 *  and one-entry list alike; Pythia's "features" is the one key that
 *  takes names. */
std::string
sampleParam(const std::string& key)
{
    return key + (key == "features" ? "=PC.Delta" : "=2");
}

/** Spec naming @p name and setting every declared key. */
std::string
fullParamSpec(const sim::PrefetcherEntry& entry)
{
    std::string spec = entry.name;
    for (std::size_t i = 0; i < entry.param_keys.size(); ++i) {
        spec += (i == 0 ? ':' : ',');
        spec += sampleParam(entry.param_keys[i]);
    }
    return spec;
}

TEST(SpecRoundTrip, EveryRegisteredNameConstructs)
{
    const auto names = sim::prefetcherNames();
    ASSERT_FALSE(names.empty());
    for (const auto& name : names) {
        const auto pf = sim::makePrefetcher(name);
        ASSERT_NE(pf, nullptr) << name;
    }
}

TEST(SpecRoundTrip, EveryDeclaredParameterKeyIsAccepted)
{
    for (const auto& name : sim::prefetcherNames()) {
        const sim::PrefetcherEntry* entry =
            sim::PrefetcherRegistry::instance().find(name);
        ASSERT_NE(entry, nullptr) << name;
        const std::string spec = fullParamSpec(*entry);
        EXPECT_NE(sim::makePrefetcher(spec), nullptr) << spec;
    }
}

TEST(SpecRoundTrip, ParseRenderParseIsIdentity)
{
    std::vector<std::string> corpus;
    for (const auto& name : sim::prefetcherNames()) {
        const sim::PrefetcherEntry* entry =
            sim::PrefetcherRegistry::instance().find(name);
        ASSERT_NE(entry, nullptr) << name;
        corpus.push_back(name);
        if (!entry->param_keys.empty()) {
            corpus.push_back(fullParamSpec(*entry));
            // One single-key spec per prefetcher, too.
            corpus.push_back(name + ":" +
                             sampleParam(entry->param_keys.front()));
        }
    }
    corpus.push_back("stride+spp+bingo");
    corpus.push_back("stride:degree=2+spp");

    for (const auto& spec : corpus) {
        const auto once = parseSpecList(spec);
        const std::string rendered = render(once);
        const auto twice = parseSpecList(rendered);
        ASSERT_EQ(once.size(), twice.size()) << spec;
        for (std::size_t i = 0; i < once.size(); ++i) {
            EXPECT_EQ(once[i].name, twice[i].name) << spec;
            EXPECT_EQ(once[i].params, twice[i].params) << spec;
        }
        // The rendered form is constructible whenever the original was.
        EXPECT_NE(sim::makePrefetcher(rendered), nullptr) << rendered;
    }
}

/** Extract the message a spec fails with; "" when it does not throw. */
std::string
errorOf(const std::string& spec)
{
    try {
        (void)sim::makePrefetcher(spec);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(SpecRoundTrip, MisspelledNameGetsDidYouMeanNeverDefaults)
{
    const std::string err = errorOf("sppp");
    ASSERT_FALSE(err.empty()) << "typo constructed a prefetcher";
    EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
    EXPECT_NE(err.find("spp"), std::string::npos) << err;
}

TEST(SpecRoundTrip, MisspelledParameterGetsDidYouMeanNeverDefaults)
{
    for (const auto& name : sim::prefetcherNames()) {
        const sim::PrefetcherEntry* entry =
            sim::PrefetcherRegistry::instance().find(name);
        ASSERT_NE(entry, nullptr) << name;
        if (entry->param_keys.empty())
            continue;
        // Append a character: close enough for the hint, still unknown.
        const std::string key = entry->param_keys.front() + "x";
        const std::string err = errorOf(name + ":" + key + "=2");
        ASSERT_FALSE(err.empty())
            << name << ": unknown key '" << key << "' was accepted";
        EXPECT_NE(err.find("unknown parameter"), std::string::npos)
            << err;
        EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
    }
}

TEST(SpecRoundTrip, StructurallyMalformedSpecsThrow)
{
    for (const char* bad :
         {"spp:", "spp:=4", "spp:foo", "spp:foo=", "+spp", "spp+",
          "none:x=1", "spp++bingo"}) {
        EXPECT_THROW((void)sim::makePrefetcher(bad),
                     std::invalid_argument)
            << bad;
    }
}

/** Construct @p spec and feed it a few hundred synthetic demands (a
 *  strided and a random stream over a few pages, fills and feedback
 *  included). Returns the construction error, "" when it ran. */
std::string
constructAndTrain(const std::string& spec)
{
    std::unique_ptr<sim::PrefetcherApi> pf;
    try {
        pf = sim::makePrefetcher(spec);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    EXPECT_NE(pf, nullptr) << spec;
    if (!pf)
        return "";
    std::uint64_t lcg = 12345;
    std::vector<sim::PrefetchRequest> out;
    for (std::uint64_t i = 0; i < 400; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        sim::PrefetchAccess a;
        a.pc = 0x400000 + 4 * (i % 5);
        a.block = i % 2 ? (1ull << 20) + 3 * i : (2ull << 20) + lcg % 512;
        a.address = a.block << 6;
        a.cycle = 10 * i;
        out.clear();
        pf->train(a, out);
        for (const auto& r : out) {
            pf->onFill(r.block, a.cycle + 100);
            if (lcg & 1)
                pf->onPrefetchUsed(r.block, lcg & 2);
            else
                pf->onPrefetchEvicted(r.block, false);
        }
    }
    return "";
}

TEST(SpecRoundTrip, DegenerateValueThrowsNamingTheKeyOrRuns)
{
    // Every declared key of every prefetcher set to 0, plus Pythia's
    // upper bounds: each must be refused with a message naming the key
    // (never a crash), or build a prefetcher that survives training.
    std::vector<std::pair<std::string, std::string>> cases; // spec, key
    for (const auto& name : sim::prefetcherNames()) {
        const sim::PrefetcherEntry* entry =
            sim::PrefetcherRegistry::instance().find(name);
        ASSERT_NE(entry, nullptr) << name;
        for (const auto& key : entry->param_keys)
            cases.emplace_back(name + ":" + key + "=0", key);
    }
    for (const char* key_value :
         {"planes=9", "plane_index_bits=32", "plane_index_bits=17",
          "eq_size=65537", "features=PC/PC/PC/PC/PC/PC/PC/PC/PC"}) {
        const std::string kv = key_value;
        cases.emplace_back("pythia:" + kv, kv.substr(0, kv.find('=')));
    }
    for (const auto& [spec, key] : cases) {
        const std::string err = constructAndTrain(spec);
        if (!err.empty()) {
            EXPECT_NE(err.find(key), std::string::npos)
                << spec << ": " << err;
        }
    }
    // Each of these crashes the process without its constructor check:
    // it must be refused, not merely survive.
    for (const char* spec :
         {"pythia:degree=0", "pythia:planes=0", "pythia:planes=9",
          "pythia:eq_size=0", "pythia:plane_index_bits=32",
          "stride:entries=0", "spp:pt_ways=0", "spp_ppf:spp_pt_sets=0",
          "bingo:pht_sets=0", "streamer:streams=0"})
        EXPECT_FALSE(constructAndTrain(spec).empty()) << spec;
}

TEST(SpecRoundTrip, IllTypedValueNamesOwnerAndKey)
{
    const std::string err = errorOf("spp:max_lookahead=banana");
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("spp"), std::string::npos) << err;
    EXPECT_NE(err.find("max_lookahead"), std::string::npos) << err;
}

} // namespace
