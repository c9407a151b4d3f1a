/**
 * @file
 * The one component registry: a process-wide table of named factories
 * resolved from spec strings (common/spec.hpp). Prefetchers
 * (sim/prefetcher_registry.hpp) and workload generator families
 * (workloads/registry.hpp) are both a Registry; each keeps only the
 * grammar that is its own (prefetcher composition and "none", the
 * workload "phase:" form, seeding and canonical spelling).
 *
 * Every entry declares its name, the parameter keys its factory
 * accepts and the factory; a Registrar derives the keys from the
 * component config's knobs list (common/knobs.hpp). resolve() turns
 * one parsed spec part into
 * the entry plus its validated SpecParams, so an unknown name or key
 * is rejected with a "did you mean" hint before any factory runs. How
 * a registry names its components in those messages is constructor
 * data: the code below never branches on which registry it serves.
 *
 * Thread-safe: registration happens during static initialization
 * (before main, single-threaded), but resolve()/find()/names() are
 * called from sweep worker threads and take a shared lock, so a late
 * add() (a test registering a fixture) cannot race them. No lock is
 * held across a factory call: stack aliases re-enter their registry.
 * Pointers returned by find() stay valid for the process lifetime —
 * entries are never removed.
 */
#pragma once

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/knobs.hpp"
#include "common/params.hpp"
#include "common/spec.hpp"

namespace pythia {

template <typename FactoryT>
class Registry
{
  public:
    using Factory = FactoryT;

    /** One registered component. */
    struct Entry
    {
        std::string name; ///< spec name (lowercase)
        /** Parameter keys the factory accepts; anything else is
         *  rejected with a did-you-mean hint before the factory runs. */
        std::vector<std::string> param_keys;
        Factory factory;
        /** The numeric range rules of those keys, as spec values. */
        std::vector<KnobBound> bounds = {};
    };

    /** One resolved spec part: its entry and its validated params
     *  (keys sorted, last assignment wins). */
    struct Resolved
    {
        const Entry* entry = nullptr;
        SpecParams params;
    };

    /**
     * @param kind        what an entry is, in messages ("prefetcher")
     * @param list_label  heads the known-name list in the unknown-name
     *                    message ("known")
     * @param grammar_names names the owner's own grammar handles
     *                    ("phase"): listed by names(), never added
     */
    Registry(std::string kind, std::string list_label,
             std::vector<std::string> grammar_names = {})
        : kind_(std::move(kind)), list_label_(std::move(list_label)),
          grammar_names_(std::move(grammar_names))
    {
    }

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** @throws std::logic_error on a duplicate or grammar name. */
    void add(Entry entry)
    {
        for (const std::string& reserved : grammar_names_)
            if (entry.name == reserved)
                throw std::logic_error("'" + reserved + "' is reserved " +
                                       "by the " + kind_ + " grammar");
        std::unique_lock<std::shared_mutex> lock(mutex_);
        const std::string name = entry.name;
        if (!entries_.emplace(name, std::move(entry)).second)
            throw std::logic_error("duplicate " + kind_ +
                                   " registration: " + name);
    }

    /** Entry for @p name, or nullptr when unknown. */
    const Entry* find(const std::string& name) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const auto it = entries_.find(name);
        return it == entries_.end() ? nullptr : &it->second;
    }

    /** Registered names plus the grammar names, sorted. */
    std::vector<std::string> names() const
    {
        std::vector<std::string> out = grammar_names_;
        {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            for (const auto& kv : entries_)
                out.push_back(kv.first);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    /**
     * The entry @p part names, with its parameters validated against
     * the entry's keys.
     * @throws std::invalid_argument "unknown <kind> 'x'; did you mean
     *         'y'? (<list_label>: a, b)" for an unknown name, and the
     *         SpecParams message for an unknown key.
     */
    Resolved resolve(const ParsedSpec& part) const
    {
        const Entry* entry = find(part.name);
        if (!entry) {
            const std::vector<std::string> known = names();
            throw std::invalid_argument(
                "unknown " + kind_ + " '" + part.name + "'" +
                didYouMean(part.name, known) + " (" + list_label_ +
                ": " + joinKeys(known) + ")");
        }
        return {entry,
                SpecParams(entry->name, part.params, entry->param_keys)};
    }

  private:
    const std::string kind_;
    const std::string list_label_;
    const std::vector<std::string> grammar_names_;
    mutable std::shared_mutex mutex_;
    std::map<std::string, Entry> entries_;
};

/**
 * Static registrar: a file-scope instance adds one entry to
 * R::instance() at load time. The entry's keys, parse and bounds derive
 * from Config::knobs; its factory parses a spec's parameters over a
 * copy of @p base and hands the config (plus any further factory
 * arguments) to @p make.
 *
 *     [[maybe_unused]] const sim::PrefetcherRegistrar registrar{
 *         "stride", StrideConfig{}, [](const StrideConfig& c) {
 *             return std::make_unique<StridePrefetcher>(c);
 *         }};
 */
template <typename R>
struct Registrar
{
    template <class Config, class Make>
    Registrar(std::string name, Config base, Make make)
    {
        KnobDecl decl = declareKnobs<Config>();
        R::instance().add(
            {std::move(name), std::move(decl.keys),
             [base = std::move(base), make = std::move(make)](
                 const SpecParams& p, const auto&... rest) {
                 Config cfg = base;
                 parseKnobs(cfg, p);
                 return make(cfg, rest...);
             },
             std::move(decl.bounds)});
    }
};

} // namespace pythia
