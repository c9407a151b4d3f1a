/**
 * @file
 * Named Pythia configurations used across the evaluation: the basic
 * configuration of Table 2, the "strict" Ligra customization of §6.6.1
 * and the bandwidth-oblivious ablation of §6.3.3.
 */
#pragma once

#include "core/agent.hpp"

namespace pythia::rl {

/** Basic Pythia (paper Table 2). */
PythiaConfig basicPythiaConfig();

/**
 * Strict Pythia for graph suites (§6.6.1): harsher inaccuracy penalties
 * (R_IN^H=-22, R_IN^L=-20) and neutral no-prefetch rewards (R_NP=0),
 * trading coverage for accuracy.
 */
PythiaConfig strictPythiaConfig();

/**
 * Bandwidth-oblivious Pythia (§6.3.3): both R_IN levels set to -8 and
 * both R_NP levels to -4, erasing the bandwidth distinction.
 */
PythiaConfig bandwidthObliviousConfig();

/**
 * Rescale the learning-rate / exploration hyperparameters for
 * scaled-down simulation windows.
 *
 * The paper tunes alpha=0.0065 / epsilon=0.002 on 500M-instruction runs;
 * at this repository's default 100K-warmup / 300K-measure windows the
 * agent would see ~1000x fewer Q-updates and never leave its first
 * positive action. Scaling both rates keeps the *per-window* learning
 * progress comparable (see DESIGN.md §4). All harness "pythia*"
 * prefetchers use scaled configurations.
 */
PythiaConfig scaledForSimLength(PythiaConfig cfg);

} // namespace pythia::rl
