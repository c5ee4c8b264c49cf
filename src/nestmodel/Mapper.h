//===- nestmodel/Mapper.h - Search-based mapping baseline -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search-based baseline that plays the role of the Timeloop Mapper in
/// the paper's evaluation (Figs. 4 and 7): it explores the space of
/// mappings for a *fixed* architecture with randomized sampling plus
/// hill-climbing mutations, and terminates either after a maximum number
/// of trials (timeout) or after a number of consecutive non-improving
/// trials (the Mapper's "victory condition", paper section IV).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_NESTMODEL_MAPPER_H
#define THISTLE_NESTMODEL_MAPPER_H

#include "multilevel/MultiNestAnalysis.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Objective.h"
#include "support/Status.h"

#include <chrono>
#include <cstdint>

namespace thistle {

/// Search strategy, mirroring Timeloop's "various search strategies".
enum class MapperStrategy {
  /// Independent random samples only.
  RandomSampling,
  /// Random samples interleaved with greedy mutations of the incumbent
  /// (the default; a strong baseline).
  HillClimb,
  /// Simulated annealing over mutations with geometric cooling.
  Anneal,
};

/// Mapper search configuration.
struct MapperOptions {
  std::uint64_t Seed = 1;
  /// Maximum number of candidate mappings to evaluate (timeout).
  unsigned MaxTrials = 20000;
  /// Terminate after this many consecutive trials without improvement
  /// over the incumbent (victory condition).
  unsigned VictoryCondition = 4000;
  SearchObjective Objective = SearchObjective::Energy;
  MapperStrategy Strategy = MapperStrategy::HillClimb;
  /// Anneal only: initial acceptance temperature as a fraction of the
  /// first legal objective value, and per-trial cooling factor.
  double AnnealInitialTemp = 0.5;
  double AnnealCooling = 0.999;
  /// Worker threads for candidate evaluation (0 = one per hardware
  /// thread). The search runs in rounds of TrialsPerRound independently
  /// seeded trials whose bookkeeping is applied in slot order at the round
  /// boundary, so the result is bit-identical at every thread count.
  unsigned Threads = 0;
  /// Trials per round. Unlike Threads this is part of the search
  /// definition: RNG streams are seeded per (round, slot), so changing it
  /// changes the trajectory.
  unsigned TrialsPerRound = 64;
  /// Wall-clock budget (0 = unlimited), checked at round boundaries:
  /// once it expires no further round is issued and the incumbent best
  /// is returned with DeadlineExpired set. A search that never hits the
  /// deadline is bit-identical to an unbounded one (the RNG streams are
  /// per-(round, slot), untouched by the deadline check).
  std::chrono::milliseconds Deadline{0};
  /// Absolute deadline (steady clock); overrides Deadline when set.
  std::chrono::steady_clock::time_point DeadlineAt{};
  /// Cost-model backend for candidate scoring; null selects the nest
  /// model (bit-identical to the pre-interface behavior). Must be
  /// thread-safe: slots evaluate concurrently.
  const CostEvaluator *Evaluator = nullptr;
};

/// Why a mapper search returned when it did.
enum class MapperStopCause {
  /// No trial ran (input validation failed).
  None,
  /// The victory condition fired: VictoryCondition consecutive trials
  /// without improvement over the incumbent.
  Victory,
  /// The MaxTrials budget was exhausted (the Mapper's "timeout").
  MaxTrials,
  /// The wall-clock deadline expired at a round boundary.
  Deadline,
};

/// Printable name of a stop cause ("victory", "max-trials", ...).
const char *mapperStopCauseName(MapperStopCause Cause);

/// Search outcome over an L-level hierarchy.
struct MultiMapperResult {
  bool Found = false;        ///< True if any legal mapping was evaluated.
  /// Non-Ok when the hierarchy failed validation; no trial ran.
  Status InputStatus;
  /// True when the search stopped at the wall-clock deadline.
  bool DeadlineExpired = false;
  MultiMapping Best;         ///< Best legal mapping found.
  MultiEvalResult BestEval;  ///< Its metrics.
  unsigned Trials = 0;       ///< Candidates evaluated.
  unsigned LegalTrials = 0;
  /// What ended the search (victory, trial budget, or deadline).
  MapperStopCause StopCause = MapperStopCause::None;
};

/// Runs the stochastic mapping search for \p Prob on the fixed hierarchy
/// \p H. The classic paper machine is Hierarchy::classic3Level; there the
/// RNG streams, trial trajectory and winner are bit-identical to the
/// pre-unification fixed-depth search (tests/EquivalenceTest.cpp), at
/// every thread count.
MultiMapperResult searchMultiMappings(const Problem &Prob, const Hierarchy &H,
                                      const MapperOptions &Options);

} // namespace thistle

#endif // THISTLE_NESTMODEL_MAPPER_H
