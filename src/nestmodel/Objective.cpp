//===- nestmodel/Objective.cpp - Search objectives ------------------------===//

#include "nestmodel/Objective.h"

#include "multilevel/MultiNestAnalysis.h"
#include "nestmodel/Evaluator.h"

#include <cassert>
#include <iterator>

using namespace thistle;

const char *const ObjectiveNames[] = {"energy", "delay", "edp"};

const char *thistle::objectiveName(SearchObjective Objective) {
  return ObjectiveNames[static_cast<int>(Objective)];
}

Expected<SearchObjective> thistle::parseObjective(const std::string &Token) {
  for (std::size_t I = 0; I < std::size(ObjectiveNames); ++I)
    if (Token == ObjectiveNames[I])
      return static_cast<SearchObjective>(I);
  return Status::invalidArgument("unknown objective '" + Token + "'");
}

double thistle::objectiveValue(const EvalResult &Eval,
                               SearchObjective Objective) {
  switch (Objective) {
  case SearchObjective::Energy:
    return Eval.EnergyPj;
  case SearchObjective::Delay:
    return Eval.Cycles;
  case SearchObjective::EnergyDelayProduct:
    return Eval.EdpPjCycles;
  }
  assert(false && "unknown search objective");
  return 0.0;
}

double thistle::objectiveValue(const MultiEvalResult &Eval,
                               SearchObjective Objective) {
  switch (Objective) {
  case SearchObjective::Energy:
    return Eval.EnergyPj;
  case SearchObjective::Delay:
    return Eval.Cycles;
  case SearchObjective::EnergyDelayProduct:
    return Eval.EdpPjCycles;
  }
  assert(false && "unknown search objective");
  return 0.0;
}
