//===- bench/bench_ablation_mapper.cpp - Mapper strategy ablation ---------===//
//
// Ablates the search baseline that plays Timeloop Mapper's role: random
// sampling vs hill climbing vs simulated annealing, across trial budgets,
// against Thistle's single-shot result on a representative layer. Shows
// why the baseline needs large budgets (the paper gave Timeloop 100000
// trials and 3 hours per layer) while Thistle solves a handful of GPs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace thistle;
using namespace thistle::bench;

namespace {

const char *strategyName(MapperStrategy S) {
  switch (S) {
  case MapperStrategy::RandomSampling:
    return "random";
  case MapperStrategy::HillClimb:
    return "hill-climb";
  case MapperStrategy::Anneal:
    return "anneal";
  }
  return "?";
}

void printStrategyTable() {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy Machine = Hierarchy::classic3Level(Arch, Tech);
  ConvLayer L = yolo9000Layers()[6];
  Problem P = makeConvProblem(L);

  ThistleOptions TOpts =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);
  ThistleResult T = optimizeLayer(P, Arch, Tech, TOpts);

  TablePrinter Table({"strategy", "budget", "pJ/MAC", "trials used",
                      "legal"});
  for (MapperStrategy S :
       {MapperStrategy::RandomSampling, MapperStrategy::HillClimb,
        MapperStrategy::Anneal}) {
    for (unsigned Budget : {500u, 5000u, 20000u}) {
      MapperOptions MOpts = mapperOptions(SearchObjective::Energy);
      MOpts.Strategy = S;
      MOpts.MaxTrials = Budget;
      MOpts.VictoryCondition = Budget; // Let the budget dominate.
      MultiMapperResult M = searchMultiMappings(P, Machine, MOpts);
      Table.addRow({strategyName(S), std::to_string(Budget),
                    M.Found ? TablePrinter::formatDouble(
                                  M.BestEval.EnergyPerMacPj, 2)
                            : std::string("-"),
                    std::to_string(M.Trials),
                    std::to_string(M.LegalTrials)});
    }
  }
  Table.print(std::cout);
  if (T.Found)
    std::printf("\nThistle (no search): %.2f pJ/MAC from %u GP solves\n\n",
                T.Eval.EnergyPerMacPj, T.Stats.PairsSolved);
}

void timeMapperStrategy(benchmark::State &State) {
  Problem P = makeConvProblem(yolo9000Layers()[6]);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions O = mapperOptions(SearchObjective::Energy);
  O.Strategy = static_cast<MapperStrategy>(State.range(0));
  O.MaxTrials = 2000;
  O.VictoryCondition = 2000;
  for (auto _ : State)
    benchmark::DoNotOptimize(searchMultiMappings(P, Machine, O));
}
BENCHMARK(timeMapperStrategy)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Ablation: Mapper search strategies",
              "Random / hill-climb / anneal baselines vs budget "
              "(yolo-7 on Eyeriss, energy objective)");
  printStrategyTable();
  return runTimings(Argc, Argv);
}
