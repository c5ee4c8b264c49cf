//===- bench/bench_fig4_energy_eyeriss.cpp - Paper Fig. 4 -----------------===//
//
// Reproduces Fig. 4: energy efficiency (pJ/MAC) of dataflow optimization
// on the *fixed* Eyeriss architecture, for every conv stage of ResNet-18
// and Yolo-9000, comparing the search-based Mapper baseline against
// Thistle, with the paper's EnergyUp = MapperEnergy / ThistleEnergy
// series. Expected shape: both in the 20-30 pJ/MAC band, Thistle slightly
// better (EnergyUp >= ~1). Then times one per-layer optimization.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <iostream>

using namespace thistle;
using namespace thistle::bench;

namespace {

void printFig4() {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy Machine = Hierarchy::classic3Level(Arch, Tech);
  ThistleOptions TOpts =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);

  TablePrinter Table({"layer", "mapper pJ/MAC", "thistle pJ/MAC",
                      "EnergyUp", "thistle GP solves"});
  double GeoMean = 0.0;
  unsigned Count = 0;
  for (const ConvLayer &L : allPaperLayers()) {
    Problem P = makeConvProblem(L);
    MultiMapperResult M = searchMultiMappings(
        P, Machine, mapperOptions(SearchObjective::Energy));
    ThistleResult T = optimizeLayer(P, Arch, Tech, TOpts);
    std::string MapperCell = M.Found
        ? TablePrinter::formatDouble(M.BestEval.EnergyPerMacPj, 2)
        : std::string("-");
    std::string ThistleCell =
        T.Found ? TablePrinter::formatDouble(T.Eval.EnergyPerMacPj, 2)
                : std::string("-");
    std::string UpCell = "-";
    if (M.Found && T.Found) {
      double Up = M.BestEval.EnergyPj / T.Eval.EnergyPj;
      UpCell = TablePrinter::formatDouble(Up, 3);
      GeoMean += std::log(Up);
      ++Count;
    }
    Table.addRow({L.Name, MapperCell, ThistleCell, UpCell,
                  std::to_string(T.Stats.PairsSolved)});
  }
  Table.print(std::cout);
  if (Count)
    std::printf("\ngeomean EnergyUp: %.3f (paper: Thistle slightly better, "
                "both 20-30 pJ/MAC)\n\n",
                std::exp(GeoMean / Count));
}

void timeThistleEnergyLayer(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  ThistleOptions O =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O));
}
BENCHMARK(timeThistleEnergyLayer)->Unit(benchmark::kMillisecond);

void timeMapperEnergyLayer(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  for (auto _ : State)
    benchmark::DoNotOptimize(searchMultiMappings(
        P, Machine, mapperOptions(SearchObjective::Energy)));
}
BENCHMARK(timeMapperEnergyLayer)->Unit(benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Fig. 4",
              "Energy on the fixed Eyeriss architecture: Mapper baseline "
              "vs Thistle (lower pJ/MAC is better)");
  printFig4();
  return runTimings(Argc, Argv);
}
