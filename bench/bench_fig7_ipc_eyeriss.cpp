//===- bench/bench_fig7_ipc_eyeriss.cpp - Paper Fig. 7 --------------------===//
//
// Reproduces Fig. 7: throughput (MAC IPC) of delay-optimized dataflows on
// the fixed Eyeriss architecture, Mapper baseline vs Thistle, with the
// SpeedUp = ThistleIPC / MapperIPC series. The theoretical maximum is the
// PE count (168). Expected shape: Thistle at least on par, with more
// pronounced differences than in the energy experiment.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <iostream>

using namespace thistle;
using namespace thistle::bench;

namespace {

void printFig7() {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy Machine = Hierarchy::classic3Level(Arch, Tech);
  ThistleOptions TOpts =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Delay);

  TablePrinter Table({"layer", "mapper IPC", "thistle IPC", "SpeedUp",
                      "thistle PEs used"});
  double GeoMean = 0.0;
  unsigned Count = 0;
  for (const ConvLayer &L : allPaperLayers()) {
    Problem P = makeConvProblem(L);
    MultiMapperResult M = searchMultiMappings(
        P, Machine, mapperOptions(SearchObjective::Delay));
    ThistleResult T = optimizeLayer(P, Arch, Tech, TOpts);
    std::string MCell =
        M.Found ? TablePrinter::formatDouble(M.BestEval.MacIpc, 1)
                : std::string("-");
    std::string TCell = T.Found
        ? TablePrinter::formatDouble(T.Eval.MacIpc, 1)
        : std::string("-");
    std::string Up = "-";
    if (M.Found && T.Found) {
      double S = T.Eval.MacIpc / M.BestEval.MacIpc;
      Up = TablePrinter::formatDouble(S, 3);
      GeoMean += std::log(S);
      ++Count;
    }
    Table.addRow({L.Name, MCell, TCell, Up,
                  T.Found ? std::to_string(T.Eval.Profile.PEsUsed)
                          : std::string("-")});
  }
  Table.print(std::cout);
  if (Count)
    std::printf("\ngeomean SpeedUp: %.3f (theoretical max IPC = 168)\n\n",
                std::exp(GeoMean / Count));
}

void timeThistleDelayLayer(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  ThistleOptions O =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Delay);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O));
}
BENCHMARK(timeThistleDelayLayer)->Unit(benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Fig. 7",
              "Throughput on the fixed Eyeriss architecture: Mapper vs "
              "Thistle (higher IPC is better; max = 168)");
  printFig7();
  return runTimings(Argc, Argv);
}
