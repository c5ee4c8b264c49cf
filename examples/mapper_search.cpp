//===- examples/mapper_search.cpp - Search baseline vs Thistle ------------===//
//
// Uses the library's search-based Mapper (the Timeloop-Mapper stand-in of
// Figs. 4 and 7) directly on one Yolo-9000 layer and compares it against
// Thistle's single-shot optimization, for both objectives.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace thistle;

int main() {
  ConvLayer Layer = yolo9000Layers()[6]; // 512x256x34x34, 3x3.
  Problem Prob = makeConvProblem(Layer);
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy Machine = Hierarchy::classic3Level(Arch, Tech);

  std::printf("layer %s on Eyeriss\n\n", Layer.Name.c_str());

  for (SearchObjective Obj :
       {SearchObjective::Energy, SearchObjective::Delay}) {
    const char *Name = Obj == SearchObjective::Energy ? "energy" : "delay";

    MapperOptions MOpts;
    MOpts.Objective = Obj;
    MOpts.MaxTrials = 20000;
    MOpts.VictoryCondition = 4000;
    MultiMapperResult M = searchMultiMappings(Prob, Machine, MOpts);

    ThistleOptions TOpts;
    TOpts.Objective = Obj;
    ThistleResult T = optimizeLayer(Prob, Arch, Tech, TOpts);

    std::printf("--- objective: %s ---\n", Name);
    if (M.Found)
      std::printf("mapper:  %8.2f pJ/MAC, IPC %7.1f  (%u trials, %u "
                  "legal)\n",
                  M.BestEval.EnergyPerMacPj, M.BestEval.MacIpc, M.Trials,
                  M.LegalTrials);
    else
      std::printf("mapper: no legal mapping found\n");
    if (T.Found)
      std::printf("thistle: %8.2f pJ/MAC, IPC %7.1f  (%u GP solves, %u "
                  "Newton iters)\n",
                  T.Eval.EnergyPerMacPj, T.Eval.MacIpc,
                  T.Stats.PairsSolved, T.Stats.NewtonIterations);
    else
      std::printf("thistle: no legal design found\n");
    if (M.Found && T.Found) {
      if (Obj == SearchObjective::Energy)
        std::printf("EnergyUp (mapper/thistle): %.3f\n",
                    M.BestEval.EnergyPj / T.Eval.EnergyPj);
      else
        std::printf("SpeedUp (thistle IPC / mapper IPC): %.3f\n",
                    T.Eval.MacIpc / M.BestEval.MacIpc);
    }
    std::printf("\n");
  }
  return 0;
}
