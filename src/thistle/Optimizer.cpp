//===- thistle/Optimizer.cpp - Thistle design-space optimizer -------------===//

#include "thistle/Optimizer.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PairSweep.h"

#include <optional>
#include <string>
#include <utility>

using namespace thistle;

ThistleResult thistle::optimizeLayer(const Problem &Prob,
                                     const ArchConfig &Arch,
                                     const TechParams &Tech,
                                     const ThistleOptions &Options,
                                     double AreaBudgetUm2) {
  return optimizeLayer(Prob, Arch, Tech, Options, LayerRunContext{},
                       AreaBudgetUm2);
}

ThistleResult thistle::optimizeLayer(const Problem &Prob,
                                     const ArchConfig &Arch,
                                     const TechParams &Tech,
                                     const ThistleOptions &Options,
                                     const LayerRunContext &Run,
                                     double AreaBudgetUm2) {
  ThistleResult Result;

  // Validate the user-reachable inputs once, before any GP is built.
  // The per-pair permutations come from our own enumeration, so an
  // empty-permutation spec covers everything the caller controls.
  {
    GpBuildSpec Probe;
    Probe.Mode = Options.Mode;
    Probe.Objective = Options.Objective;
    Probe.TiledIters = tiledIterators(Prob, Options);
    Probe.Arch = Arch;
    Probe.Tech = Tech;
    Probe.AreaBudgetUm2 = AreaBudgetUm2;
    Result.InputStatus = validateGpBuildSpec(Prob, Probe)
                             .withContext("validating optimizer inputs");
    if (!Result.InputStatus.isOk())
      return Result;
  }

  LayerSweepPlan Plan = planLayerSweep(Prob, Options);

  PairSweepContext Ctx{Prob,  Plan, Options, Arch,
                       Tech,  AreaBudgetUm2};
  Ctx.Cache = Run.Cache;
  Ctx.HasDeadline = resolveSweepDeadline(Options.Deadline,
                                         Options.DeadlineAt, Ctx.DeadlineAt);

  telemetry::beginEpoch();
  telemetry::TraceScope SweepSpan("thistle.optimize_layer");
  telemetry::count("thistle.sweeps");
  std::optional<ThreadPool> OwnPool;
  if (!Run.Pool)
    OwnPool.emplace(Options.Threads);
  ThreadPool &Pool = Run.Pool ? *Run.Pool : *OwnPool;
  SweepAccumulator Total = parallelReduce(
      Pool, Plan.Pairs.size(), SweepAccumulator{}, SweepAccumulator{},
      [&Ctx](SweepAccumulator &Acc, std::size_t TaskIdx) {
        runPairTask(Ctx, TaskIdx, Acc);
      },
      [](SweepAccumulator &A, std::size_t, SweepAccumulator &&B) {
        mergePairAccumulators(A, std::move(B));
      });
  if (telemetry::traceEnabled())
    SweepSpan.setDetail("pairs=" + std::to_string(Plan.Pairs.size()) +
                        " solved=" + std::to_string(Total.Report.Solved) +
                        " degraded=" +
                        std::to_string(Total.Report.Degraded));

  finishLayerResult(Plan, std::move(Total), Result);
  return Result;
}
