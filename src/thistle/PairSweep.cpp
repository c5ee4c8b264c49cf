//===- thistle/PairSweep.cpp - Shared perm-class pair sweep core ----------===//

#include "thistle/PairSweep.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <exception>
#include <tuple>
#include <utility>

using namespace thistle;

std::vector<unsigned> thistle::tiledIterators(const Problem &Prob,
                                              const ThistleOptions &Options) {
  std::vector<unsigned> Out;
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    const Iterator &It = Prob.iterators()[I];
    if (It.Extent <= 1)
      continue;
    bool Untiled =
        std::find(Options.UntiledIterNames.begin(),
                  Options.UntiledIterNames.end(),
                  It.Name) != Options.UntiledIterNames.end();
    if (!Untiled)
      Out.push_back(I);
  }
  return Out;
}

namespace {

/// Replays a cached pair outcome into the accumulator: the same report
/// record, stat deltas, telemetry counts and winner update the miss
/// path would have produced, without building or solving the GP.
void replayCacheEntry(const GpCacheEntry &Entry, const PairTask &Task,
                      std::size_t TaskIdx, SweepAccumulator &Acc) {
  Acc.NewtonIterations += Entry.NewtonIterations;
  if (Entry.GpInfeasible)
    ++Acc.GpInfeasible;
  Acc.Report.record(Entry.Outcome, TaskIdx, Task.QI, Task.SI,
                    Entry.Attempts, Entry.Detail);
  if (Entry.Outcome != TaskOutcome::Solved &&
      Entry.Outcome != TaskOutcome::Degraded)
    return;
  telemetry::count("thistle.pairs.solved");
  Acc.CandidatesEvaluated += Entry.Design.CandidatesTried;
  if (telemetry::metricsEnabled())
    telemetry::count("thistle.rounding.candidates",
                     Entry.Design.CandidatesTried);
  if (!Entry.Design.Found)
    return;
  if (telemetry::metricsEnabled() && Entry.ModelObjective > 0.0)
    telemetry::observe("thistle.rounding.rel_delta",
                       (Entry.Obj - Entry.ModelObjective) /
                           Entry.ModelObjective);
  if (pairWinsOver(Entry.Obj, Task.QI, Task.SI, Acc)) {
    Acc.Found = true;
    Acc.Obj = Entry.Obj;
    Acc.QI = Task.QI;
    Acc.SI = Task.SI;
    Acc.Design = Entry.Design;
    Acc.ModelObjective = Entry.ModelObjective;
  }
}

} // namespace

LayerSweepPlan thistle::planLayerSweep(const Problem &Prob,
                                       const ThistleOptions &Options) {
  LayerSweepPlan Plan;
  Plan.TiledIters = tiledIterators(Prob, Options);

  // The class enumeration is a function of the problem and the tiled
  // iterator set only, so the two temporal levels share it.
  Plan.Classes = enumeratePermClasses(Prob, Plan.TiledIters);
  for (const PermClass &C : Plan.Classes)
    Plan.RawPermsPerLevel += C.MemberCount;

  const std::vector<ProblemSymmetry> Symmetries = findProblemSymmetries(Prob);

  // Symmetry pruning and the pair cap depend on the enumeration order,
  // so the task list is fixed here, before any fan-out. Capped pairs
  // are recorded as policy skips with indices following the planned
  // tasks (every capped pair enumerates after the cap fills), keeping
  // the merged incident list in ascending task order.
  const unsigned Cap = Options.MaxPermClassPairs;
  unsigned Capped = 0;
  for (std::size_t QI = 0; QI < Plan.Classes.size(); ++QI) {
    for (std::size_t SI = 0; SI < Plan.Classes.size(); ++SI) {
      ++Plan.PairsTotal;

      // Symmetry pruning: skip a pair if a problem symmetry maps it to a
      // lexicographically smaller pair (its mirror image was/will be
      // solved instead).
      bool Skip = false;
      for (const ProblemSymmetry &Sym : Symmetries) {
        PermSignature MappedQ =
            Plan.Classes[QI].Signature.mapped(Sym.IterMap, Sym.TensorMap);
        PermSignature MappedS =
            Plan.Classes[SI].Signature.mapped(Sym.IterMap, Sym.TensorMap);
        if (std::tie(MappedQ, MappedS) <
            std::tie(Plan.Classes[QI].Signature,
                     Plan.Classes[SI].Signature)) {
          Skip = true;
          break;
        }
      }
      if (Skip) {
        ++Plan.PairsSkippedBySymmetry;
        continue;
      }
      if (Cap && Plan.Pairs.size() >= Cap) {
        Plan.CappedReport.recordPolicySkip(
            Cap + Capped, QI, SI,
            "dropped by the MaxPermClassPairs pair cap");
        ++Capped;
        continue;
      }
      Plan.Pairs.push_back({QI, SI});
    }
  }
  return Plan;
}

bool thistle::pairWinsOver(double Obj, std::size_t QI, std::size_t SI,
                           const SweepAccumulator &Acc) {
  // The deterministic winner order reproduces the sequential sweep
  // exactly, where a later pair only displaced the incumbent on a
  // strictly smaller objective.
  return !Acc.Found ||
         std::tie(Obj, QI, SI) < std::tie(Acc.Obj, Acc.QI, Acc.SI);
}

void thistle::runPairTask(const PairSweepContext &Ctx, std::size_t TaskIdx,
                          SweepAccumulator &Acc) {
  const LayerSweepPlan &Plan = Ctx.Plan;
  const ThistleOptions &Options = Ctx.Options;
  const PairTask &Task = Plan.Pairs[TaskIdx];
  telemetry::TraceScope PairSpan("thistle.pair",
                                 Ctx.SpanIndexBase + TaskIdx);

  if (Ctx.HasDeadline &&
      std::chrono::steady_clock::now() >= Ctx.DeadlineAt) {
    Acc.Report.DeadlineExpired = true;
    Acc.Report.record(TaskOutcome::Skipped, TaskIdx, Task.QI, Task.SI, 0,
                      "deadline expired before the pair was attempted");
    return;
  }
  if (fault::shouldFail("thistle.pair",
                        static_cast<std::int64_t>(TaskIdx))) {
    Acc.Report.record(TaskOutcome::Failed, TaskIdx, Task.QI, Task.SI, 0,
                      "injected fault at site thistle.pair");
    return;
  }

  // Cache hit: replay the recorded outcome and skip the solve.
  // Deadline- and fault-killed tasks never reach the insert below, so
  // what is replayed is always a genuinely computed outcome.
  std::string Key;
  if (Ctx.Cache) {
    Key = gpCacheKey(Ctx.Prob, Options, Ctx.Arch, Ctx.Tech,
                     Ctx.AreaBudgetUm2, Plan.TiledIters,
                     Plan.Classes[Task.QI].Representative,
                     Plan.Classes[Task.SI].Representative);
    GpCacheEntry Hit;
    if (Ctx.Cache->lookup(Key, Hit)) {
      ++Acc.CacheHits;
      telemetry::count("thistle.cache.hit");
      if (telemetry::traceEnabled())
        PairSpan.setDetail(std::string("cache-hit ") +
                           taskOutcomeName(Hit.Outcome));
      replayCacheEntry(Hit, Task, TaskIdx, Acc);
      return;
    }
    ++Acc.CacheMisses;
    telemetry::count("thistle.cache.miss");
  }

  try {
    GpBuildSpec Spec;
    Spec.Mode = Options.Mode;
    Spec.Objective = Options.Objective;
    Spec.PePerm = Plan.Classes[Task.QI].Representative;
    Spec.DramPerm = Plan.Classes[Task.SI].Representative;
    Spec.TiledIters = Plan.TiledIters;
    Spec.SpatialUntiled = Options.SpatialUntiled;
    Spec.Arch = Ctx.Arch;
    Spec.Tech = Ctx.Tech;
    Spec.AreaBudgetUm2 = Ctx.AreaBudgetUm2;

    GpCacheEntry Entry;
    unsigned TaskNewton = 0;

    GpSolveReport Solve;
    GpBuild Build = buildGp(Ctx.Prob, Spec);
    GpSolution Solution =
        solveGpWithRetry(Build.Gp, Options.Solver, &Solve);
    TaskNewton += Solution.NewtonIterations;
    unsigned Attempts = Solve.attempts();
    if (!Solution.Feasible) {
      // The drop-negative halo bound can reject tiny register files
      // that are actually feasible; retry with the product bound,
      // which is exact in the small-tile regime.
      Spec.Halo = HaloBound::ProductOfTerms;
      Build = buildGp(Ctx.Prob, Spec);
      GpSolveReport Fallback;
      Solution = solveGpWithRetry(Build.Gp, Options.Solver, &Fallback);
      TaskNewton += Solution.NewtonIterations;
      Attempts += Fallback.attempts();
    }
    Acc.NewtonIterations += TaskNewton;
    Entry.NewtonIterations = TaskNewton;
    Entry.Attempts = Attempts;

    if (!Solution.Feasible ||
        Solution.Outcome == SolveOutcome::NonFinite) {
      // Keep the historical stat for ANY pair that yields no feasible
      // iterate, whatever the cause, so Stats stay comparable.
      ++Acc.GpInfeasible;
      Entry.GpInfeasible = true;
      TaskOutcome Outcome =
          Solution.Outcome == SolveOutcome::Infeasible
              ? TaskOutcome::Infeasible
              : TaskOutcome::Failed;
      Entry.Outcome = Outcome;
      Entry.Detail = Solution.Failure.empty()
                         ? std::string(solveOutcomeName(Solution.Outcome))
                         : Solution.Failure;
      Acc.Report.record(Outcome, TaskIdx, Task.QI, Task.SI, Attempts,
                        Entry.Detail);
      if (telemetry::traceEnabled())
        PairSpan.setDetail(taskOutcomeName(Outcome));
      if (Ctx.Cache)
        Ctx.Cache->insert(Key, std::move(Entry));
      return;
    }
    // Feasible but not converged: accept the best iterate (as the
    // sweep always has), flagged Degraded in the report.
    Entry.Outcome = Solution.Converged ? TaskOutcome::Solved
                                       : TaskOutcome::Degraded;
    Entry.Detail = Solution.Converged ? std::string() : Solution.Failure;
    Acc.Report.record(Entry.Outcome, TaskIdx, Task.QI, Task.SI, Attempts,
                      Entry.Detail);

    if (telemetry::traceEnabled())
      PairSpan.setDetail(
          std::string(Solution.Converged ? "solved" : "degraded") +
          " attempts=" + std::to_string(Attempts));
    telemetry::count("thistle.pairs.solved");

    RealSolution Real = extractSolution(Ctx.Prob, Build, Spec, Solution);
    RoundedDesign Design =
        roundSolution(Ctx.Prob, Spec, Real, Options.Rounding);
    Acc.CandidatesEvaluated += Design.CandidatesTried;
    if (telemetry::metricsEnabled())
      telemetry::count("thistle.rounding.candidates",
                       Design.CandidatesTried);
    Entry.ModelObjective = Real.Objective;
    if (!Design.Found) {
      Entry.Design = Design;
      if (Ctx.Cache)
        Ctx.Cache->insert(Key, std::move(Entry));
      return;
    }

    double Obj = objectiveValue(Design.Eval, Options.Objective);
    // The rounding gap: how much the integer design lost (or, rarely,
    // gained) relative to the relaxed GP optimum for this pair.
    if (telemetry::metricsEnabled() && Real.Objective > 0.0)
      telemetry::observe("thistle.rounding.rel_delta",
                         (Obj - Real.Objective) / Real.Objective);
    Entry.Obj = Obj;
    Entry.Design = Design;
    if (Ctx.Cache)
      Ctx.Cache->insert(Key, std::move(Entry));
    if (pairWinsOver(Obj, Task.QI, Task.SI, Acc)) {
      Acc.Found = true;
      Acc.Obj = Obj;
      Acc.QI = Task.QI;
      Acc.SI = Task.SI;
      Acc.Design = std::move(Design);
      Acc.ModelObjective = Real.Objective;
    }
  } catch (const std::exception &E) {
    Acc.Report.record(TaskOutcome::Failed, TaskIdx, Task.QI, Task.SI, 0,
                      std::string("exception: ") + E.what());
  }
}

void thistle::mergePairAccumulators(SweepAccumulator &A,
                                    SweepAccumulator &&B) {
  A.NewtonIterations += B.NewtonIterations;
  A.GpInfeasible += B.GpInfeasible;
  A.CandidatesEvaluated += B.CandidatesEvaluated;
  A.CacheHits += B.CacheHits;
  A.CacheMisses += B.CacheMisses;
  A.Report.merge(std::move(B.Report));
  if (B.Found && pairWinsOver(B.Obj, B.QI, B.SI, A)) {
    A.Found = true;
    A.Obj = B.Obj;
    A.QI = B.QI;
    A.SI = B.SI;
    A.Design = std::move(B.Design);
    A.ModelObjective = B.ModelObjective;
  }
}

void thistle::finishLayerResult(const LayerSweepPlan &Plan,
                                SweepAccumulator &&Total,
                                ThistleResult &Result) {
  Result.Stats.PermClassesPerLevel =
      static_cast<unsigned>(Plan.Classes.size());
  Result.Stats.RawPermsPerLevel = Plan.RawPermsPerLevel;
  Result.Stats.PairsTotal = Plan.PairsTotal;
  Result.Stats.PairsSkippedBySymmetry = Plan.PairsSkippedBySymmetry;
  Result.Stats.PairsPlanned = static_cast<unsigned>(Plan.Pairs.size());
  Result.Stats.NewtonIterations = Total.NewtonIterations;
  Result.Stats.GpInfeasible = Total.GpInfeasible;
  Result.Stats.CandidatesEvaluated = Total.CandidatesEvaluated;
  Result.Stats.CacheHits = Total.CacheHits;
  Result.Stats.CacheMisses = Total.CacheMisses;
  Result.Report = std::move(Total.Report);
  // Capped pairs enumerate after the planned ones, so appending their
  // pre-recorded skips keeps the incident list in ascending task order.
  Result.Report.merge(SweepReport(Plan.CappedReport));
  // The fixed accounting: PairsSolved counts what actually produced an
  // iterate (clean or degraded), not what was planned.
  Result.Stats.PairsSolved = Result.Report.Solved + Result.Report.Degraded;
  if (Total.Found) {
    Result.Found = true;
    Result.Arch = Total.Design.Arch;
    Result.Map = std::move(Total.Design.Map);
    Result.Eval = Total.Design.Eval;
    Result.ModelObjective = Total.ModelObjective;
    Result.BestPePerm = Plan.Classes[Total.QI].Representative;
    Result.BestDramPerm = Plan.Classes[Total.SI].Representative;
  }
}
