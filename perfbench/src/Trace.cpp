//===- perfbench/src/Trace.cpp - Link-time wrapped layer calls ------------===//
//
// The harness is linked with `--wrap=<symbol>` for each call below (see
// CMakeLists.txt), so every reference the libraries make to the symbol
// lands in __wrap_<symbol> here, and __real_<symbol> is the library's own
// definition. The wrappers are extern "C" only to carry the mangled names;
// their signatures are exactly those of the wrapped C++ functions.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "nestmodel/CostEvaluator.h"
#include "solver/GpSolver.h"
#include "thistle/GpBuilder.h"
#include "thistle/PairSweep.h"
#include "thistle/Rounding.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>

using namespace thistle;
using namespace perfbench::trace;

namespace {

/// One thread's records. Slots are owned by the global list and outlive
/// their threads, so collect() after a pool is gone still sees them.
struct Slot {
  LayerTotals Layers[NumLayers];
  std::vector<PairSpan> Pairs;
  Collected Counts; ///< Only the scalar counters are used.
};

std::mutex SlotsMutex;
std::vector<std::unique_ptr<Slot>> Slots;
std::atomic<bool> Enabled{false};
/// Pair tasks planned since beginOp(): the phase-1 grid size while the
/// network driver's phase 2 runs.
std::atomic<std::uint64_t> PlannedInOp{0};

thread_local Slot *Mine = nullptr;
/// The next solve on this thread follows a ProductOfTerms rebuild.
thread_local bool NextSolveIsFallback = false;

Slot &slot() {
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    Slots.push_back(std::make_unique<Slot>());
    Mine = Slots.back().get();
  }
  return *Mine;
}

struct Frame {
  std::uint64_t StartNs = 0;
  std::uint64_t ChildNs = 0;
};
thread_local std::vector<Frame> Stack;

/// An open span; finish() (or the destructor, on an exception path)
/// closes it and charges its duration to the enclosing span.
class Span {
public:
  explicit Span(Layer L) : L(L) { Stack.push_back({nowNs(), 0}); }
  ~Span() { finish(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  std::uint64_t finish() {
    if (Done)
      return DurNs;
    Done = true;
    Frame F = Stack.back();
    Stack.pop_back();
    EndNs = nowNs();
    DurNs = EndNs - F.StartNs;
    LayerTotals &T = slot().Layers[static_cast<unsigned>(L)];
    ++T.Calls;
    T.InclNs += DurNs;
    T.SelfNs += DurNs - std::min(F.ChildNs, DurNs);
    if (!Stack.empty())
      Stack.back().ChildNs += DurNs;
    return DurNs;
  }
  std::uint64_t endNs() const { return EndNs; }

private:
  Layer L;
  bool Done = false;
  std::uint64_t DurNs = 0, EndNs = 0;
};

std::uint64_t termCount(const GpProblem &Gp) {
  std::uint64_t N = Gp.objective().monomials().size() + Gp.equalities().size();
  for (const GpProblem::Constraint &C : Gp.constraints())
    N += C.Lhs.monomials().size();
  return N;
}

/// Counts one finished solve on this thread; \p Ns is its span time (0
/// untraced).
void countSolve(const GpSolution &Sol, std::uint64_t Ns) {
  Collected &C = slot().Counts;
  ++C.Solves;
  C.NewtonSteps += Sol.NewtonIterations;
  if (Sol.Outcome == SolveOutcome::Converged) {
    ++C.Converged;
    C.NewtonConverged += Sol.NewtonIterations;
  } else if (Sol.Outcome == SolveOutcome::Infeasible) {
    ++C.Infeasible;
    C.NewtonInfeasible += Sol.NewtonIterations;
    C.InfeasibleNs += Ns;
  }
  if (Sol.Feasible && Sol.Outcome != SolveOutcome::NonFinite)
    ++C.Useful;
  if (NextSolveIsFallback)
    ++C.FallbackSolves;
  NextSolveIsFallback = false;
}

const CostEvaluator &realNest();

/// The default backend with every evaluate() counted, and timed as an
/// Evaluator span while tracing.
class CountingEvaluator final : public CostEvaluator {
public:
  const char *name() const override { return realNest().name(); }
  MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                       const MultiMapping &Map) const override {
    return realNest().profile(Prob, H, Map);
  }
  MultiEvalResult evaluate(const Problem &Prob, const Hierarchy &H,
                           const MultiMapping &Map) const override {
    ++slot().Counts.Evals;
    if (!Enabled.load(std::memory_order_relaxed))
      return realNest().evaluate(Prob, H, Map);
    Span S(Layer::Evaluator);
    return realNest().evaluate(Prob, H, Map);
  }
};

} // namespace

extern "C" {
LayerSweepPlan
__real__ZN7thistle14planLayerSweepERKNS_7ProblemERKNS_14ThistleOptionsE(
    const Problem &, const ThistleOptions &);
void __real__ZN7thistle11runPairTaskERKNS_16PairSweepContextEmRNS_16SweepAccumulatorE(
    const PairSweepContext &, std::size_t, SweepAccumulator &);
GpBuild __real__ZN7thistle7buildGpERKNS_7ProblemERKNS_11GpBuildSpecE(
    const Problem &, const GpBuildSpec &);
GpSolution
__real__ZN7thistle16solveGpWithRetryERKNS_9GpProblemERKNS_15GpSolverOptionsEPNS_13GpSolveReportE(
    const GpProblem &, const GpSolverOptions &, GpSolveReport *);
GpSolution __real__ZN7thistle7solveGpERKNS_9GpProblemERKNS_15GpSolverOptionsE(
    const GpProblem &, const GpSolverOptions &);
RoundedDesign
__real__ZN7thistle13roundSolutionERKNS_7ProblemERKNS_11GpBuildSpecERKNS_12RealSolutionERKNS_15RoundingOptionsE(
    const Problem &, const GpBuildSpec &, const RealSolution &,
    const RoundingOptions &);
const CostEvaluator &__real__ZN7thistle17nestCostEvaluatorEv();

LayerSweepPlan
__wrap__ZN7thistle14planLayerSweepERKNS_7ProblemERKNS_14ThistleOptionsE(
    const Problem &Prob, const ThistleOptions &Options) {
  std::optional<Span> S;
  if (Enabled.load(std::memory_order_relaxed))
    S.emplace(Layer::Plan);
  LayerSweepPlan P =
      __real__ZN7thistle14planLayerSweepERKNS_7ProblemERKNS_14ThistleOptionsE(
          Prob, Options);
  PlannedInOp += P.Pairs.size();
  if (S)
    S->finish();
  slot().Counts.PlannedTasks += P.Pairs.size();
  return P;
}

void __wrap__ZN7thistle11runPairTaskERKNS_16PairSweepContextEmRNS_16SweepAccumulatorE(
    const PairSweepContext &Ctx, std::size_t TaskIdx, SweepAccumulator &Acc) {
  if (!Enabled.load(std::memory_order_relaxed))
    return __real__ZN7thistle11runPairTaskERKNS_16PairSweepContextEmRNS_16SweepAccumulatorE(
        Ctx, TaskIdx, Acc);
  PairSpan P;
  P.Phase2 = Ctx.SpanIndexBase + TaskIdx >= PlannedInOp.load();
  P.StartNs = nowNs();
  Span S(Layer::PairTask);
  __real__ZN7thistle11runPairTaskERKNS_16PairSweepContextEmRNS_16SweepAccumulatorE(
      Ctx, TaskIdx, Acc);
  S.finish();
  P.EndNs = S.endNs();
  slot().Pairs.push_back(P);
}

GpBuild __wrap__ZN7thistle7buildGpERKNS_7ProblemERKNS_11GpBuildSpecE(
    const Problem &Prob, const GpBuildSpec &Spec) {
  std::optional<Span> S;
  if (Enabled.load(std::memory_order_relaxed))
    S.emplace(Layer::GpBuild);
  GpBuild B =
      __real__ZN7thistle7buildGpERKNS_7ProblemERKNS_11GpBuildSpecE(Prob, Spec);
  if (S)
    S->finish();
  Collected &C = slot().Counts;
  ++C.GpBuilds;
  C.GpVars += B.Gp.variables().size();
  C.GpTerms += termCount(B.Gp);
  NextSolveIsFallback = Spec.Halo == HaloBound::ProductOfTerms;
  return B;
}

GpSolution
__wrap__ZN7thistle16solveGpWithRetryERKNS_9GpProblemERKNS_15GpSolverOptionsEPNS_13GpSolveReportE(
    const GpProblem &Gp, const GpSolverOptions &Options,
    GpSolveReport *Report) {
  std::optional<Span> S;
  if (Enabled.load(std::memory_order_relaxed))
    S.emplace(Layer::Solver);
  GpSolution Sol =
      __real__ZN7thistle16solveGpWithRetryERKNS_9GpProblemERKNS_15GpSolverOptionsEPNS_13GpSolveReportE(
          Gp, Options, Report);
  countSolve(Sol, S ? S->finish() : 0);
  return Sol;
}

// The single-attempt solve. Only the pair sweep's warm-start rung calls it
// from outside GpSolver.cpp; the retry ladder's own calls to it are in
// that file, so the linker leaves them unwrapped and nothing is counted
// twice.
GpSolution __wrap__ZN7thistle7solveGpERKNS_9GpProblemERKNS_15GpSolverOptionsE(
    const GpProblem &Gp, const GpSolverOptions &Options) {
  std::optional<Span> S;
  if (Enabled.load(std::memory_order_relaxed))
    S.emplace(Layer::Solver);
  GpSolution Sol =
      __real__ZN7thistle7solveGpERKNS_9GpProblemERKNS_15GpSolverOptionsE(
          Gp, Options);
  countSolve(Sol, S ? S->finish() : 0);
  ++slot().Counts.WarmSolves;
  return Sol;
}

RoundedDesign
__wrap__ZN7thistle13roundSolutionERKNS_7ProblemERKNS_11GpBuildSpecERKNS_12RealSolutionERKNS_15RoundingOptionsE(
    const Problem &Prob, const GpBuildSpec &Spec, const RealSolution &Real,
    const RoundingOptions &Options) {
  std::optional<Span> S;
  if (Enabled.load(std::memory_order_relaxed))
    S.emplace(Layer::Round);
  RoundedDesign D =
      __real__ZN7thistle13roundSolutionERKNS_7ProblemERKNS_11GpBuildSpecERKNS_12RealSolutionERKNS_15RoundingOptionsE(
          Prob, Spec, Real, Options);
  if (S)
    S->finish();
  Collected &C = slot().Counts;
  ++C.Roundings;
  C.Candidates += D.CandidatesTried;
  return D;
}

const CostEvaluator &__wrap__ZN7thistle17nestCostEvaluatorEv() {
  static const CountingEvaluator Counting;
  return Counting;
}
} // extern "C"

namespace {
const CostEvaluator &realNest() {
  return __real__ZN7thistle17nestCostEvaluatorEv();
}
} // namespace

void perfbench::trace::setEnabled(bool On) { Enabled = On; }

void perfbench::trace::reset() {
  std::lock_guard<std::mutex> Lock(SlotsMutex);
  for (std::unique_ptr<Slot> &S : Slots)
    *S = Slot();
  PlannedInOp = 0;
}

void perfbench::trace::beginOp() { PlannedInOp = 0; }

Collected perfbench::trace::collect() {
  std::lock_guard<std::mutex> Lock(SlotsMutex);
  Collected Out;
  for (const std::unique_ptr<Slot> &S : Slots) {
    for (unsigned L = 0; L < NumLayers; ++L) {
      Out.Layers[L].Calls += S->Layers[L].Calls;
      Out.Layers[L].InclNs += S->Layers[L].InclNs;
      Out.Layers[L].SelfNs += S->Layers[L].SelfNs;
    }
    Out.PlannedTasks += S->Counts.PlannedTasks;
    Out.Pairs.insert(Out.Pairs.end(), S->Pairs.begin(), S->Pairs.end());
    const Collected &C = S->Counts;
    Out.GpBuilds += C.GpBuilds;
    Out.Solves += C.Solves;
    Out.Roundings += C.Roundings;
    Out.Evals += C.Evals;
    Out.GpVars += C.GpVars;
    Out.GpTerms += C.GpTerms;
    Out.Converged += C.Converged;
    Out.Infeasible += C.Infeasible;
    Out.Useful += C.Useful;
    Out.FallbackSolves += C.FallbackSolves;
    Out.WarmSolves += C.WarmSolves;
    Out.NewtonSteps += C.NewtonSteps;
    Out.NewtonInfeasible += C.NewtonInfeasible;
    Out.NewtonConverged += C.NewtonConverged;
    Out.InfeasibleNs += C.InfeasibleNs;
    Out.Candidates += C.Candidates;
  }
  std::sort(Out.Pairs.begin(), Out.Pairs.end(),
            [](const PairSpan &A, const PairSpan &B) {
              return A.StartNs < B.StartNs;
            });
  return Out;
}

double perfbench::trace::pairUnionSeconds(const std::vector<PairSpan> &Pairs,
                                          int Phase) {
  std::uint64_t Total = 0, OpenStart = 0, OpenEnd = 0;
  bool Open = false;
  for (const PairSpan &P : Pairs) { // sorted by start
    if (Phase && P.Phase2 != (Phase == 2))
      continue;
    if (Open && P.StartNs <= OpenEnd) {
      OpenEnd = std::max(OpenEnd, P.EndNs);
      continue;
    }
    if (Open)
      Total += OpenEnd - OpenStart;
    Open = true;
    OpenStart = P.StartNs;
    OpenEnd = P.EndNs;
  }
  if (Open)
    Total += OpenEnd - OpenStart;
  return static_cast<double>(Total) * 1e-9;
}

std::uint64_t perfbench::trace::nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
