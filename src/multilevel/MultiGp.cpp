//===- multilevel/MultiGp.cpp - L-level GP generation & optimizer ---------===//

#include "multilevel/MultiGp.h"

#include "expr/FactoredExpr.h"
#include "support/FaultInjection.h"
#include "support/MathUtil.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PermutationSpace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <numeric>
#include <sstream>

using namespace thistle;

namespace {

/// Variable handles of one multilevel GP.
struct MultiVars {
  /// T[l][i]: trip-count variable of iterator i at temporal level l.
  std::vector<std::vector<VarId>> T;
  /// P[i]: spatial trip-count variable.
  std::vector<VarId> P;
};

MultiVars internVars(const Problem &Prob, unsigned NumLevels,
                     VarTable &Vars) {
  MultiVars V;
  V.T.resize(NumLevels);
  for (unsigned L = 0; L < NumLevels; ++L)
    for (const Iterator &It : Prob.iterators())
      V.T[L].push_back(
          Vars.intern("t" + std::to_string(L) + "_" + It.Name));
  for (const Iterator &It : Prob.iterators())
    V.P.push_back(Vars.intern("p_" + It.Name));
  return V;
}

/// Level-0 footprint of one tensor over the t0 variables, with the
/// halo arithmetic of section III-A.
FactoredExpr levelZeroFootprint(const Problem &Prob, unsigned TensorIdx,
                                const MultiVars &V) {
  const Tensor &T = Prob.tensors()[TensorIdx];
  FactoredExpr DF;
  for (const DimRef &D : T.Dims) {
    Signomial Extent;
    std::int64_t StrideSum = 0;
    for (const DimRef::Term &Term : D.Terms) {
      Extent += Signomial(Monomial::variable(
          V.T[0][Term.Iter], 1.0, static_cast<double>(Term.Stride)));
      StrideSum += Term.Stride;
    }
    if (StrideSum != 1)
      Extent += Signomial::constant(-static_cast<double>(StrideSum - 1));
    DF.pushFactor(Extent);
  }
  return DF;
}

/// The symbolic model of one tensor on one hierarchy: footprints per
/// level and volumes per boundary, chained with Algorithm 1 exactly as
/// thistle/ExprGen does for the fixed depth.
struct TensorChain {
  std::vector<FactoredExpr> DF; ///< Footprint at each level (post-walk).
  std::vector<FactoredExpr> DV; ///< Volume across each boundary.
};

TensorChain buildChain(const Problem &Prob, const Hierarchy &H,
                       unsigned TensorIdx, const MultiVars &V,
                       const std::vector<std::vector<unsigned>> &Perms,
                       const std::vector<unsigned> &TiledIters) {
  const Tensor &T = Prob.tensors()[TensorIdx];
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;

  TensorChain Chain;
  Chain.DF.resize(L);
  Chain.DV.resize(H.numBoundaries());
  Chain.DF[0] = levelZeroFootprint(Prob, TensorIdx, V);

  FactoredExpr DF = Chain.DF[0];
  for (unsigned Lv = 1; Lv < L; ++Lv) {
    // The spatial fan-out sits below level F: the level-F tile spans the
    // grid along present iterators.
    if (Lv == F)
      for (unsigned I = 0; I < Prob.numIterators(); ++I) {
        if (!T.usesIter(I))
          continue;
        // Substitute the deepest chained variable still present (the
        // level-(F-1) var for tiled iterators, t0 for untiled ones).
        for (unsigned Back = F; Back > 0; --Back) {
          VarId Target = V.T[Back - 1][I];
          if (DF.mentions(Target)) {
            DF = DF.substituted(Target, Monomial::variable(V.P[I]) *
                                            Monomial::variable(Target));
            break;
          }
        }
      }

    // Algorithm 1 at level Lv (inner-to-outer walk of its loops).
    FactoredExpr DV = DF;
    if (T.ReadWrite)
      DV.multiplyPrefix(Monomial(2.0));
    bool CanHoist = true;
    const std::vector<unsigned> &Perm = Perms[Lv];
    for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
      unsigned It = Perm[Pos - 1];
      VarId LevelVar = V.T[Lv][It];
      VarId PrevVar = V.T[Lv - 1][It];
      Monomial Repl =
          Monomial::variable(LevelVar) * Monomial::variable(PrevVar);
      if (CanHoist) {
        if (T.usesIter(It)) {
          CanHoist = false;
          DF = DF.substituted(PrevVar, Repl);
          DV = DV.substituted(PrevVar, Repl);
        }
      } else {
        if (T.usesIter(It))
          DF = DF.substituted(PrevVar, Repl);
        DV.multiplyPrefix(Monomial::variable(LevelVar));
      }
    }

    // Multipliers above the walked level and the spatial rules (see
    // MultiNestAnalysis): all trips of higher levels; all spatial trips
    // for private boundaries; present-only at the fan-out boundary.
    for (unsigned M = Lv + 1; M < L; ++M)
      for (unsigned I : TiledIters)
        DV.multiplyPrefix(Monomial::variable(V.T[M][I]));
    if (Lv < F) {
      for (unsigned I : TiledIters)
        DV.multiplyPrefix(Monomial::variable(V.P[I]));
    } else if (Lv == F) {
      for (unsigned I : TiledIters)
        if (T.usesIter(I))
          DV.multiplyPrefix(Monomial::variable(V.P[I]));
    }
    Chain.DV[Lv - 1] = DV;
    Chain.DF[Lv] = DF;
  }
  return Chain;
}

/// One per-iterator integer chain of cumulative tile extents:
/// v_0 | v_1 | ... | v_{F-1} | v_sp | v_F | ... | v_{L-1} = N.
using IterChain = std::vector<std::int64_t>;

/// Converts a chain to the per-level factors of one iterator.
void chainToFactors(const IterChain &Chain, unsigned L, unsigned F,
                    MultiMapping &Map, unsigned Iter) {
  Map.TempFactors[0][Iter] = Chain[0];
  for (unsigned Lv = 1; Lv < L; ++Lv) {
    unsigned Pos = Lv < F ? Lv : Lv + 1; // Skip the spatial slot.
    Map.TempFactors[Lv][Iter] = Chain[Pos] / Chain[Pos - 1];
  }
  Map.SpatialFactors[Iter] = Chain[F] / Chain[F - 1];
}

} // namespace

MultiResult thistle::optimizeHierarchy(const Problem &Prob,
                                       const Hierarchy &H,
                                       const MultiOptions &Options) {
  const CostEvaluator &Evaluator = resolveCostEvaluator(Options.Evaluator);
  {
    MultiResult Invalid;
    std::string HierErr = H.validate();
    if (!HierErr.empty()) {
      Invalid.InputStatus = Status::invalidArgument(std::move(HierErr))
                                .withContext("validating hierarchy");
      return Invalid;
    }
    if (Options.CoDesignCapacities &&
        !(Options.AreaBudgetUm2 > 0.0 &&
          std::isfinite(Options.AreaBudgetUm2))) {
      Invalid.InputStatus =
          Status::invalidArgument(
              "capacity co-design needs a positive finite area budget, "
              "got " + std::to_string(Options.AreaBudgetUm2))
              .withContext("validating multilevel options");
      return Invalid;
    }
  }
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const unsigned NumIters = Prob.numIterators();
  MultiResult Result;

  // Tiled iterators (extent > 1, not named untiled).
  std::vector<unsigned> Tiled;
  for (unsigned I = 0; I < NumIters; ++I) {
    const Iterator &It = Prob.iterators()[I];
    if (It.Extent <= 1)
      continue;
    if (std::find(Options.UntiledIterNames.begin(),
                  Options.UntiledIterNames.end(),
                  It.Name) == Options.UntiledIterNames.end())
      Tiled.push_back(I);
  }

  // Permutation classes shared by every permuted level; combinations are
  // spread evenly under the cap.
  std::vector<PermClass> Classes = enumeratePermClasses(Prob, Tiled);
  const unsigned NumSlots = L - 1;
  double TotalCombos = std::pow(static_cast<double>(Classes.size()),
                                static_cast<double>(NumSlots));
  std::size_t Combos = static_cast<std::size_t>(
      std::min<double>(TotalCombos, Options.MaxPermCombos));

  // One combo's result in the combo sweep: its winner plus the solver
  // counters. Each combo folds into its own and the results merge in
  // combo order with a strict minimum, so the reduction
  // reproduces the serial first-minimum winner at every thread count
  // (each combo's Tried budget is already per-combo, and the serial
  // incumbent never pruned later combos).
  struct ComboAcc {
    bool Found = false;
    MultiMapping Map;
    MultiEvalResult Eval;
    Hierarchy Arch;
    double ModelObjective = 0.0;
    double BestObj = 0.0;
    unsigned CombosSolved = 0;
    unsigned GpInfeasible = 0;
    SweepReport Report;
  };

  std::chrono::steady_clock::time_point DeadlineAt;
  const bool HasDeadline =
      resolveSweepDeadline(Options.Deadline, Options.DeadlineAt, DeadlineAt);

  // The build -> solve -> round -> evaluate chain of one combination;
  // runCombo below wraps it with the deadline/fault/exception guards.
  auto comboBody = [&](ComboAcc &Local, std::size_t Combo,
                       std::size_t FullIndex) {
    std::size_t Index = FullIndex;
    std::vector<std::vector<unsigned>> TiledPerms(L);
    for (unsigned Slot = 1; Slot < L; ++Slot) {
      TiledPerms[Slot] = Classes[Index % Classes.size()].Representative;
      Index /= Classes.size();
    }

    // ---- Build the GP.
    GpProblem Gp;
    MultiVars V = internVars(Prob, L, Gp.variables());
    for (unsigned I = 0; I < NumIters; ++I) {
      double Extent = static_cast<double>(Prob.iterators()[I].Extent);
      bool IsTiled =
          std::find(Tiled.begin(), Tiled.end(), I) != Tiled.end();
      if (IsTiled) {
        Monomial Product = Monomial::variable(V.P[I]);
        Gp.addVariableBounds(V.P[I], Extent);
        for (unsigned Lv = 0; Lv < L; ++Lv) {
          Gp.addVariableBounds(V.T[Lv][I], Extent);
          Product = Product * Monomial::variable(V.T[Lv][I]);
        }
        Gp.addEquality(Product, Extent,
                       "extent " + Prob.iterators()[I].Name);
      } else {
        Gp.addEquality(Monomial::variable(V.T[0][I]), Extent, "untiled");
        Gp.addEquality(Monomial::variable(V.P[I]), 1.0, "untiled");
        for (unsigned Lv = 1; Lv < L; ++Lv)
          Gp.addEquality(Monomial::variable(V.T[Lv][I]), 1.0, "untiled");
      }
    }

    // Capacity / PE parameters: constants (fixed hierarchy) or GP
    // variables (capacity co-design under the area budget).
    std::vector<Monomial> EpsLevel(L, Monomial(0.0));
    std::vector<Monomial> CapBound(L, Monomial(1.0));
    Monomial PeBound(static_cast<double>(H.NumPEs));
    std::vector<VarId> CapVars(L, 0);
    VarId PeVar = 0;
    if (Options.CoDesignCapacities) {
      // A non-positive budget is rejected up front (InputStatus).
      const TechParams &Tech = Options.Tech;
      Posynomial PerPEArea(Monomial(Tech.AreaMacUm2));
      for (unsigned Lv = 0; Lv + 1 < L; ++Lv) {
        CapVars[Lv] = Gp.addVariable("C" + std::to_string(Lv));
        double WordArea =
            Lv == 0 ? Tech.AreaRegWordUm2 : Tech.AreaSramWordUm2;
        Gp.addVariableBounds(CapVars[Lv],
                             Options.AreaBudgetUm2 / WordArea);
        CapBound[Lv] = Monomial::variable(CapVars[Lv]);
        EpsLevel[Lv] =
            Lv == 0
                ? Monomial::variable(CapVars[Lv], 1.0, Tech.SigmaRegPj)
                : Monomial::variable(CapVars[Lv], 0.5, Tech.SigmaSramPj);
        if (Lv < F)
          PerPEArea += Posynomial(
              Monomial::variable(CapVars[Lv]).scaled(WordArea));
      }
      EpsLevel[L - 1] = Monomial(H.Levels[L - 1].AccessEnergyPj);
      PeVar = Gp.addVariable("P");
      Gp.addVariableBounds(PeVar,
                           Options.AreaBudgetUm2 / Tech.AreaMacUm2);
      PeBound = Monomial::variable(PeVar);
      Posynomial Area = PerPEArea * PeBound;
      for (unsigned Lv = F; Lv + 1 < L; ++Lv)
        Area += Posynomial(
            Monomial::variable(CapVars[Lv]).scaled(Tech.AreaSramWordUm2));
      Gp.addUpperBound(Area, Options.AreaBudgetUm2, "area");
    } else {
      for (unsigned Lv = 0; Lv < L; ++Lv) {
        EpsLevel[Lv] = Monomial(H.Levels[Lv].AccessEnergyPj);
        if (Lv + 1 < L)
          CapBound[Lv] =
              Monomial(static_cast<double>(H.Levels[Lv].CapacityWords));
      }
    }

    std::vector<Posynomial> LevelFootprint(L);
    std::vector<Posynomial> BoundaryVolume(H.numBoundaries());
    for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI) {
      TensorChain Chain = buildChain(Prob, H, TI, V, TiledPerms, Tiled);
      for (unsigned Lv = 0; Lv < L; ++Lv)
        LevelFootprint[Lv] +=
            Chain.DF[Lv].posynomialUpperBound().expanded();
      for (unsigned B = 0; B < H.numBoundaries(); ++B)
        BoundaryVolume[B] += Chain.DV[B].posynomialUpperBound().expanded();
    }
    for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
      Gp.addUpperBound(LevelFootprint[Lv], CapBound[Lv],
                       H.Levels[Lv].Name + " capacity");
    Monomial SpatialProduct(1.0);
    for (unsigned I : Tiled)
      SpatialProduct = SpatialProduct * Monomial::variable(V.P[I]);
    Gp.addUpperBound(Posynomial(SpatialProduct), PeBound, "PE count");

    const double Nops = static_cast<double>(Prob.numOps());
    Posynomial EnergyObj;
    EnergyObj += Posynomial(EpsLevel[0].scaled(4.0 * Nops));
    EnergyObj += Posynomial(Monomial(H.MacEnergyPj * Nops));
    for (unsigned B = 0; B < H.numBoundaries(); ++B) {
      EnergyObj += BoundaryVolume[B] * EpsLevel[B];
      EnergyObj += BoundaryVolume[B] * EpsLevel[B + 1];
    }
    if (Options.Objective == SearchObjective::Energy) {
      Gp.setObjective(std::move(EnergyObj));
    } else {
      VarId TVar = Gp.addVariable("T");
      Gp.addVariableBounds(TVar, Nops * 1e6);
      Monomial Epi = Monomial::variable(TVar);
      Gp.addUpperBound(Posynomial(SpatialProduct.pow(-1.0).scaled(Nops)),
                       Epi, "compute cycles");
      for (unsigned Lv = 1; Lv < L; ++Lv) {
        Posynomial W = BoundaryVolume[Lv - 1];
        if (Lv < H.numBoundaries())
          W += BoundaryVolume[Lv];
        Posynomial Scaled = W.scaled(1.0 / H.Levels[Lv].Bandwidth);
        if (Lv < F) // Private level: one instance per used PE.
          Scaled = Scaled * SpatialProduct.pow(-1.0);
        Gp.addUpperBound(Scaled, Epi, H.Levels[Lv].Name + " cycles");
      }
      if (Options.Objective == SearchObjective::Delay)
        Gp.setObjective(Posynomial(Epi));
      else
        Gp.setObjective(EnergyObj * Epi);
    }

    GpSolveReport Solve;
    GpSolution Sol = solveGpWithRetry(Gp, Options.Solver, &Solve);
    ++Local.CombosSolved;
    telemetry::count("multigp.combos.solved");
    if (!Sol.Feasible || Sol.Outcome == SolveOutcome::NonFinite) {
      ++Local.GpInfeasible;
      telemetry::count("multigp.combos.infeasible");
      Local.Report.record(Sol.Outcome == SolveOutcome::Infeasible
                              ? TaskOutcome::Infeasible
                              : TaskOutcome::Failed,
                          Combo, FullIndex, 0, Solve.attempts(),
                          Sol.Failure.empty()
                              ? std::string(solveOutcomeName(Sol.Outcome))
                              : Sol.Failure);
      return;
    }
    // Feasible but unconverged iterates are still rounded (Degraded),
    // exactly as the sweep has always done.
    Local.Report.record(Sol.Converged ? TaskOutcome::Solved
                                      : TaskOutcome::Degraded,
                        Combo, FullIndex, 0, Solve.attempts(),
                        Sol.Converged ? std::string() : Sol.Failure);

    // Hierarchy candidates: the fixed input, or rounded capacities / PE
    // counts around the real co-design solution (powers of two, Eq. 4
    // re-pricing, area filter).
    std::vector<Hierarchy> HierCandidates;
    if (!Options.CoDesignCapacities) {
      HierCandidates.push_back(H);
    } else {
      std::vector<std::vector<std::int64_t>> CapChoices(L - 1);
      for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
        CapChoices[Lv] = closestPowersOfTwo(Sol.Values[CapVars[Lv]],
                                            Options.NumCandidates,
                                            /*MinValue=*/4);
      std::vector<std::int64_t> PeChoices;
      double RealP = Sol.Values[PeVar];
      PeChoices.push_back(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(RealP)));
      if (static_cast<std::int64_t>(std::ceil(RealP)) != PeChoices[0])
        PeChoices.push_back(static_cast<std::int64_t>(std::ceil(RealP)));

      std::vector<std::size_t> Pick(L, 0); // Last slot indexes PeChoices.
      while (true) {
        Hierarchy Hc = H;
        for (unsigned Lv = 0; Lv + 1 < L; ++Lv) {
          Hc.Levels[Lv].CapacityWords = CapChoices[Lv][Pick[Lv]];
          Hc.Levels[Lv].AccessEnergyPj =
              Lv == 0 ? Options.Tech.SigmaRegPj *
                            static_cast<double>(Hc.Levels[Lv].CapacityWords)
                      : Options.Tech.SigmaSramPj *
                            std::sqrt(static_cast<double>(
                                Hc.Levels[Lv].CapacityWords));
        }
        Hc.NumPEs = PeChoices[Pick[L - 1]];
        if (Hc.areaUm2(Options.Tech) <= Options.AreaBudgetUm2)
          HierCandidates.push_back(Hc);
        // Odometer over the choice lists.
        unsigned D = L;
        bool More = false;
        while (D > 0) {
          --D;
          std::size_t Limit =
              D + 1 == L ? PeChoices.size() : CapChoices[D].size();
          if (++Pick[D] < Limit) {
            More = true;
            break;
          }
          Pick[D] = 0;
        }
        if (!More)
          break;
      }
      if (HierCandidates.empty())
        return;
    }

    // ---- Rounding: per-iterator cumulative divisor chains, nearest
    // first, depth-first with capacity pruning.
    const unsigned ChainLen = L + 1; // v_0..v_{F-1}, v_sp, v_F..v_{L-1}.
    std::vector<std::vector<IterChain>> Candidates(NumIters);
    for (unsigned I = 0; I < NumIters; ++I) {
      std::int64_t Extent = Prob.iterators()[I].Extent;
      bool IsTiled =
          std::find(Tiled.begin(), Tiled.end(), I) != Tiled.end();
      if (!IsTiled) {
        IterChain Whole(ChainLen, Extent);
        Candidates[I] = {Whole};
        continue;
      }
      // Real cumulative chain values from the solver.
      std::vector<double> Real(ChainLen);
      double Cum = 1.0;
      for (unsigned Pos = 0; Pos < ChainLen; ++Pos) {
        if (Pos == F)
          Cum *= Sol.Values[V.P[I]];
        else
          Cum *= Sol.Values[V.T[Pos < F ? Pos : Pos - 1][I]];
        Real[Pos] = Cum;
      }
      // Top-down divisor chains.
      std::vector<IterChain> Stack = {{}};
      for (unsigned Back = 0; Back < ChainLen; ++Back) {
        unsigned Pos = ChainLen - 1 - Back;
        std::vector<IterChain> Next;
        for (const IterChain &Partial : Stack) {
          std::int64_t Parent =
              Partial.empty() ? Extent : Partial.front();
          std::vector<std::int64_t> Divs =
              Pos + 1 == ChainLen
                  ? std::vector<std::int64_t>{Extent}
                  : closestDivisors(Parent, Real[Pos],
                                    Options.NumCandidates);
          for (std::int64_t D : Divs) {
            IterChain C = Partial;
            C.insert(C.begin(), D);
            Next.push_back(C);
          }
        }
        Stack = std::move(Next);
      }
      Candidates[I] = std::move(Stack);
    }

    // DFS cross product, evaluating complete mappings.
    MultiMapping Map;
    Map.TempFactors.assign(L, std::vector<std::int64_t>(NumIters, 1));
    Map.SpatialFactors.assign(NumIters, 1);
    Map.Perms.resize(L);
    std::vector<unsigned> Identity(NumIters);
    std::iota(Identity.begin(), Identity.end(), 0u);
    Map.Perms[0] = Identity;
    for (unsigned Lv = 1; Lv < L; ++Lv) {
      Map.Perms[Lv] = TiledPerms[Lv];
      for (unsigned I = 0; I < NumIters; ++I)
        if (std::find(TiledPerms[Lv].begin(), TiledPerms[Lv].end(), I) ==
            TiledPerms[Lv].end())
          Map.Perms[Lv].push_back(I);
    }

    std::size_t Tried = 0;
    auto recurse = [&](auto &&Self, unsigned I) -> void {
      if (Tried >= Options.MaxMappingCandidates)
        return;
      if (I == NumIters) {
        for (const Hierarchy &Hc : HierCandidates) {
          ++Tried;
          if (Map.numPEsUsed() > Hc.NumPEs)
            continue;
          MultiEvalResult Eval = Evaluator.evaluate(Prob, Hc, Map);
          if (!Eval.Legal)
            continue;
          double Obj = objectiveValue(Eval, Options.Objective);
          if (!Local.Found || Obj < Local.BestObj) {
            Local.Found = true;
            Local.Map = Map;
            Local.Eval = Eval;
            Local.Arch = Hc;
            Local.ModelObjective = Sol.Objective;
            Local.BestObj = Obj;
          }
        }
        return;
      }
      for (const IterChain &C : Candidates[I]) {
        chainToFactors(C, L, F, Map, I);
        Self(Self, I + 1);
      }
    };
    recurse(recurse, 0);
  };

  auto runCombo = [&](ComboAcc &Local, std::size_t Combo) {
    // Spread combo indices across the full space when capped.
    const std::size_t FullIndex = static_cast<std::size_t>(
        TotalCombos <= Options.MaxPermCombos
            ? static_cast<double>(Combo)
            : std::floor(static_cast<double>(Combo) * TotalCombos /
                         static_cast<double>(Combos)));
    telemetry::TraceScope ComboSpan("multigp.combo", Combo);

    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt) {
      Local.Report.DeadlineExpired = true;
      Local.Report.record(TaskOutcome::Skipped, Combo, FullIndex, 0, 0,
                          "deadline expired before the combo was attempted");
      return;
    }
    if (fault::shouldFail("multigp.combo",
                          static_cast<std::int64_t>(Combo))) {
      Local.Report.record(TaskOutcome::Failed, Combo, FullIndex, 0, 0,
                          "injected fault at site multigp.combo");
      return;
    }
    try {
      comboBody(Local, Combo, FullIndex);
    } catch (const std::exception &E) {
      Local.Report.record(TaskOutcome::Failed, Combo, FullIndex, 0, 0,
                          std::string("exception: ") + E.what());
    }
  };

  telemetry::beginEpoch();
  telemetry::TraceScope SweepSpan("multigp.optimize_hierarchy");
  telemetry::count("multigp.sweeps");
  ThreadPool Pool(Options.Threads);
  ComboAcc Best = parallelReduce(
      Pool, Combos, ComboAcc(), ComboAcc(),
      [&](ComboAcc &Local, std::size_t Combo) { runCombo(Local, Combo); },
      [](ComboAcc &Acc, std::size_t, ComboAcc &&Local) {
        Acc.CombosSolved += Local.CombosSolved;
        Acc.GpInfeasible += Local.GpInfeasible;
        Acc.Report.merge(std::move(Local.Report));
        if (Local.Found && (!Acc.Found || Local.BestObj < Acc.BestObj)) {
          Acc.Found = true;
          Acc.Map = std::move(Local.Map);
          Acc.Eval = std::move(Local.Eval);
          Acc.Arch = std::move(Local.Arch);
          Acc.ModelObjective = Local.ModelObjective;
          Acc.BestObj = Local.BestObj;
        }
      });
  if (telemetry::traceEnabled())
    SweepSpan.setDetail("combos=" + std::to_string(Combos) + " solved=" +
                        std::to_string(Best.Report.Solved) + " degraded=" +
                        std::to_string(Best.Report.Degraded));
  Result.CombosSolved = Best.CombosSolved;
  Result.GpInfeasible = Best.GpInfeasible;
  Result.Report = std::move(Best.Report);
  if (Best.Found) {
    Result.Found = true;
    Result.Map = std::move(Best.Map);
    Result.Eval = std::move(Best.Eval);
    Result.Arch = std::move(Best.Arch);
    Result.ModelObjective = Best.ModelObjective;
  }
  return Result;
}
