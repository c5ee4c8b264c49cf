//===- thistle/GpBuilder.cpp - Assemble Eq. 3 / Eq. 5 programs ------------===//

#include "thistle/GpBuilder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

using namespace thistle;

const char *const DesignModeNames[] = {"dataflow", "codesign"};

const char *thistle::designModeName(DesignMode Mode) {
  return DesignModeNames[static_cast<int>(Mode)];
}

Expected<DesignMode> thistle::parseDesignMode(const std::string &Token) {
  for (std::size_t I = 0; I < std::size(DesignModeNames); ++I)
    if (Token == DesignModeNames[I])
      return static_cast<DesignMode>(I);
  return Status::invalidArgument("unknown mode '" + Token + "'");
}

namespace {

bool isTiled(const GpBuildSpec &Spec, unsigned Iter) {
  return std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(), Iter) !=
         Spec.TiledIters.end();
}

Status checkPerm(const Problem &Prob, const std::vector<unsigned> &Perm,
                 const char *What) {
  for (unsigned I : Perm)
    if (I >= Prob.numIterators())
      return Status::invalidArgument(std::string(What) + " references "
                                     "iterator index " + std::to_string(I) +
                                     " but the problem has only " +
                                     std::to_string(Prob.numIterators()) +
                                     " iterators");
  return Status::ok();
}

Status checkPositive(double Value, const char *What) {
  if (!(Value > 0.0) || !std::isfinite(Value))
    return Status::invalidArgument(std::string(What) +
                                   " must be positive and finite, got " +
                                   std::to_string(Value));
  return Status::ok();
}

} // namespace

Status thistle::validateGpBuildSpec(const Problem &Prob,
                                    const GpBuildSpec &Spec) {
  if (Status S = checkPerm(Prob, Spec.PePerm, "PE permutation"); !S.isOk())
    return S;
  if (Status S = checkPerm(Prob, Spec.DramPerm, "DRAM permutation"); !S.isOk())
    return S;
  if (Status S = checkPerm(Prob, Spec.TiledIters, "tiled-iterator list");
      !S.isOk())
    return S;

  if (Status S = checkPositive(Spec.Tech.SigmaRegPj, "tech SigmaRegPj");
      !S.isOk())
    return S;
  if (Status S = checkPositive(Spec.Tech.SigmaSramPj, "tech SigmaSramPj");
      !S.isOk())
    return S;

  if (Spec.Mode == DesignMode::CoDesign) {
    if (Status S =
            checkPositive(Spec.AreaBudgetUm2, "co-design area budget (um^2)");
        !S.isOk())
      return S;
    if (Status S =
            checkPositive(Spec.Tech.AreaRegWordUm2, "tech AreaRegWordUm2");
        !S.isOk())
      return S;
    if (Status S =
            checkPositive(Spec.Tech.AreaSramWordUm2, "tech AreaSramWordUm2");
        !S.isOk())
      return S;
    if (Status S = checkPositive(Spec.Tech.AreaMacUm2, "tech AreaMacUm2");
        !S.isOk())
      return S;
  } else {
    if (Spec.Arch.RegWordsPerPE <= 0 || Spec.Arch.SramWords <= 0 ||
        Spec.Arch.NumPEs <= 0)
      return Status::invalidArgument(
          "fixed architecture needs positive capacities (RegWordsPerPE=" +
          std::to_string(Spec.Arch.RegWordsPerPE) +
          ", SramWords=" + std::to_string(Spec.Arch.SramWords) +
          ", NumPEs=" + std::to_string(Spec.Arch.NumPEs) + ")");
  }
  return Status::ok();
}

GpBuild thistle::buildGp(const Problem &Prob, const GpBuildSpec &Spec) {
  GpBuild Build;
  GpProblem &Gp = Build.Gp;
  ExprGen EG(Prob, Gp.variables());
  for (unsigned L = 0; L < NumTileLevels; ++L) {
    Build.TripVars[L].resize(Prob.numIterators());
    for (unsigned I = 0; I < Prob.numIterators(); ++I)
      Build.TripVars[L][I] = EG.tripVar(static_cast<TileLevel>(L), I);
  }

  // ---- Variable structure per iterator.
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    const double Extent =
        static_cast<double>(Prob.iterators()[I].Extent);
    const std::string &Name = Prob.iterators()[I].Name;
    VarId R = EG.tripVar(TileLevel::Register, I);
    VarId Q = EG.tripVar(TileLevel::PeTemporal, I);
    VarId P = EG.tripVar(TileLevel::Spatial, I);
    VarId S = EG.tripVar(TileLevel::DramTemporal, I);
    if (isTiled(Spec, I)) {
      for (VarId V : {R, Q, P, S})
        Gp.addVariableBounds(V, Extent);
      Monomial Product = Monomial::variable(R) * Monomial::variable(Q) *
                         Monomial::variable(P) * Monomial::variable(S);
      Gp.addEquality(Product, Extent, "extent " + Name);
    } else if (Spec.SpatialUntiled && Extent > 1) {
      // Untiled temporally, but the extent may split between the
      // register level and the spatial level (r * p = N).
      Gp.addVariableBounds(R, Extent);
      Gp.addVariableBounds(P, Extent);
      Gp.addEquality(Monomial::variable(R) * Monomial::variable(P), Extent,
                     "untiled " + Name);
      Gp.addEquality(Monomial::variable(Q), 1.0, "untiled " + Name);
      Gp.addEquality(Monomial::variable(S), 1.0, "untiled " + Name);
    } else {
      // Untiled: the whole extent sits at the register level.
      Gp.addEquality(Monomial::variable(R), Extent, "untiled " + Name);
      Gp.addEquality(Monomial::variable(Q), 1.0, "untiled " + Name);
      Gp.addEquality(Monomial::variable(P), 1.0, "untiled " + Name);
      Gp.addEquality(Monomial::variable(S), 1.0, "untiled " + Name);
    }
  }

  // ---- Architecture parameters: constants or variables.
  Monomial EpsR(0.0), EpsS(0.0); // Per-access energies as monomials.
  Monomial RegCap(0.0), SramCap(0.0), PeCap(0.0);
  EnergyModel Energy(Spec.Tech);
  if (Spec.Mode == DesignMode::CoDesign) {
    Build.HasArchVars = true;
    Build.RegCapVar = Gp.addVariable("R");
    Build.SramCapVar = Gp.addVariable("S");
    Build.NumPEVar = Gp.addVariable("P");
    // A non-positive budget is caught by validateGpBuildSpec; here it
    // would silently produce infinite variable bounds.
    Gp.addVariableBounds(Build.RegCapVar,
                         Spec.AreaBudgetUm2 / Spec.Tech.AreaRegWordUm2);
    Gp.addVariableBounds(Build.SramCapVar,
                         Spec.AreaBudgetUm2 / Spec.Tech.AreaSramWordUm2);
    Gp.addVariableBounds(Build.NumPEVar,
                         Spec.AreaBudgetUm2 / Spec.Tech.AreaMacUm2);
    // Area model, Eq. 5: AreaR*R*P + AreaMAC*P + AreaS*S <= budget.
    Posynomial Area;
    Area += Signomial(Monomial::variable(Build.RegCapVar) *
                      Monomial::variable(Build.NumPEVar)
                          .scaled(Spec.Tech.AreaRegWordUm2));
    Area += Signomial(
        Monomial::variable(Build.NumPEVar).scaled(Spec.Tech.AreaMacUm2));
    Area += Signomial(
        Monomial::variable(Build.SramCapVar).scaled(Spec.Tech.AreaSramWordUm2));
    Gp.addUpperBound(Area, Spec.AreaBudgetUm2, "area");

    EpsR = Monomial::variable(Build.RegCapVar, 1.0, Spec.Tech.SigmaRegPj);
    EpsS = Monomial::variable(Build.SramCapVar, 0.5, Spec.Tech.SigmaSramPj);
    RegCap = Monomial::variable(Build.RegCapVar);
    SramCap = Monomial::variable(Build.SramCapVar);
    PeCap = Monomial::variable(Build.NumPEVar);
  } else {
    EpsR = Monomial(
        Energy.regAccessPj(static_cast<double>(Spec.Arch.RegWordsPerPE)));
    EpsS = Monomial(
        Energy.sramAccessPj(static_cast<double>(Spec.Arch.SramWords)));
    RegCap = Monomial(static_cast<double>(Spec.Arch.RegWordsPerPE));
    SramCap = Monomial(static_cast<double>(Spec.Arch.SramWords));
    PeCap = Monomial(static_cast<double>(Spec.Arch.NumPEs));
  }

  // ---- Tensor models and capacity constraints. The register capacity
  // constraint lives in the small-tile regime where the halo-bound choice
  // matters; volumes and SRAM footprints involve large tiles where
  // DropNegative is the tight bound.
  Posynomial RegFootprint, SramFootprint, DvSramReg, DvDram;
  for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI) {
    TensorSymbolicModel Model =
        EG.buildTensorModel(TI, Spec.PePerm, Spec.DramPerm);
    RegFootprint +=
        Spec.Halo == HaloBound::DropNegative
            ? Model.RegFootprint.posynomialUpperBound().expanded()
            : Model.RegFootprint.monomialProductUpperBound().expanded();
    SramFootprint += Model.SramFootprint.posynomialUpperBound().expanded();
    DvSramReg += Model.DvSramReg.posynomialUpperBound().expanded();
    DvDram += Model.DvDram.posynomialUpperBound().expanded();
  }
  Gp.addUpperBound(RegFootprint, RegCap, "register capacity");
  Gp.addUpperBound(SramFootprint, SramCap, "SRAM capacity");

  // Every spatial trip count participates in the PE budget (untiled
  // iterators' p variables are either pinned to 1 or spatially split).
  Monomial SpatialProduct(1.0);
  for (unsigned I = 0; I < Prob.numIterators(); ++I)
    SpatialProduct =
        SpatialProduct * Monomial::variable(EG.tripVar(TileLevel::Spatial, I));
  Gp.addUpperBound(Posynomial(SpatialProduct), PeCap, "PE count");

  // ---- Objective.
  const double Nops = static_cast<double>(Prob.numOps());
  // Eq. 3 energy: (4 eps_R + eps_op) Nops + eps_R DV(S<->R)
  //               + eps_S (DV(S<->R) + DV(S<->D)) + eps_D DV(S<->D).
  Posynomial EnergyObj;
  EnergyObj += Posynomial(EpsR.scaled(4.0 * Nops));
  EnergyObj += Posynomial(Monomial(Energy.macPj() * Nops));
  EnergyObj += DvSramReg * EpsR;
  EnergyObj += (DvSramReg + DvDram) * EpsS;
  EnergyObj += DvDram.scaled(Energy.dramAccessPj());

  if (Spec.Objective == SearchObjective::Energy) {
    Gp.setObjective(std::move(EnergyObj));
    return Build;
  }

  // Delay epigraph: T bounds every component's cycles (section V-B: "the
  // cost expression contains the maximum among the delays").
  Build.HasEpigraph = true;
  Build.EpigraphVar = Gp.addVariable("T");
  Gp.addVariableBounds(Build.EpigraphVar, /*UpperBound=*/Nops * 1e6);
  Monomial T = Monomial::variable(Build.EpigraphVar);
  // Compute: Nops / (prod p) <= T.
  Gp.addUpperBound(Posynomial(SpatialProduct.pow(-1.0).scaled(Nops)), T,
                   "compute cycles");
  // DRAM: DV(D<->S) / BW_D <= T.
  Gp.addUpperBound(DvDram.scaled(1.0 / Spec.Arch.DramBandwidth), T,
                   "DRAM cycles");
  // SRAM: (DV(S<->R) + DV(D<->S)) / BW_S <= T.
  Gp.addUpperBound((DvSramReg + DvDram).scaled(1.0 / Spec.Arch.SramBandwidth),
                   T, "SRAM cycles");
  if (Spec.Objective == SearchObjective::Delay) {
    Gp.setObjective(Posynomial(T));
  } else {
    // Energy-delay product: posynomial * monomial is a posynomial, so
    // EDP fits DGP directly (the extension the paper mentions).
    Gp.setObjective(EnergyObj * T);
  }
  return Build;
}

RealSolution thistle::extractSolution(const Problem &Prob,
                                      const GpBuild &Build,
                                      const GpBuildSpec &Spec,
                                      const GpSolution &Solution) {
  assert(Solution.Feasible && "extraction requires a feasible solution");
  RealSolution Real;
  Real.Trips.resize(Prob.numIterators());
  for (unsigned I = 0; I < Prob.numIterators(); ++I)
    for (unsigned L = 0; L < NumTileLevels; ++L)
      Real.Trips[I][L] = Solution.Values[Build.TripVars[L][I]];
  if (Build.HasArchVars) {
    Real.RegWords = Solution.Values[Build.RegCapVar];
    Real.SramWords = Solution.Values[Build.SramCapVar];
    Real.NumPEs = Solution.Values[Build.NumPEVar];
  } else {
    Real.RegWords = static_cast<double>(Spec.Arch.RegWordsPerPE);
    Real.SramWords = static_cast<double>(Spec.Arch.SramWords);
    Real.NumPEs = static_cast<double>(Spec.Arch.NumPEs);
  }
  Real.Objective = Solution.Objective;
  return Real;
}
