//===- thistle/ExprGen.cpp - Algorithm 1: symbolic DF/DV ------------------===//

#include "thistle/ExprGen.h"

#include <cassert>

using namespace thistle;

std::string ExprGen::tripVarName(TileLevel Level, const std::string &Iter) {
  switch (Level) {
  case TileLevel::DramTemporal:
    return "s_" + Iter;
  case TileLevel::Spatial:
    return "p_" + Iter;
  case TileLevel::PeTemporal:
    return "q_" + Iter;
  case TileLevel::Register:
    return "r_" + Iter;
  }
  assert(false && "unknown tile level");
  return "";
}

ExprGen::ExprGen(const Problem &Prob, VarTable &Vars)
    : Prob(Prob), Vars(Vars) {
  for (unsigned L = 0; L < NumTileLevels; ++L) {
    TripVars[L].reserve(Prob.numIterators());
    for (const Iterator &It : Prob.iterators())
      TripVars[L].push_back(
          Vars.intern(tripVarName(static_cast<TileLevel>(L), It.Name)));
  }
}

FactoredExpr ExprGen::levelZeroFootprint(const Tensor &T,
                                         const std::vector<VarId> &Vars) {
  FactoredExpr DF;
  for (const DimRef &D : T.Dims) {
    // Extent of sum_t stride_t * it_t over a tile of v_t points per
    // iterator: sum_t stride_t * v_t - (sum_t stride_t - 1).
    Signomial Extent;
    std::int64_t StrideSum = 0;
    for (const DimRef::Term &Term : D.Terms) {
      Extent += Signomial(Monomial::variable(
          Vars[Term.Iter], 1.0, static_cast<double>(Term.Stride)));
      StrideSum += Term.Stride;
    }
    if (StrideSum != 1)
      Extent += Signomial::constant(-static_cast<double>(StrideSum - 1));
    DF.pushFactor(Extent);
  }
  return DF;
}

FactoredExpr ExprGen::registerFootprint(unsigned TensorIdx) const {
  return levelZeroFootprint(
      Prob.tensors()[TensorIdx],
      TripVars[static_cast<unsigned>(TileLevel::Register)]);
}

LevelExprs ExprGen::walkLevel(const Tensor &T,
                              const std::vector<unsigned> &Perm,
                              const std::vector<VarId> &LevelVars,
                              const std::vector<VarId> &PrevVars,
                              const FactoredExpr &DfPrev,
                              const StepObserver &Observer) {
  LevelExprs State;
  State.DF = DfPrev;
  State.DV = DfPrev;
  // Read-write tensors move data both ways; the paper folds the factor 2
  // into DV (Table I).
  if (T.ReadWrite)
    State.DV.multiplyPrefix(Monomial(2.0));

  bool CanHoist = true;
  // Inner-to-outer traversal of the level's tile loops (Algorithm 1).
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    VarId LevelVar = LevelVars[It];
    VarId PrevVar = PrevVars[It];
    Monomial Repl =
        Monomial::variable(LevelVar) * Monomial::variable(PrevVar);
    if (CanHoist) {
      if (T.usesIter(It)) {
        // Innermost present iterator: replace in both DF and DV.
        CanHoist = false;
        State.DF = State.DF.substituted(PrevVar, Repl);
        State.DV = State.DV.substituted(PrevVar, Repl);
      }
      // Absent below the hoist point: no change to DF or DV.
    } else {
      if (T.usesIter(It))
        State.DF = State.DF.substituted(PrevVar, Repl);
      // Above the hoist point every loop multiplies the volume.
      State.DV.multiplyPrefix(Monomial::variable(LevelVar));
    }
    if (Observer)
      Observer(It, State);
  }
  return State;
}

LevelExprs ExprGen::constructExpr(unsigned TensorIdx,
                                  const std::vector<unsigned> &Perm,
                                  TileLevel Level, const FactoredExpr &DfPrev,
                                  const StepObserver &Observer) const {
  assert(Level != TileLevel::Register &&
         "the register level has no inner level");
  // TileLevel counts outer to inner, so the level below is the next one.
  const unsigned L = static_cast<unsigned>(Level);
  return walkLevel(Prob.tensors()[TensorIdx], Perm, TripVars[L],
                   TripVars[L + 1], DfPrev, Observer);
}

FactoredExpr ExprGen::spatialFootprint(unsigned TensorIdx,
                                       const FactoredExpr &DfPe) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  FactoredExpr DF = DfPe;
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    if (!T.usesIter(I))
      continue;
    VarId QVar = tripVar(TileLevel::PeTemporal, I);
    VarId RVar = tripVar(TileLevel::Register, I);
    Monomial PTimes = Monomial::variable(tripVar(TileLevel::Spatial, I));
    // The per-PE footprint contains q_i only if the iterator was tiled at
    // the per-PE level; otherwise extend its register variable.
    if (DF.mentions(QVar))
      DF = DF.substituted(QVar, PTimes * Monomial::variable(QVar));
    else
      DF = DF.substituted(RVar, PTimes * Monomial::variable(RVar));
  }
  return DF;
}

TensorSymbolicModel
ExprGen::buildTensorModel(unsigned TensorIdx,
                          const std::vector<unsigned> &PePerm,
                          const std::vector<unsigned> &DramPerm) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  TensorSymbolicModel Model;
  Model.RegFootprint = registerFootprint(TensorIdx);

  // Per-PE temporal level: DF^1 and the within-PE part of DV(S<->R).
  LevelExprs Pe = constructExpr(TensorIdx, PePerm, TileLevel::PeTemporal,
                                Model.RegFootprint);

  // SRAM<->register volume: multicast collapses absent spatial iterators
  // (Eq. 2); every DRAM-level trip count multiplies (per-level model).
  Model.DvSramReg = Pe.DV;
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    if (T.usesIter(I))
      Model.DvSramReg.multiplyPrefix(
          Monomial::variable(tripVar(TileLevel::Spatial, I)));
    Model.DvSramReg.multiplyPrefix(
        Monomial::variable(tripVar(TileLevel::DramTemporal, I)));
  }

  // SRAM footprint: the tile spans the PE grid along present iterators.
  Model.SramFootprint = spatialFootprint(TensorIdx, Pe.DF);

  // DRAM level: Algorithm 1 once more, starting from the SRAM footprint.
  LevelExprs Dram = constructExpr(TensorIdx, DramPerm,
                                  TileLevel::DramTemporal,
                                  Model.SramFootprint);
  Model.DvDram = Dram.DV;
  return Model;
}
