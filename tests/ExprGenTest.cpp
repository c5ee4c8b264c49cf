//===- tests/ExprGenTest.cpp - Algorithm 1 tests --------------------------===//
//
// Validates the symbolic DF/DV generator against the paper's worked
// examples: the Table I step-by-step trace, the matmul closed forms of
// Eq. 1 / Eq. 2, and numerically against the analytical nest model.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "ir/Builders.h"
#include "support/Rng.h"
#include "thistle/ExprGen.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

/// Random positive assignment for every interned variable.
Assignment randomAssignment(const VarTable &Vars, Rng &R) {
  Assignment A(Vars.size());
  for (double &V : A)
    V = 1.0 + 3.0 * R.nextDouble();
  return A;
}

} // namespace

TEST(ExprGen, VarNamesFollowPaperNotation) {
  EXPECT_EQ(ExprGen::tripVarName(TileLevel::Register, "h"), "r_h");
  EXPECT_EQ(ExprGen::tripVarName(TileLevel::PeTemporal, "h"), "q_h");
  EXPECT_EQ(ExprGen::tripVarName(TileLevel::Spatial, "h"), "p_h");
  EXPECT_EQ(ExprGen::tripVarName(TileLevel::DramTemporal, "h"), "s_h");
}

TEST(ExprGen, RegisterFootprintsSectionIIIA) {
  // In[n][c][h+r][2w+s]: DF0 = r_n r_c (r_h + r_r - 1)(2 r_w + r_s - 2).
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  L.StrideX = 1;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Vars);

  FactoredExpr DfIn = EG.registerFootprint(1);
  // Two halo factors (the n and c extents are single monomials folded
  // into the prefix).
  EXPECT_EQ(DfIn.factors().size(), 2u);

  // Numeric check against the closed form.
  Rng R(1);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    double Expected = V("r_n") * V("r_c") * (V("r_h") + V("r_r") - 1.0) *
                      (2.0 * V("r_w") + V("r_s") - 2.0);
    EXPECT_NEAR(DfIn.evaluate(A), Expected, 1e-9 * Expected);
  }

  // Ker[k][c][r][s]: DF0 = r_k r_c r_r r_s.
  FactoredExpr DfKer = EG.registerFootprint(2);
  EXPECT_TRUE(DfKer.factors().empty());
  Assignment A = randomAssignment(Vars, R);
  auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
  EXPECT_NEAR(DfKer.evaluate(A), V("r_k") * V("r_c") * V("r_r") * V("r_s"),
              1e-9);
  // Out[n][k][h][w].
  EXPECT_NEAR(EG.registerFootprint(0).evaluate(A),
              V("r_n") * V("r_k") * V("r_h") * V("r_w"), 1e-9);
}

TEST(ExprGen, TableITraceForInAndOut) {
  // Paper Table I: level-1 permutation <w, n, k, h, c, s, r>, strides
  // (1, 2). Checks the final DV^1 and two intermediate steps.
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  L.StrideX = 1;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Vars);

  std::vector<unsigned> Perm = {
      P.iteratorIndex("w"), P.iteratorIndex("n"), P.iteratorIndex("k"),
      P.iteratorIndex("h"), P.iteratorIndex("c"), P.iteratorIndex("s"),
      P.iteratorIndex("r")};

  std::vector<std::string> InTrace, OutTrace;
  LevelExprs In = EG.constructExpr(
      1, Perm, TileLevel::PeTemporal, EG.registerFootprint(1),
      [&](unsigned, const LevelExprs &State) {
        InTrace.push_back(State.DV.toString(Vars));
      });
  LevelExprs Out = EG.constructExpr(
      0, Perm, TileLevel::PeTemporal, EG.registerFootprint(0),
      [&](unsigned, const LevelExprs &State) {
        OutTrace.push_back(State.DV.toString(Vars));
      });
  ASSERT_EQ(InTrace.size(), 7u);
  ASSERT_EQ(OutTrace.size(), 7u);

  Rng R(2);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    double Halo =
        V("r_n") * V("r_c") * (V("r_h") + V("q_r") * V("r_r") - 1.0) *
        (2.0 * V("r_w") + V("r_s") - 2.0);
    // Table I row 7 (final): DV_In = q_w q_n q_k q_h q_c q_s * halo.
    double ExpectedIn = V("q_w") * V("q_n") * V("q_k") * V("q_h") *
                        V("q_c") * V("q_s") * Halo;
    EXPECT_NEAR(In.DV.evaluate(A), ExpectedIn, 1e-9 * ExpectedIn);
    // Table I row 7: DV_Out = 2 q_w q_n q_k (r_n r_k q_h r_h r_w).
    double ExpectedOut = 2.0 * V("q_w") * V("q_n") * V("q_k") * V("r_n") *
                         V("r_k") * V("q_h") * V("r_h") * V("r_w");
    EXPECT_NEAR(Out.DV.evaluate(A), ExpectedOut, 1e-9 * ExpectedOut);

    // Step 1 (innermost r processed): In replaced r_r -> q_r r_r; Out is
    // hoisted and unchanged except the read+write factor 2.
    // (Traces are strings; re-check numerically on the final exprs only.)
  }

  // Structural checks on the trace: Out's DV gains its first q factor at
  // step 4 (the h loop), as in Table I.
  EXPECT_EQ(OutTrace[0], OutTrace[1]);
  EXPECT_EQ(OutTrace[1], OutTrace[2]);
  EXPECT_NE(OutTrace[2], OutTrace[3]);
  // The factor 2 for read-write is present from the start.
  EXPECT_EQ(OutTrace[0].substr(0, 1), "2");
}

TEST(ExprGen, MatmulEq1DramVolumes) {
  // Fig. 1 tiling, DRAM-level permutation <i, k, j>:
  //   DVol_A = Ni*Nk, DVol_B = Ni*Nj*Nk/Si, DVol_C = 2*Ni*Nj*Nk/Sk
  // (the factor 2 for C covers both directions).
  Problem P = makeMatmulProblem(64, 64, 64);
  VarTable Vars;
  ExprGen EG(P, Vars);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
  std::vector<unsigned> PePerm = {Ii, Ij, Ik};

  Rng R(3);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    auto N = [&](const char *D) {
      std::string Dim(D);
      return A[Vars.lookup("s_" + Dim)] * A[Vars.lookup("p_" + Dim)] *
             A[Vars.lookup("q_" + Dim)] * A[Vars.lookup("r_" + Dim)];
    };
    auto SramTile = [&](const char *D) {
      std::string Dim(D);
      return A[Vars.lookup("p_" + Dim)] * A[Vars.lookup("q_" + Dim)] *
             A[Vars.lookup("r_" + Dim)];
    };
    (void)V;

    TensorSymbolicModel C = EG.buildTensorModel(0, PePerm, DramPerm);
    TensorSymbolicModel MA = EG.buildTensorModel(1, PePerm, DramPerm);
    TensorSymbolicModel MB = EG.buildTensorModel(2, PePerm, DramPerm);

    double Ni = N("i"), Nj = N("j"), Nk = N("k");
    EXPECT_NEAR(MA.DvDram.evaluate(A), Ni * Nk, 1e-9 * Ni * Nk);
    EXPECT_NEAR(MB.DvDram.evaluate(A), Ni * Nj * Nk / SramTile("i"),
                1e-6 * MB.DvDram.evaluate(A));
    EXPECT_NEAR(C.DvDram.evaluate(A), 2.0 * Ni * Nj * Nk / SramTile("k"),
                1e-6 * C.DvDram.evaluate(A));

    // SRAM footprints: A is Si*Sk etc.
    EXPECT_NEAR(MA.SramFootprint.evaluate(A), SramTile("i") * SramTile("k"),
                1e-9 * MA.SramFootprint.evaluate(A));
  }
}

TEST(ExprGen, MatmulEq2RegisterVolumes) {
  // PE-level permutation <i, j, k> (paper's register-level ijk):
  //   DVol_A(S->R) = NiNjNk / (Rj*Pj), DVol_B = NiNjNk / (Ri*Pi),
  //   DVol_C = 2*NiNjNk / Sk.
  Problem P = makeMatmulProblem(64, 64, 64);
  VarTable Vars;
  ExprGen EG(P, Vars);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
  std::vector<unsigned> PePerm = {Ii, Ij, Ik};

  Rng R(4);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto Get = [&](const std::string &Name) { return A[Vars.lookup(Name)]; };
    auto N = [&](const char *D) {
      std::string Dim(D);
      return Get("s_" + Dim) * Get("p_" + Dim) * Get("q_" + Dim) *
             Get("r_" + Dim);
    };
    double Ni = N("i"), Nj = N("j"), Nk = N("k");
    double Vol = Ni * Nj * Nk;

    TensorSymbolicModel C = EG.buildTensorModel(0, PePerm, DramPerm);
    TensorSymbolicModel MA = EG.buildTensorModel(1, PePerm, DramPerm);
    TensorSymbolicModel MB = EG.buildTensorModel(2, PePerm, DramPerm);

    EXPECT_NEAR(MA.DvSramReg.evaluate(A), Vol / (Get("r_j") * Get("p_j")),
                1e-6 * MA.DvSramReg.evaluate(A));
    EXPECT_NEAR(MB.DvSramReg.evaluate(A), Vol / (Get("r_i") * Get("p_i")),
                1e-6 * MB.DvSramReg.evaluate(A));
    double Sk = Get("p_k") * Get("q_k") * Get("r_k");
    EXPECT_NEAR(C.DvSramReg.evaluate(A), 2.0 * Vol / Sk,
                1e-6 * C.DvSramReg.evaluate(A));
  }
}

TEST(ExprGen, SymbolicMatchesNestModelOnConcreteMapping) {
  // End-to-end: Algorithm 1 evaluated at an integer mapping's trip counts
  // must equal the analytical nest model (when no trip-1 present loops
  // hide below absent ones and strides leave no holes).
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Vars);

  unsigned K = P.iteratorIndex("k"), C = P.iteratorIndex("c"),
           H = P.iteratorIndex("h"), W = P.iteratorIndex("w"),
           Rr = P.iteratorIndex("r"), Ss = P.iteratorIndex("s");

  Mapping M = Mapping::untiled(P);
  // Every tiled level uses trip counts >= 2 so that the symbolic model
  // (which is permutation-driven) and the concrete model (which sees
  // through trip-1 loops) pick the same hoist points.
  auto Set = [&](unsigned I, std::int64_t R, std::int64_t Q, std::int64_t Sp,
                 std::int64_t S) {
    M.factor(I, TileLevel::Register) = R;
    M.factor(I, TileLevel::PeTemporal) = Q;
    M.factor(I, TileLevel::Spatial) = Sp;
    M.factor(I, TileLevel::DramTemporal) = S;
  };
  Set(K, 1, 2, 1, 2);
  Set(C, 1, 2, 1, 2);
  Set(H, 2, 2, 1, 2);
  Set(W, 2, 2, 1, 2);
  ASSERT_TRUE(M.validate(P).empty());

  std::vector<unsigned> Tiled = {K, C, H, W};
  M.DramPerm = {K, C, H, W, P.iteratorIndex("n"), Rr, Ss};
  M.PePerm = {C, K, W, H, P.iteratorIndex("n"), Rr, Ss};

  // Assignment mirroring the mapping's trip counts (untiled iterators'
  // whole extents at the register level).
  Assignment A(Vars.size(), 1.0);
  for (unsigned I = 0; I < P.numIterators(); ++I)
    for (unsigned Lv = 0; Lv < NumTileLevels; ++Lv)
      A[EG.tripVar(static_cast<TileLevel>(Lv), I)] =
          static_cast<double>(M.Factors[I][Lv]);

  MultiProfile Prof = analyzeClassic(P, M);
  std::vector<unsigned> PeTiled = {C, K, W, H};
  std::vector<unsigned> DramTiled = {K, C, H, W};
  for (unsigned TI = 0; TI < 3; ++TI) {
    TensorSymbolicModel Model = EG.buildTensorModel(TI, PeTiled, DramTiled);
    SCOPED_TRACE(P.tensors()[TI].Name);
    double ExpectedDram = static_cast<double>(Prof.Words[1][TI]);
    double ExpectedSR = static_cast<double>(Prof.Words[0][TI]);
    EXPECT_NEAR(Model.DvDram.evaluate(A), ExpectedDram,
                1e-9 * ExpectedDram);
    EXPECT_NEAR(Model.DvSramReg.evaluate(A), ExpectedSR, 1e-9 * ExpectedSR);
  }
}

TEST(ExprGen, UpperBoundDominatesExactFootprint) {
  ConvLayer L;
  L.K = 8;
  L.C = 8;
  L.Hin = 16;
  L.Win = 16;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Vars);
  Rng R(5);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    FactoredExpr DF = EG.registerFootprint(1);
    EXPECT_GE(DF.posynomialUpperBound().evaluate(A), DF.evaluate(A));
  }
}
