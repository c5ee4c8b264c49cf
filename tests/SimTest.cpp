//===- tests/SimTest.cpp - Brute-force oracle unit tests ------------------===//
//
// Hand-derived data-movement counts for small mappings on the classic
// register/SRAM/DRAM machine (multilevel/MultiSim at
// Hierarchy::classic3Shape: boundary 0 = SRAM<->registers, boundary 1 =
// DRAM<->SRAM), including the paper's Eq. 1 / Eq. 2
// matrix-multiplication closed forms.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "ir/Builders.h"
#include "nestmodel/CostEvaluator.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

/// Matmul mapping with uniform per-level factors and the Fig. 1 loop
/// orders: DRAM level <i, k, j> outer-to-inner, PE level <i, j, k>.
Mapping matmulMapping(const Problem &P, std::int64_t R, std::int64_t Q,
                      std::int64_t Sp, std::int64_t S) {
  Mapping M = Mapping::untiled(P);
  for (unsigned I = 0; I < 3; ++I) {
    M.factor(I, TileLevel::Register) = R;
    M.factor(I, TileLevel::PeTemporal) = Q;
    M.factor(I, TileLevel::Spatial) = Sp;
    M.factor(I, TileLevel::DramTemporal) = S;
  }
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  M.DramPerm = {Ii, Ik, Ij};
  M.PePerm = {Ii, Ij, Ik};
  return M;
}

} // namespace

TEST(TiledLoopSim, UntiledMovesEachTensorOnce) {
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = Mapping::untiled(P);
  MultiSimResult R = simulateClassic(P, M);
  // Everything fits in one tile: each tensor loaded once, C stored once.
  EXPECT_EQ(R.Loads[1][0], 16); // C
  EXPECT_EQ(R.Stores[1][0], 16);
  EXPECT_EQ(R.Loads[1][1], 16); // A
  EXPECT_EQ(R.Stores[1][1], 0);
  EXPECT_EQ(R.Loads[1][2], 16); // B
  EXPECT_EQ(R.Stores[1][2], 0);
}

TEST(TiledLoopSim, MatmulEq1DramVolumes) {
  // N = 4, SRAM tiles 2x2x2 (r=2, s=2), DRAM order <i, k, j>.
  // Eq. 1: DVol_A = Ni*Nk, DVol_B = Ni*Nj*Nk/Si, DVol_C = Ni*Nj*Nk/Sk.
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = matmulMapping(P, /*R=*/2, /*Q=*/1, /*Sp=*/1, /*S=*/2);
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[1][1], 4 * 4);         // A: Ni*Nk.
  EXPECT_EQ(R.Loads[1][2], 4 * 4 * 4 / 2); // B: NiNjNk/Si.
  EXPECT_EQ(R.Loads[1][0], 4 * 4 * 4 / 2); // C: NiNjNk/Sk.
  EXPECT_EQ(R.Stores[1][0], 4 * 4 * 4 / 2);
}

TEST(TiledLoopSim, MatmulEq2RegisterVolumes) {
  // Same tiling; q = p = 1, so SRAM->RF volume per Eq. 2 with P = 1:
  // DVol_A = NiNjNk / (Rj * Pj) = 64 / 2 = 32, same for B and C.
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = matmulMapping(P, 2, 1, 1, 2);
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[0][1], 32); // A.
  EXPECT_EQ(R.Loads[0][2], 32); // B.
  EXPECT_EQ(R.Loads[0][0], 32); // C reads...
  EXPECT_EQ(R.Stores[0][0], 32); // ...and writes.
}

TEST(TiledLoopSim, SpatialMulticastCollapsesAbsentIterators) {
  // 2x2 spatial grid on a 4x4x4 matmul, everything else untiled: A is
  // absent in j, so the p_j = 2 PEs sharing a row receive A's 2x4 tile by
  // multicast; A's SRAM reads must not scale with p_j. Eq. 2 closed form:
  // DVol_A = NiNjNk / (Rj * Pj) = 64 / 4 = 16.
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = Mapping::untiled(P);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j");
  M.factor(Ii, TileLevel::Register) = 2;
  M.factor(Ii, TileLevel::Spatial) = 2;
  M.factor(Ij, TileLevel::Register) = 2;
  M.factor(Ij, TileLevel::Spatial) = 2;
  ASSERT_TRUE(M.validate(P).empty());
  ASSERT_EQ(M.numPEsUsed(), 4);
  MultiSimResult R = simulateClassic(P, M);

  // A: 2x4 register tile, p_i = 2 distinct copies, p_j multicast.
  EXPECT_EQ(R.Loads[0][1], 2 * (2 * 4));
  // B symmetric (multicast across p_i).
  EXPECT_EQ(R.Loads[0][2], 2 * (2 * 4));
  // C: present in both spatial dims: 4 PEs x 2x2 tile.
  EXPECT_EQ(R.Loads[0][0], 4 * 4);
  EXPECT_EQ(R.Stores[0][0], 4 * 4);
}

TEST(TiledLoopSim, HoistingSkipsInnermostAbsentLoop) {
  // DRAM order <i, k, j> with j innermost: A (absent in j) must not be
  // re-loaded across the j loop.
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = matmulMapping(P, 1, 1, 1, 4); // SRAM tiles of 1x1x1.
  MultiSimResult R = simulateClassic(P, M);
  // A: loaded once per (i, k): 16 words total; union streaming along k.
  EXPECT_EQ(R.Loads[1][1], 16);
  // B: re-loaded for every (i, k, j): 64.
  EXPECT_EQ(R.Loads[1][2], 64);
}

TEST(TiledLoopSim, ConvHaloIsLoadedOnceWhenStreaming) {
  // 1D-ish conv: C=K=1, H=8, R=3 (halo 2). Stream h at the DRAM level
  // with tiles of 2: the halo rows shared by consecutive tiles must be
  // loaded once, so In traffic is the union 8 + 3 - 1 = 10, not 4*4.
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 8;
  L.Win = 1;
  L.R = 3;
  L.S = 1;
  Problem P = makeConvProblem(L);
  Mapping M = Mapping::untiled(P);
  unsigned H = P.iteratorIndex("h");
  M.factor(H, TileLevel::Register) = 2;
  M.factor(H, TileLevel::DramTemporal) = 4;
  ASSERT_TRUE(M.validate(P).empty());
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[1][1], 10); // In: 4 + 3*(2*1) halo union.
  EXPECT_EQ(R.Loads[1][0], 8);  // Out: each tile once.
  EXPECT_EQ(R.Loads[1][2], 3);  // Ker: hoisted, loaded once.
}

TEST(TiledLoopSim, StridedConvLeavesHolesBetweenTiles) {
  // 1x1 kernel, stride 2: consecutive h-tiles touch disjoint input rows
  // with holes in between; the union is the sum of the tile boxes.
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 16;
  L.Win = 1;
  L.R = 1;
  L.S = 1;
  L.StrideX = 2;
  Problem P = makeConvProblem(L);
  ASSERT_EQ(P.iterators()[P.iteratorIndex("h")].Extent, 8);
  Mapping M = Mapping::untiled(P);
  unsigned H = P.iteratorIndex("h");
  M.factor(H, TileLevel::Register) = 2;
  M.factor(H, TileLevel::DramTemporal) = 4;
  MultiSimResult R = simulateClassic(P, M);
  // Each 2-point tile covers a dense box of 2*(2-1)+1 = 3 input rows;
  // 4 disjoint tiles -> 12 words (the dense hull 2*8-1 = 15 would be an
  // overcount).
  EXPECT_EQ(R.Loads[1][1], 12);
}

TEST(TiledLoopSim, DilatedConvCountsDenseBoxesHolesIncluded) {
  // The pinned dense-box convention on a dilated projection (TileWalk.h):
  // a 2-tap kernel at dilation 3, stride 4, so each 1-output-row tile
  // spans a dense box of 3*(2-1)+1 = 4 input rows of which only 2 are
  // real taps. The 2 holes per tile are counted as resident: 4 disjoint
  // tiles move 4*4 = 16 words, where an exact point count would be 8.
  // Both analytical backends count the same 16 — that equality is what
  // the convention buys (DilatedSimMatchesAnalyticalNestModel below).
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 16;
  L.Win = 1;
  L.R = 2;
  L.S = 1;
  L.StrideX = 4;
  L.DilationX = 3;
  Problem P = makeConvProblem(L);
  ASSERT_EQ(P.iterators()[P.iteratorIndex("h")].Extent, 4);
  Mapping M = Mapping::untiled(P);
  unsigned H = P.iteratorIndex("h");
  M.factor(H, TileLevel::Register) = 1;
  M.factor(H, TileLevel::DramTemporal) = 4;
  ASSERT_TRUE(M.validate(P).empty());
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[1][1], 16);
  EXPECT_EQ(R.Loads[1][0], 4); // Out: one row per tile.
}

TEST(TiledLoopSim, DilatedSimMatchesAnalyticalNestModel) {
  // Satellite regression: the analytical nest walk reproduces the
  // simulator to the integer on the dilated layer above (and a 2D one),
  // holes and all.
  for (int TwoD = 0; TwoD < 2; ++TwoD) {
    ConvLayer L;
    L.K = TwoD ? 4 : 1;
    L.C = TwoD ? 2 : 1;
    L.Hin = 16;
    L.Win = TwoD ? 10 : 1;
    L.R = 2;
    L.S = TwoD ? 3 : 1;
    L.StrideX = 4;
    L.DilationX = 3;
    L.DilationY = TwoD ? 2 : 1;
    Problem P = makeConvProblem(L);
    Mapping M = Mapping::untiled(P);
    unsigned H = P.iteratorIndex("h");
    M.factor(H, TileLevel::Register) = 1;
    M.factor(H, TileLevel::DramTemporal) = 4;
    ASSERT_TRUE(M.validate(P).empty());
    Hierarchy Shape = Hierarchy::classic3Shape();
    MultiMapping MM = MultiMapping::fromMapping(P, M);
    MultiProfile Sim = simulateMultiNestProfile(P, Shape, MM);
    MultiProfile Nest = analyzeMultiNest(P, Shape, MM);
    ProfileDivergence Div = compareProfiles(P, Shape, Nest, Sim);
    EXPECT_FALSE(Div.diverged())
        << (Div.Samples.empty() ? "no sample" : Div.Samples[0].Counter);
  }
}

TEST(TiledLoopSim, TransposedConvScatterIsLoadStoreSymmetric) {
  // Transposed conv: Out carries the strided 2-term projection and is
  // read-write. Overlapping scatter tiles (box 5, shift 4) must load and
  // store symmetrically, totalling the full 2*(6-1)+2+1 = 13-row output.
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 6;
  L.Win = 1;
  L.R = 3;
  L.S = 1;
  L.StrideX = 2;
  L.Transposed = true;
  Problem P = makeConvProblem(L);
  Mapping M = Mapping::untiled(P);
  unsigned H = P.iteratorIndex("h");
  M.factor(H, TileLevel::Register) = 2;
  M.factor(H, TileLevel::DramTemporal) = 3;
  ASSERT_TRUE(M.validate(P).empty());
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[1][0], 13); // Out: 5 + 4 + 4.
  EXPECT_EQ(R.Stores[1][0], 13); // Symmetric write-back.
  EXPECT_EQ(R.Loads[1][1], 6);  // In: each row once.
}

TEST(TiledLoopSim, ReadWriteSymmetry) {
  // For read-write tensors, total loads equal total stores (telescoping
  // eviction + final flush).
  Problem P = makeMatmulProblem(8, 4, 2);
  Mapping M = Mapping::untiled(P);
  M.factor(0, TileLevel::Register) = 2;
  M.factor(0, TileLevel::DramTemporal) = 4;
  M.factor(1, TileLevel::PeTemporal) = 2;
  M.factor(1, TileLevel::Register) = 2;
  ASSERT_TRUE(M.validate(P).empty());
  MultiSimResult R = simulateClassic(P, M);
  EXPECT_EQ(R.Loads[1][0], R.Stores[1][0]);
  EXPECT_EQ(R.Loads[0][0], R.Stores[0][0]);
  // Read-only tensors never write back.
  EXPECT_EQ(R.Stores[1][1], 0);
  EXPECT_EQ(R.Stores[0][1], 0);
}

TEST(TiledLoopSim, TotalsAggregate) {
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = matmulMapping(P, 2, 1, 1, 2);
  MultiSimResult R = simulateClassic(P, M);
  MultiProfile Totals = simulateMultiNestProfile(
      P, Hierarchy::classic3Shape(), MultiMapping::fromMapping(P, M));
  for (unsigned B = 0; B < 2; ++B) {
    std::int64_t Sum = 0;
    for (std::size_t T = 0; T < P.tensors().size(); ++T) {
      EXPECT_EQ(R.Words[B][T], R.Loads[B][T] + R.Stores[B][T]);
      Sum += R.Loads[B][T] + R.Stores[B][T];
    }
    EXPECT_EQ(Totals.boundaryWords(B), Sum);
  }
}
