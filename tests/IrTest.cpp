//===- tests/IrTest.cpp - ir/ unit tests ----------------------------------===//

#include "ir/Builders.h"
#include "ir/Mapping.h"
#include "ir/Problem.h"

#include <gtest/gtest.h>

using namespace thistle;

TEST(ConvLayer, OutputSizesSamePadding) {
  ConvLayer L;
  L.Hin = 224;
  L.Win = 224;
  L.R = 7;
  L.S = 7;
  L.StrideX = 2;
  L.StrideY = 2;
  EXPECT_EQ(L.outH(), 112);
  EXPECT_EQ(L.outW(), 112);

  L.StrideX = L.StrideY = 1;
  EXPECT_EQ(L.outH(), 224);
}

TEST(ConvLayer, MacCount) {
  ConvLayer L;
  L.N = 1;
  L.K = 64;
  L.C = 3;
  L.Hin = 224;
  L.Win = 224;
  L.R = 7;
  L.S = 7;
  L.StrideX = L.StrideY = 2;
  EXPECT_EQ(L.numMacs(), 1LL * 64 * 3 * 7 * 7 * 112 * 112);
}

TEST(ConvProblem, StructureMatchesListing1) {
  ConvLayer L;
  L.K = 8;
  L.C = 4;
  L.Hin = 10;
  L.Win = 12;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  ASSERT_EQ(P.numIterators(), 7u);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("k")].Extent, 8);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("h")].Extent, 10);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("w")].Extent, 12);

  ASSERT_EQ(P.tensors().size(), 3u);
  const Tensor &Out = P.tensors()[0];
  const Tensor &In = P.tensors()[1];
  const Tensor &Ker = P.tensors()[2];
  EXPECT_TRUE(Out.ReadWrite);
  EXPECT_FALSE(In.ReadWrite);
  EXPECT_FALSE(Ker.ReadWrite);

  unsigned H = P.iteratorIndex("h"), R = P.iteratorIndex("r");
  unsigned C = P.iteratorIndex("c"), K = P.iteratorIndex("k");
  EXPECT_TRUE(In.usesIter(H));
  EXPECT_TRUE(In.usesIter(R));
  EXPECT_TRUE(In.usesIter(C));
  EXPECT_FALSE(In.usesIter(K));
  EXPECT_TRUE(Out.usesIter(K));
  EXPECT_FALSE(Out.usesIter(C));
  EXPECT_FALSE(Ker.usesIter(H));

  EXPECT_EQ(P.numOps(), 8LL * 4 * 3 * 3 * 10 * 12);
}

TEST(ConvProblem, InputFootprintUsesHalo) {
  ConvLayer L;
  L.K = 1;
  L.C = 2;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  const Tensor &In = P.tensors()[1];
  // Tile of 4x4 output points with full 3x3 kernel and both channels:
  // footprint = 2 * (4+3-1) * (4+3-1) = 72.
  std::vector<std::int64_t> Tile(7, 1);
  Tile[P.iteratorIndex("c")] = 2;
  Tile[P.iteratorIndex("r")] = 3;
  Tile[P.iteratorIndex("s")] = 3;
  Tile[P.iteratorIndex("h")] = 4;
  Tile[P.iteratorIndex("w")] = 4;
  EXPECT_EQ(In.footprintWords(Tile), 2 * 6 * 6);
}

TEST(ConvProblem, StridedFootprint) {
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 16;
  L.Win = 16;
  L.R = 3;
  L.S = 3;
  L.StrideX = L.StrideY = 2;
  Problem P = makeConvProblem(L);
  const Tensor &In = P.tensors()[1];
  // 4x4 output tile at stride 2 with a 3x3 kernel:
  // extent = 2*(4-1) + 1*(3-1) + 1 = 9 per spatial dim.
  std::vector<std::int64_t> Tile(7, 1);
  Tile[P.iteratorIndex("r")] = 3;
  Tile[P.iteratorIndex("s")] = 3;
  Tile[P.iteratorIndex("h")] = 4;
  Tile[P.iteratorIndex("w")] = 4;
  EXPECT_EQ(In.footprintWords(Tile), 9 * 9);
}

TEST(ConvLayer, OutputSizesValidPaddingAndTransposed) {
  ConvLayer L;
  L.Hin = L.Win = 14;
  L.R = L.S = 3;
  L.DilationX = L.DilationY = 2;
  L.Padding = ConvPadding::Valid;
  // Dilated 3x3 spans 2*(3-1)+1 = 5 positions: out = 14 - 5 + 1 = 10.
  EXPECT_EQ(L.outH(), 10);
  L.StrideX = 2;
  EXPECT_EQ(L.outH(), (14 - 5) / 2 + 1);

  ConvLayer T;
  T.Hin = T.Win = 4;
  T.R = T.S = 4;
  T.StrideX = T.StrideY = 2;
  T.Transposed = true;
  // Full scatter extent: 2*(4-1) + (4-1) + 1 = 10, padding ignored.
  EXPECT_EQ(T.outH(), 10);
  T.Padding = ConvPadding::Valid;
  EXPECT_EQ(T.outH(), 10);
}

TEST(ConvLayer, ValidateNamesTheBadField) {
  ConvLayer L;
  L.Name = "bad";
  L.K = 8;
  L.C = 8;
  L.StrideX = 0;
  Status S = L.validate();
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  EXPECT_NE(S.toString().find("StrideX"), std::string::npos);
  EXPECT_NE(S.toString().find("'bad'"), std::string::npos);

  L.StrideX = 1;
  L.Groups = 3;
  EXPECT_NE(L.validate().toString().find("divisible"), std::string::npos);
  L.Groups = 8;
  EXPECT_TRUE(L.validate().isOk());

  // Valid padding needs the dilated kernel to fit.
  ConvLayer V;
  V.Hin = V.Win = 4;
  V.R = V.S = 3;
  V.DilationX = V.DilationY = 2;
  V.Padding = ConvPadding::Valid;
  EXPECT_FALSE(V.validate().isOk());
  V.Hin = V.Win = 5;
  EXPECT_TRUE(V.validate().isOk());
}

TEST(ConvLayer, ValidateRejectsShapesThatOverflow) {
  // 1e12 * 1e6 * 56 * 56 * 3 * 3 MACs and a K near INT64_MAX both wrap a
  // 64-bit count; they are input errors rather than garbage downstream.
  ConvLayer L;
  L.Name = "huge";
  L.K = 1000000000000;
  L.C = 1000000;
  L.Hin = L.Win = 56;
  L.R = L.S = 3;
  Status S = L.validate();
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  EXPECT_NE(S.toString().find("overflows"), std::string::npos);
  L.K = 9223372036854775806;
  L.C = 64;
  EXPECT_FALSE(L.validate().isOk());

  // Transposed outputs and dilated kernels are extents that can wrap
  // even when every field is small enough on its own.
  ConvLayer T;
  T.Transposed = true;
  T.StrideX = T.StrideY = 4611686018427387904;
  T.Hin = T.Win = 3;
  EXPECT_FALSE(T.validate().isOk());
  ConvLayer D;
  D.R = D.S = 3;
  D.DilationX = 4611686018427387904;
  EXPECT_FALSE(D.validate().isOk());

  // The largest shapes that fit still validate, and numMacs() is exact.
  ConvLayer Big;
  Big.K = 1 << 20;
  Big.C = 1 << 20;
  Big.Hin = Big.Win = 1 << 10;
  EXPECT_TRUE(Big.validate().isOk());
  EXPECT_EQ(Big.numMacs(), std::int64_t(1) << 60);
}

TEST(ConvLayer, GroupedMacCountAndClass) {
  ConvLayer L;
  L.K = 64;
  L.C = 64;
  L.Hin = L.Win = 28;
  L.R = L.S = 3;
  EXPECT_STREQ(L.layerClass(), "dense");
  L.Groups = 4;
  EXPECT_STREQ(L.layerClass(), "grouped");
  // Each output channel convolves only C/G input channels.
  EXPECT_EQ(L.numMacs(), 64LL * (64 / 4) * 3 * 3 * 28 * 28);
  L.Groups = 64;
  EXPECT_STREQ(L.layerClass(), "depthwise");
  EXPECT_EQ(L.numMacs(), 64LL * 3 * 3 * 28 * 28);

  ConvLayer D;
  D.DilationX = 2;
  EXPECT_STREQ(D.layerClass(), "dilated");
  ConvLayer T;
  T.Transposed = true;
  T.DilationX = 2;
  EXPECT_STREQ(T.layerClass(), "transposed");
}

TEST(ConvLayer, PaddingTokensRoundTrip) {
  EXPECT_STREQ(paddingName(ConvPadding::Same), "same");
  EXPECT_STREQ(paddingName(ConvPadding::Valid), "valid");
  ASSERT_TRUE(parsePadding("same").hasValue());
  EXPECT_EQ(parsePadding("same").value(), ConvPadding::Same);
  ASSERT_TRUE(parsePadding("valid").hasValue());
  EXPECT_EQ(parsePadding("valid").value(), ConvPadding::Valid);
  EXPECT_FALSE(parsePadding("full").hasValue());
}

TEST(ConvProblem, GroupedStructure) {
  ConvLayer L;
  L.K = 8;
  L.C = 4;
  L.Hin = L.Win = 10;
  L.R = L.S = 3;
  L.Groups = 2;
  Problem P = makeConvProblem(L);
  // The g iterator exists only for grouped layers, with per-group k/c.
  ASSERT_EQ(P.numIterators(), 8u);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("g")].Extent, 2);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("k")].Extent, 4);
  EXPECT_EQ(P.iterators()[P.iteratorIndex("c")].Extent, 2);
  // Out/Ker channel dim is (K/G)*g + k; In channel dim is (C/G)*g + c.
  unsigned G = P.iteratorIndex("g");
  const Tensor &Out = P.tensors()[0];
  const Tensor &In = P.tensors()[1];
  const Tensor &Ker = P.tensors()[2];
  ASSERT_EQ(Out.Dims[1].Terms.size(), 2u);
  EXPECT_EQ(Out.Dims[1].Terms[0].Iter, G);
  EXPECT_EQ(Out.Dims[1].Terms[0].Stride, 4);
  ASSERT_EQ(In.Dims[1].Terms.size(), 2u);
  EXPECT_EQ(In.Dims[1].Terms[0].Stride, 2);
  EXPECT_EQ(Ker.Dims[0].Terms[0].Iter, G);
  // Full-extent footprints recover the untiled tensor sizes.
  std::vector<std::int64_t> Full = P.fullExtents();
  EXPECT_EQ(Out.footprintWords(Full), 1LL * 8 * 10 * 10);
  EXPECT_EQ(In.footprintWords(Full), 1LL * 4 * 12 * 12);
  EXPECT_EQ(Ker.footprintWords(Full), 8LL * 2 * 3 * 3);
  EXPECT_EQ(P.numOps(), L.numMacs());
}

TEST(ConvProblem, TransposedStructure) {
  ConvLayer L;
  L.K = 4;
  L.C = 8;
  L.Hin = L.Win = 6;
  L.R = L.S = 4;
  L.StrideX = L.StrideY = 2;
  L.Transposed = true;
  Problem P = makeConvProblem(L);
  ASSERT_EQ(P.numIterators(), 7u);
  // h/w walk the *input* image; Out carries the strided projection.
  EXPECT_EQ(P.iterators()[P.iteratorIndex("h")].Extent, 6);
  const Tensor &Out = P.tensors()[0];
  const Tensor &In = P.tensors()[1];
  EXPECT_TRUE(Out.ReadWrite);
  ASSERT_EQ(Out.Dims[2].Terms.size(), 2u);
  EXPECT_EQ(Out.Dims[2].Terms[0].Stride, 2);
  EXPECT_EQ(Out.Dims[2].Terms[1].Stride, 1);
  ASSERT_EQ(In.Dims[2].Terms.size(), 1u);
  EXPECT_TRUE(In.usesIter(P.iteratorIndex("h")));
  EXPECT_FALSE(In.usesIter(P.iteratorIndex("r")));
  // The scattered output spans the full transposed extent.
  std::vector<std::int64_t> Full = P.fullExtents();
  EXPECT_EQ(Out.footprintWords(Full), 1LL * 4 * L.outH() * L.outW());
  EXPECT_EQ(L.outH(), 2 * 5 + 3 + 1);
  EXPECT_EQ(P.numOps(), L.numMacs());
}

TEST(ConvProblem, DenseDefaultsBuildTheLegacySevenIteratorNest) {
  // Groups == 1 && !Transposed must reproduce Listing 1 exactly — same
  // iterator order, extents and projections — so every dense result in
  // the repo (and the GP cache keyed on this structure) is unchanged.
  ConvLayer L;
  L.K = 8;
  L.C = 4;
  L.Hin = 10;
  L.Win = 12;
  L.R = 3;
  L.S = 3;
  L.StrideX = L.StrideY = 2;
  Problem P = makeConvProblem(L);
  const char *Expected[] = {"n", "k", "c", "r", "s", "h", "w"};
  ASSERT_EQ(P.numIterators(), 7u);
  for (unsigned I = 0; I < 7; ++I)
    EXPECT_EQ(P.iterators()[I].Name, Expected[I]);
  for (const Tensor &T : P.tensors())
    for (const DimRef &D : T.Dims)
      EXPECT_LE(D.Terms.size(), 2u);
  const Tensor &Out = P.tensors()[0];
  ASSERT_EQ(Out.Dims[1].Terms.size(), 1u);
  EXPECT_EQ(Out.Dims[1].Terms[0].Iter, P.iteratorIndex("k"));
  EXPECT_EQ(Out.Dims[1].Terms[0].Stride, 1);
}

TEST(MatmulProblem, Structure) {
  Problem P = makeMatmulProblem(16, 32, 64);
  ASSERT_EQ(P.numIterators(), 3u);
  EXPECT_EQ(P.numOps(), 16LL * 32 * 64);
  const Tensor &C = P.tensors()[0];
  EXPECT_TRUE(C.ReadWrite);
  EXPECT_FALSE(C.usesIter(P.iteratorIndex("k")));
  const Tensor &A = P.tensors()[1];
  EXPECT_TRUE(A.usesIter(P.iteratorIndex("i")));
  EXPECT_TRUE(A.usesIter(P.iteratorIndex("k")));
  EXPECT_FALSE(A.usesIter(P.iteratorIndex("j")));
}

TEST(Mapping, UntiledValidates) {
  Problem P = makeMatmulProblem(4, 6, 8);
  Mapping M = Mapping::untiled(P);
  EXPECT_TRUE(M.validate(P).empty());
  EXPECT_EQ(M.numPEsUsed(), 1);
  EXPECT_EQ(M.registerTileExtents(), (std::vector<std::int64_t>{4, 6, 8}));
}

TEST(Mapping, TileExtentProducts) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Mapping M = Mapping::untiled(P);
  for (unsigned I = 0; I < 3; ++I) {
    M.factor(I, TileLevel::Register) = 2;
    M.factor(I, TileLevel::PeTemporal) = 2;
    M.factor(I, TileLevel::Spatial) = 2;
    M.factor(I, TileLevel::DramTemporal) = 1;
  }
  EXPECT_TRUE(M.validate(P).empty());
  EXPECT_EQ(M.registerTileExtents(), (std::vector<std::int64_t>{2, 2, 2}));
  EXPECT_EQ(M.peTileExtents(), (std::vector<std::int64_t>{4, 4, 4}));
  EXPECT_EQ(M.sramTileExtents(), (std::vector<std::int64_t>{8, 8, 8}));
  EXPECT_EQ(M.numPEsUsed(), 8);
}

TEST(Mapping, ValidateCatchesBadFactorProduct) {
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = Mapping::untiled(P);
  M.factor(0, TileLevel::Register) = 3; // 3 does not divide into 4.
  EXPECT_FALSE(M.validate(P).empty());
}

TEST(Mapping, ValidateCatchesBadPermutation) {
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = Mapping::untiled(P);
  M.DramPerm = {0, 0, 1};
  EXPECT_FALSE(M.validate(P).empty());
  M.DramPerm = {0, 1};
  EXPECT_FALSE(M.validate(P).empty());
}
