//===- tests/WorkloadsTest.cpp - workloads/ tests (Table II) --------------===//

#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

TEST(Workloads, LayerCountsMatchTableII) {
  EXPECT_EQ(resnet18Layers().size(), 12u);
  EXPECT_EQ(yolo9000Layers().size(), 11u);
  EXPECT_EQ(allPaperLayers().size(), 23u);
}

TEST(Workloads, NamedTablesResolve) {
  EXPECT_EQ(networkLayers("resnet18").value().size(),
            resnet18NetworkLayers().size());
  EXPECT_EQ(networkLayers("all").value().size(),
            allNetworkLayers().size());
  EXPECT_EQ(networkLayers("dcgan").value().size(),
            dcganNetworkLayers().size());
  EXPECT_EQ(pipelineLayers("yolo").value().size(), 11u);
  EXPECT_EQ(pipelineLayers("all").value().size(), 23u);
  EXPECT_NE(networkLayers("vgg").status().toString().find(
                "unknown network 'vgg'"),
            std::string::npos);
  EXPECT_FALSE(pipelineLayers("resnet18").hasValue());
}

TEST(Workloads, ResnetSpotChecks) {
  std::vector<ConvLayer> L = resnet18Layers();
  // Layer 1: K=64, C=3, H=W=224, R=S=7, stride 2.
  EXPECT_EQ(L[0].K, 64);
  EXPECT_EQ(L[0].C, 3);
  EXPECT_EQ(L[0].Hin, 224);
  EXPECT_EQ(L[0].R, 7);
  EXPECT_EQ(L[0].StrideX, 2);
  // Layer 4: 128, 64, 56, 3, stride 2 (marked * in Table II).
  EXPECT_EQ(L[3].K, 128);
  EXPECT_EQ(L[3].R, 3);
  EXPECT_EQ(L[3].StrideX, 2);
  // Layer 12: 512, 512, 7, 3, stride 1.
  EXPECT_EQ(L[11].K, 512);
  EXPECT_EQ(L[11].C, 512);
  EXPECT_EQ(L[11].Hin, 7);
  EXPECT_EQ(L[11].StrideX, 1);
  // All batch size 1 and square.
  for (const ConvLayer &Layer : L) {
    EXPECT_EQ(Layer.N, 1);
    EXPECT_EQ(Layer.Hin, Layer.Win);
    EXPECT_EQ(Layer.R, Layer.S);
    EXPECT_EQ(Layer.StrideX, Layer.StrideY);
  }
}

TEST(Workloads, YoloSpotChecks) {
  std::vector<ConvLayer> L = yolo9000Layers();
  // Layer 1: K=32, C=3, H=W=544, R=S=3.
  EXPECT_EQ(L[0].K, 32);
  EXPECT_EQ(L[0].C, 3);
  EXPECT_EQ(L[0].Hin, 544);
  EXPECT_EQ(L[0].R, 3);
  // Layer 11: the 28269-channel classifier conv.
  EXPECT_EQ(L[10].K, 28269);
  EXPECT_EQ(L[10].C, 1024);
  EXPECT_EQ(L[10].Hin, 17);
  EXPECT_EQ(L[10].R, 1);
  // Yolo uses stride 1 everywhere (no * in Table II).
  for (const ConvLayer &Layer : L)
    EXPECT_EQ(Layer.StrideX, 1);
}

TEST(Workloads, LayerNamesAreUnique) {
  std::vector<ConvLayer> All = allPaperLayers();
  for (std::size_t I = 0; I < All.size(); ++I)
    for (std::size_t J = I + 1; J < All.size(); ++J)
      EXPECT_NE(All[I].Name, All[J].Name);
}

TEST(Workloads, ProblemsBuildAndHavePlausibleMacCounts) {
  for (const ConvLayer &L : allPaperLayers()) {
    Problem P = makeConvProblem(L);
    EXPECT_EQ(P.numOps(), L.numMacs()) << L.Name;
    EXPECT_GT(P.numOps(), 1000000) << L.Name; // All layers are nontrivial.
  }
}

TEST(Workloads, EyerissBaseline) {
  ArchConfig A = eyerissArch();
  EXPECT_EQ(A.NumPEs, 168);
  EXPECT_EQ(A.RegWordsPerPE, 512);
  EXPECT_EQ(A.SramWords, 65536);
  EXPECT_GT(eyerissAreaUm2(TechParams::cgo45nm()), 0.0);
}

TEST(Workloads, MobileNetV2TableShape) {
  std::vector<ConvLayer> Shapes = mobilenetV2Layers();
  std::vector<ConvLayer> Net = mobilenetV2NetworkLayers();
  EXPECT_EQ(Shapes.size(), 30u);
  EXPECT_EQ(Net.size(), 52u);
  // Every layer in both tables is well-formed.
  for (const ConvLayer &L : Net)
    EXPECT_TRUE(L.validate().isOk()) << L.Name;
  // Unique names within the shape table.
  for (std::size_t I = 0; I < Shapes.size(); ++I)
    for (std::size_t J = I + 1; J < Shapes.size(); ++J)
      EXPECT_NE(Shapes[I].Name, Shapes[J].Name);
}

TEST(Workloads, MobileNetV2SpotChecks) {
  std::vector<ConvLayer> L = mobilenetV2Layers();
  // Stem: 32 output channels over RGB at 224x224, stride 2.
  EXPECT_EQ(L[0].K, 32);
  EXPECT_EQ(L[0].C, 3);
  EXPECT_EQ(L[0].Hin, 224);
  EXPECT_EQ(L[0].StrideX, 2);
  EXPECT_STREQ(L[0].layerClass(), "dense");
  // The table mixes depthwise 3x3s with pointwise expand/project 1x1s.
  std::size_t Depthwise = 0, Pointwise = 0;
  for (const ConvLayer &Layer : L) {
    if (std::string(Layer.layerClass()) == "depthwise") {
      ++Depthwise;
      EXPECT_EQ(Layer.Groups, Layer.C);
      EXPECT_EQ(Layer.K, Layer.C);
      EXPECT_EQ(Layer.R, 3);
      // Depthwise MACs drop the cross-channel reduction: one input
      // channel per output channel.
      EXPECT_EQ(Layer.numMacs(),
                Layer.N * Layer.K * 9 * Layer.outH() * Layer.outW())
          << Layer.Name;
    } else if (Layer.R == 1 && Layer.Groups == 1) {
      ++Pointwise;
    }
  }
  EXPECT_EQ(Depthwise, 10u);
  EXPECT_GT(Pointwise, 15u);
  // Head: 1280-channel 1x1 at 7x7.
  EXPECT_EQ(L.back().K, 1280);
  EXPECT_EQ(L.back().C, 320);
  EXPECT_EQ(L.back().Hin, 7);
}

TEST(Workloads, DcganTableShape) {
  std::vector<ConvLayer> L = dcganLayers();
  EXPECT_EQ(L.size(), 6u);
  EXPECT_EQ(dcganNetworkLayers().size(), 6u);
  std::size_t Transposed = 0, Dilated = 0;
  for (const ConvLayer &Layer : L) {
    EXPECT_TRUE(Layer.validate().isOk()) << Layer.Name;
    if (Layer.Transposed)
      ++Transposed;
    else if (Layer.DilationX > 1)
      ++Dilated;
  }
  EXPECT_EQ(Transposed, 4u);
  EXPECT_EQ(Dilated, 2u);
  // Generator stage 1: 1024 -> 512 channels, 4x4 kernel, stride 2;
  // full transposed output is Stride*(Hin-1) + (R-1) + 1 = 10.
  EXPECT_EQ(L[0].K, 512);
  EXPECT_EQ(L[0].C, 1024);
  EXPECT_EQ(L[0].Hin, 4);
  EXPECT_TRUE(L[0].Transposed);
  EXPECT_EQ(L[0].outH(), 2 * (4 - 1) + (4 - 1) + 1);
  // Transposed MACs iterate the *input* spatial extent.
  EXPECT_EQ(L[0].numMacs(), 512ll * 1024 * 4 * 4 * 4 * 4);
}

TEST(Workloads, GeneralTablesBuildProblemsWithExactMacs) {
  std::vector<ConvLayer> All = mobilenetV2NetworkLayers();
  std::vector<ConvLayer> D = dcganLayers();
  All.insert(All.end(), D.begin(), D.end());
  for (const ConvLayer &L : All) {
    Problem P = makeConvProblem(L);
    EXPECT_EQ(P.numOps(), L.numMacs()) << L.Name;
  }
}
