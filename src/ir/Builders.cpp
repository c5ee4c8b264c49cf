//===- ir/Builders.cpp - CNN and matmul problem builders ------------------===//

#include "ir/Builders.h"

#include "support/MathUtil.h"

using namespace thistle;

const char *thistle::paddingName(ConvPadding Padding) {
  switch (Padding) {
  case ConvPadding::Same:
    return "same";
  case ConvPadding::Valid:
    return "valid";
  }
  return "unknown";
}

Expected<ConvPadding> thistle::parsePadding(const std::string &Token) {
  if (Token == "same")
    return ConvPadding::Same;
  if (Token == "valid")
    return ConvPadding::Valid;
  return Status::invalidArgument("unknown padding '" + Token +
                                 "' (want same or valid)");
}

Status ConvLayer::validate() const {
  const struct {
    const char *Field;
    std::int64_t Value;
  } Positives[] = {
      {"N", N},           {"K", K},
      {"C", C},           {"Hin", Hin},
      {"Win", Win},       {"R", R},
      {"S", S},           {"StrideX", StrideX},
      {"StrideY", StrideY}, {"DilationX", DilationX},
      {"DilationY", DilationY}, {"Groups", Groups},
  };
  for (const auto &P : Positives)
    if (P.Value <= 0)
      return Status::invalidArgument(
          "layer '" + Name + "': " + P.Field + " = " +
          std::to_string(P.Value) + " must be positive");
  if (K % Groups != 0)
    return Status::invalidArgument("layer '" + Name + "': K = " +
                                   std::to_string(K) +
                                   " not divisible by Groups = " +
                                   std::to_string(Groups));
  if (C % Groups != 0)
    return Status::invalidArgument("layer '" + Name + "': C = " +
                                   std::to_string(C) +
                                   " not divisible by Groups = " +
                                   std::to_string(Groups));
  // Every count the models derive must fit int64. The MAC count and the
  // footprint of the strided tensor (In, or Out when transposed) bound
  // all the others, so checked arithmetic on those turns an oversized
  // shape into an input error instead of a wrap-around downstream.
  bool Overflow = false;
  auto mul = [&Overflow](std::int64_t A, std::int64_t B) {
    Overflow |= __builtin_mul_overflow(A, B, &A);
    return A;
  };
  auto add = [&Overflow](std::int64_t A, std::int64_t B) {
    Overflow |= __builtin_add_overflow(A, B, &A);
    return A;
  };
  const std::int64_t KernelH = add(mul(DilationX, R - 1), 1);
  const std::int64_t KernelW = add(mul(DilationY, S - 1), 1);
  add(Hin, StrideX); // outH()/outW()'s ceiling division.
  add(Win, StrideY);
  if (!Overflow && !Transposed && Padding == ConvPadding::Valid) {
    if (Hin < KernelH)
      return Status::invalidArgument(
          "layer '" + Name + "': valid padding needs Hin >= " +
          std::to_string(KernelH) + " (dilated kernel height), got " +
          std::to_string(Hin));
    if (Win < KernelW)
      return Status::invalidArgument(
          "layer '" + Name + "': valid padding needs Win >= " +
          std::to_string(KernelW) + " (dilated kernel width), got " +
          std::to_string(Win));
  }
  if (!Overflow) {
    const std::int64_t ExtH = Transposed ? Hin : outH();
    const std::int64_t ExtW = Transposed ? Win : outW();
    mul(mul(N, Transposed ? K : C),
        mul(add(mul(StrideX, ExtH - 1), KernelH),
            add(mul(StrideY, ExtW - 1), KernelW)));
    mul(mul(mul(N, K), mul(C / Groups, R)), mul(S, mul(ExtH, ExtW)));
  }
  if (Overflow)
    return Status::invalidArgument(
        "layer '" + Name + "': too large: the MAC count or a tensor "
        "footprint overflows a 64-bit integer");
  return Status::ok();
}

Expected<ConvLayer>
thistle::customLayer(const std::vector<std::int64_t> &Dims) {
  if (Dims.size() < 6 || Dims.size() > 8)
    return Status::invalidArgument("wants K,C,H,W,R,S[,stride[,dilation]]");
  ConvLayer L;
  L.Name = "custom";
  L.K = Dims[0];
  L.C = Dims[1];
  L.Hin = Dims[2];
  L.Win = Dims[3];
  L.R = Dims[4];
  L.S = Dims[5];
  L.StrideX = L.StrideY = Dims.size() > 6 ? Dims[6] : 1;
  L.DilationX = L.DilationY = Dims.size() > 7 ? Dims[7] : 1;
  return L;
}

std::int64_t ConvLayer::outH() const {
  if (Transposed)
    return StrideX * (Hin - 1) + DilationX * (R - 1) + 1;
  if (Padding == ConvPadding::Valid)
    return (Hin - DilationX * (R - 1) - 1) / StrideX + 1;
  return ceilDiv(Hin, StrideX);
}

std::int64_t ConvLayer::outW() const {
  if (Transposed)
    return StrideY * (Win - 1) + DilationY * (S - 1) + 1;
  if (Padding == ConvPadding::Valid)
    return (Win - DilationY * (S - 1) - 1) / StrideY + 1;
  return ceilDiv(Win, StrideY);
}

std::int64_t ConvLayer::numMacs() const {
  const std::int64_t Spatial =
      Transposed ? Hin * Win : outH() * outW();
  return N * K * (C / Groups) * R * S * Spatial;
}

const char *ConvLayer::layerClass() const {
  if (Transposed)
    return "transposed";
  if (Groups > 1)
    return Groups == C ? "depthwise" : "grouped";
  if (DilationX > 1 || DilationY > 1)
    return "dilated";
  return "dense";
}

Problem thistle::makeConvProblem(const ConvLayer &Layer) {
  assert(Layer.validate().isOk() && "makeConvProblem wants a valid layer");
  const bool Grouped = Layer.Groups > 1;
  const std::int64_t Kg = Layer.K / Layer.Groups;
  const std::int64_t Cg = Layer.C / Layer.Groups;
  // Direct convs iterate h/w over the output image (In carries the
  // strided projection); transposed convs iterate over the input image
  // (Out carries it).
  const std::int64_t ExtH = Layer.Transposed ? Layer.Hin : Layer.outH();
  const std::int64_t ExtW = Layer.Transposed ? Layer.Win : Layer.outW();

  std::vector<Iterator> Iters;
  Iters.push_back({"n", Layer.N});
  const unsigned ItN = 0;
  unsigned ItG = 0;
  if (Grouped) {
    ItG = Iters.size();
    Iters.push_back({"g", Layer.Groups});
  }
  const unsigned ItK = Iters.size();
  Iters.push_back({"k", Kg});
  const unsigned ItC = Iters.size();
  Iters.push_back({"c", Cg});
  const unsigned ItR = Iters.size();
  Iters.push_back({"r", Layer.R});
  const unsigned ItS = Iters.size();
  Iters.push_back({"s", Layer.S});
  const unsigned ItH = Iters.size();
  Iters.push_back({"h", ExtH});
  const unsigned ItW = Iters.size();
  Iters.push_back({"w", ExtW});

  // Channel projections: grouped layers address Out/Ker filters as
  // (K/G)*g + k and In channels as (C/G)*g + c.
  DimRef OutChannels, InChannels;
  if (Grouped) {
    OutChannels.Terms = {{ItG, Kg}, {ItK, 1}};
    InChannels.Terms = {{ItG, Cg}, {ItC, 1}};
  } else {
    OutChannels.Terms = {{ItK, 1}};
    InChannels.Terms = {{ItC, 1}};
  }

  // The strided spatial projections x*h + dil_x*r and y*w + dil_y*s.
  DimRef StridedH, StridedW;
  StridedH.Terms = {{ItH, Layer.StrideX}, {ItR, Layer.DilationX}};
  StridedW.Terms = {{ItW, Layer.StrideY}, {ItS, Layer.DilationY}};
  DimRef PointH, PointW;
  PointH.Terms = {{ItH, 1}};
  PointW.Terms = {{ItW, 1}};

  Tensor Out;
  Out.Name = "Out";
  Out.ReadWrite = true;

  Tensor In;
  In.Name = "In";

  if (Layer.Transposed) {
    Out.Dims = {{{{ItN, 1}}}, OutChannels, StridedH, StridedW};
    In.Dims = {{{{ItN, 1}}}, InChannels, PointH, PointW};
  } else {
    Out.Dims = {{{{ItN, 1}}}, OutChannels, PointH, PointW};
    In.Dims = {{{{ItN, 1}}}, InChannels, StridedH, StridedW};
  }

  Tensor Ker;
  Ker.Name = "Ker";
  Ker.Dims = {OutChannels, {{{ItC, 1}}}, {{{ItR, 1}}}, {{{ItS, 1}}}};

  return Problem(Layer.Name, std::move(Iters),
                 {std::move(Out), std::move(In), std::move(Ker)});
}

Problem thistle::makeMatmulProblem(std::int64_t Ni, std::int64_t Nj,
                                   std::int64_t Nk) {
  std::vector<Iterator> Iters = {{"i", Ni}, {"j", Nj}, {"k", Nk}};
  enum : unsigned { ItI, ItJ, ItK };

  Tensor CMat;
  CMat.Name = "C";
  CMat.ReadWrite = true;
  CMat.Dims = {{{{ItI, 1}}}, {{{ItJ, 1}}}};

  Tensor AMat;
  AMat.Name = "A";
  AMat.Dims = {{{{ItI, 1}}}, {{{ItK, 1}}}};

  Tensor BMat;
  BMat.Name = "B";
  BMat.Dims = {{{{ItK, 1}}}, {{{ItJ, 1}}}};

  return Problem("matmul", std::move(Iters),
                 {std::move(CMat), std::move(AMat), std::move(BMat)});
}
