//===- codegen/TiledNest.cpp - Tiled loop-nest code generation ------------===//

#include "codegen/TiledNest.h"

#include "multilevel/TileWalk.h"

#include <cassert>
#include <sstream>

using namespace thistle;
using namespace thistle::simdetail;

// Buffer-level convention: BufferLevel == TileLevel::Register denotes the
// per-PE register buffer (registerTileExtents); BufferLevel ==
// TileLevel::Spatial denotes the shared SRAM buffer (sramTileExtents,
// which span the PE grid).

namespace {

/// The loops of one temporal level in permutation order, trip-1 elided.
struct LevelLoop {
  unsigned Iter;
  std::int64_t Trip;
};

std::vector<LevelLoop> levelLoops(const Mapping &Map,
                                  const std::vector<unsigned> &Perm,
                                  TileLevel Level) {
  std::vector<LevelLoop> Loops;
  for (unsigned It : Perm) {
    std::int64_t Trip = Map.factor(It, Level);
    if (Trip > 1)
      Loops.push_back({It, Trip});
  }
  return Loops;
}

/// Builds the nested loop chain of one temporal level with copies placed
/// at their hoist points: tensor T's copy sits just inside its innermost
/// present loop (and above the trailing absent loops), or before the
/// whole chain when no loop touches it.
std::vector<NestNode>
buildLevelChain(const Problem &Prob, const std::vector<LevelLoop> &Loops,
                TileLevel LoopLevel, TileLevel BufferLevel,
                std::vector<NestNode> Inner) {
  // Copy position per tensor: index of the loop *after* which the copy
  // sits (0 = before all loops of this level).
  std::vector<std::size_t> CopyPos(Prob.tensors().size(), 0);
  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI)
    for (std::size_t K = Loops.size(); K > 0; --K)
      if (Prob.tensors()[TI].usesIter(Loops[K - 1].Iter)) {
        CopyPos[TI] = K;
        break;
      }

  // Assemble inner-to-outer.
  std::vector<NestNode> Chain = std::move(Inner);
  for (std::size_t Pos = Loops.size() + 1; Pos > 0; --Pos) {
    std::size_t P = Pos - 1;
    std::vector<NestNode> Stmts;
    for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI)
      if (CopyPos[TI] == P) {
        NestNode Copy;
        Copy.K = NestNode::Kind::CopyIn;
        Copy.TensorIdx = static_cast<unsigned>(TI);
        Copy.BufferLevel = BufferLevel;
        Stmts.push_back(Copy);
      }
    if (P == Loops.size()) {
      for (NestNode &N : Chain)
        Stmts.push_back(std::move(N));
    } else {
      NestNode Loop;
      Loop.K = NestNode::Kind::Loop;
      Loop.Iter = Loops[P].Iter;
      Loop.Trip = Loops[P].Trip;
      Loop.Level = LoopLevel;
      Loop.Body = std::move(Chain);
      Stmts.push_back(std::move(Loop));
    }
    for (std::size_t TI = Prob.tensors().size(); TI > 0; --TI)
      if (CopyPos[TI - 1] == P && Prob.tensors()[TI - 1].ReadWrite) {
        NestNode Copy;
        Copy.K = NestNode::Kind::CopyOut;
        Copy.TensorIdx = static_cast<unsigned>(TI - 1);
        Copy.BufferLevel = BufferLevel;
        Stmts.push_back(Copy);
      }
    Chain = std::move(Stmts);
  }
  return Chain;
}

} // namespace

TiledNest thistle::buildTiledNest(const Problem &Prob, const Mapping &Map) {
  assert(Map.validate(Prob).empty() && "mapping must validate");

  // Innermost: the register-tile compute loops and the MAC.
  std::vector<NestNode> Compute(1);
  Compute[0].K = NestNode::Kind::Compute;
  for (unsigned I = Prob.numIterators(); I > 0; --I) {
    std::int64_t Trip = Map.factor(I - 1, TileLevel::Register);
    if (Trip == 1)
      continue;
    NestNode Loop;
    Loop.K = NestNode::Kind::Loop;
    Loop.Iter = I - 1;
    Loop.Trip = Trip;
    Loop.Level = TileLevel::Register;
    Loop.Body = std::move(Compute);
    Compute.clear();
    Compute.push_back(std::move(Loop));
  }

  // Per-PE temporal loops with register-buffer copies.
  std::vector<NestNode> PeChain = buildLevelChain(
      Prob, levelLoops(Map, Map.PePerm, TileLevel::PeTemporal),
      TileLevel::PeTemporal, TileLevel::Register, std::move(Compute));

  // Spatial forall loops (no copies: the SRAM tile already spans them).
  for (unsigned I = Prob.numIterators(); I > 0; --I) {
    std::int64_t Trip = Map.factor(I - 1, TileLevel::Spatial);
    if (Trip == 1)
      continue;
    NestNode Loop;
    Loop.K = NestNode::Kind::Parallel;
    Loop.Iter = I - 1;
    Loop.Trip = Trip;
    Loop.Level = TileLevel::Spatial;
    Loop.Body = std::move(PeChain);
    PeChain.clear();
    PeChain.push_back(std::move(Loop));
  }

  // DRAM-level loops with SRAM-buffer copies.
  TiledNest Nest;
  Nest.Stmts = buildLevelChain(
      Prob, levelLoops(Map, Map.DramPerm, TileLevel::DramTemporal),
      TileLevel::DramTemporal, TileLevel::Spatial, std::move(PeChain));
  return Nest;
}

namespace {

const char *levelSuffix(TileLevel Level) {
  switch (Level) {
  case TileLevel::DramTemporal:
    return "_s";
  case TileLevel::Spatial:
    return "_p";
  case TileLevel::PeTemporal:
    return "_q";
  case TileLevel::Register:
    return "_r";
  }
  return "";
}

void printNode(const Problem &Prob, const Mapping &Map, const NestNode &N,
               unsigned Indent, std::ostringstream &OS) {
  std::string Pad(2 * Indent, ' ');
  switch (N.K) {
  case NestNode::Kind::Loop:
  case NestNode::Kind::Parallel: {
    std::string Var = Prob.iterators()[N.Iter].Name + levelSuffix(N.Level);
    OS << Pad << (N.K == NestNode::Kind::Parallel ? "forall" : "for")
       << " (" << Var << " = 0; " << Var << " < " << N.Trip << "; ++"
       << Var << ") {\n";
    for (const NestNode &C : N.Body)
      printNode(Prob, Map, C, Indent + 1, OS);
    OS << Pad << "}\n";
    break;
  }
  case NestNode::Kind::CopyIn:
  case NestNode::Kind::CopyOut: {
    const Tensor &T = Prob.tensors()[N.TensorIdx];
    bool Reg = N.BufferLevel == TileLevel::Register;
    std::vector<std::int64_t> Extents =
        Reg ? Map.registerTileExtents() : Map.sramTileExtents();
    std::string Buf = T.Name + (Reg ? "_reg" : "_buf");
    std::string Src = Reg ? T.Name + "_buf" : T.Name;
    if (N.K == NestNode::Kind::CopyIn)
      OS << Pad << Buf << "[...] = " << Src << "[tile];";
    else
      OS << Pad << Src << "[tile] = " << Buf << "[...];";
    OS << "  // " << T.footprintWords(Extents) << " words\n";
    break;
  }
  case NestNode::Kind::Compute: {
    OS << Pad << Prob.tensors()[0].Name << "_reg[..] +=";
    for (std::size_t TI = 1; TI < Prob.tensors().size(); ++TI)
      OS << (TI > 1 ? " *" : "") << " " << Prob.tensors()[TI].Name
         << "_reg[..]";
    OS << ";\n";
    break;
  }
  }
}

} // namespace

std::string thistle::printTiledNest(const Problem &Prob, const Mapping &Map,
                                    const TiledNest &Nest) {
  std::ostringstream OS;
  for (const NestNode &N : Nest.Stmts)
    printNode(Prob, Map, N, 0, OS);
  return OS.str();
}

namespace {

/// Deterministic small-integer fill so floating-point accumulation is
/// exact and order-independent.
double inputValue(unsigned TensorIdx, std::int64_t FlatIndex,
                  std::uint64_t Seed) {
  std::uint64_t H = Seed + 0x9E3779B97F4A7C15ULL * (FlatIndex + 1) +
                    0xBF58476D1CE4E5B9ULL * (TensorIdx + 1);
  H = (H ^ (H >> 30)) * 0xBF58476D1CE4E5B9ULL;
  H = (H ^ (H >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<double>((H >> 32) % 7) - 3.0;
}

/// Dense hull shape of one tensor over the full iteration space.
struct TensorHull {
  std::vector<std::int64_t> DimExtents;
  std::vector<std::int64_t> Strides; // Row-major flattening.
  std::vector<double> Data;

  std::int64_t flatten(const std::vector<std::int64_t> &Coords) const {
    std::int64_t Flat = 0;
    for (std::size_t D = 0; D < Coords.size(); ++D) {
      assert(Coords[D] >= 0 && Coords[D] < DimExtents[D] &&
             "hull coordinate out of range");
      Flat += Coords[D] * Strides[D];
    }
    return Flat;
  }
};

TensorHull makeHull(const Problem &Prob, unsigned TensorIdx,
                    std::uint64_t Seed, bool Fill) {
  const Tensor &T = Prob.tensors()[TensorIdx];
  std::vector<std::int64_t> Full = Prob.fullExtents();
  TensorHull Hull;
  for (const DimRef &D : T.Dims)
    Hull.DimExtents.push_back(D.extentFor(Full));
  Hull.Strides.assign(Hull.DimExtents.size(), 1);
  for (std::size_t D = Hull.DimExtents.size(); D > 1; --D)
    Hull.Strides[D - 2] = Hull.Strides[D - 1] * Hull.DimExtents[D - 1];
  std::int64_t Size = Hull.DimExtents.empty()
                          ? 1
                          : Hull.Strides[0] * Hull.DimExtents[0];
  Hull.Data.assign(Size, 0.0);
  if (Fill)
    for (std::int64_t I = 0; I < Size; ++I)
      Hull.Data[I] = inputValue(TensorIdx, I, Seed);
  return Hull;
}

/// Data-space coordinates of one iteration point for one tensor.
std::vector<std::int64_t>
pointCoords(const Tensor &T, const std::vector<std::int64_t> &IterVal) {
  std::vector<std::int64_t> Coords;
  Coords.reserve(T.Dims.size());
  for (const DimRef &D : T.Dims) {
    std::int64_t C = 0;
    for (const DimRef::Term &Term : D.Terms)
      C += Term.Stride * IterVal[Term.Iter];
    Coords.push_back(C);
  }
  return Coords;
}

/// A live buffer: the box it covers plus its contents.
struct LiveBuffer {
  bool Valid = false;
  Box Covered;
  std::vector<std::int64_t> Strides;
  std::vector<double> Data;

  void allocate(const Box &B) {
    Valid = true;
    Covered = B;
    Strides.assign(B.Ranges.size(), 1);
    for (std::size_t D = B.Ranges.size(); D > 1; --D)
      Strides[D - 2] = Strides[D - 1] * (B.Ranges[D - 1].second -
                                         B.Ranges[D - 1].first + 1);
    Data.assign(static_cast<std::size_t>(boxWords(B)), 0.0);
  }

  bool contains(const std::vector<std::int64_t> &Coords) const {
    if (!Valid)
      return false;
    for (std::size_t D = 0; D < Coords.size(); ++D)
      if (Coords[D] < Covered.Ranges[D].first ||
          Coords[D] > Covered.Ranges[D].second)
        return false;
    return true;
  }

  double &at(const std::vector<std::int64_t> &Coords) {
    std::int64_t Flat = 0;
    for (std::size_t D = 0; D < Coords.size(); ++D)
      Flat += (Coords[D] - Covered.Ranges[D].first) * Strides[D];
    return Data[static_cast<std::size_t>(Flat)];
  }
};

/// Interpreter state.
struct Interp {
  const Problem &Prob;
  const Mapping &Map;
  InterpResult &Result;
  std::vector<TensorHull> Hulls;
  std::vector<LiveBuffer> SramBufs, RegBufs;
  std::vector<std::int64_t> IterVal;
  std::vector<std::int64_t> RegExt, PeExt, SramExt;
  bool Failed = false;

  Interp(const Problem &Prob, const Mapping &Map, InterpResult &Result,
         std::uint64_t Seed)
      : Prob(Prob), Map(Map), Result(Result), IterVal(Prob.numIterators(), 0),
        RegExt(Map.registerTileExtents()), PeExt(Map.peTileExtents()),
        SramExt(Map.sramTileExtents()) {
    for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI)
      Hulls.push_back(makeHull(Prob, TI, Seed,
                               /*Fill=*/!Prob.tensors()[TI].ReadWrite));
    SramBufs.resize(Prob.tensors().size());
    RegBufs.resize(Prob.tensors().size());
  }

  void fail(const std::string &Why) {
    if (!Failed)
      Result.Error = Why;
    Failed = true;
  }

  /// Step size of a loop at \p Level for iterator \p Iter.
  std::int64_t stepOf(TileLevel Level, unsigned Iter) const {
    switch (Level) {
    case TileLevel::Register:
      return 1;
    case TileLevel::PeTemporal:
      return RegExt[Iter];
    case TileLevel::Spatial:
      return PeExt[Iter];
    case TileLevel::DramTemporal:
      return SramExt[Iter];
    }
    return 1;
  }

  void copy(const NestNode &N) {
    if (Failed)
      return;
    const Tensor &T = Prob.tensors()[N.TensorIdx];
    bool Reg = N.BufferLevel == TileLevel::Register;
    const std::vector<std::int64_t> &Ext = Reg ? RegExt : SramExt;
    Box B = tileBox(T, IterVal, Ext);
    LiveBuffer &Dst = Reg ? RegBufs[N.TensorIdx] : SramBufs[N.TensorIdx];
    std::int64_t Words = boxWords(B);
    auto &Traffic = Result.PerTensor[N.TensorIdx];

    if (N.K == NestNode::Kind::CopyIn) {
      Dst.allocate(B);
      (Reg ? Traffic.SramToReg : Traffic.DramToSram) += Words;
    } else {
      if (!Dst.Valid || !(Dst.Covered == B)) {
        fail("copy-out of " + T.Name + " does not match its buffer");
        return;
      }
      (Reg ? Traffic.RegToSram : Traffic.SramToDram) += Words;
    }

    // Element-wise transfer between this buffer and its parent.
    std::vector<std::int64_t> Coords;
    for (const auto &[Lo, Hi] : B.Ranges)
      Coords.push_back(Lo);
    while (true) {
      double *Parent = nullptr;
      if (Reg) {
        LiveBuffer &Sram = SramBufs[N.TensorIdx];
        if (!Sram.contains(Coords)) {
          fail("register tile of " + T.Name + " outside its SRAM buffer");
          return;
        }
        Parent = &Sram.at(Coords);
      } else {
        Parent = &Hulls[N.TensorIdx].Data[static_cast<std::size_t>(
            Hulls[N.TensorIdx].flatten(Coords))];
      }
      if (N.K == NestNode::Kind::CopyIn)
        Dst.at(Coords) = *Parent;
      else
        *Parent = Dst.at(Coords);
      // Advance the coordinate odometer.
      std::size_t D = Coords.size();
      bool More = false;
      while (D > 0) {
        --D;
        if (++Coords[D] <= B.Ranges[D].second) {
          More = true;
          break;
        }
        Coords[D] = B.Ranges[D].first;
      }
      if (!More)
        break;
    }
  }

  void compute() {
    if (Failed)
      return;
    const Tensor &Out = Prob.tensors()[0];
    std::vector<std::int64_t> OutCoords = pointCoords(Out, IterVal);
    if (!RegBufs[0].contains(OutCoords)) {
      fail("compute accesses " + Out.Name + " outside its register tile");
      return;
    }
    double Product = 1.0;
    for (std::size_t TI = 1; TI < Prob.tensors().size(); ++TI) {
      const Tensor &In = Prob.tensors()[TI];
      std::vector<std::int64_t> Coords = pointCoords(In, IterVal);
      if (!RegBufs[TI].contains(Coords)) {
        fail("compute accesses " + In.Name +
             " outside its register tile");
        return;
      }
      Product *= RegBufs[TI].at(Coords);
    }
    RegBufs[0].at(OutCoords) += Product;
  }

  void run(const std::vector<NestNode> &Stmts) {
    for (const NestNode &N : Stmts) {
      if (Failed)
        return;
      switch (N.K) {
      case NestNode::Kind::Loop:
      case NestNode::Kind::Parallel: {
        std::int64_t Step = stepOf(N.Level, N.Iter);
        std::int64_t Saved = IterVal[N.Iter];
        for (std::int64_t I = 0; I < N.Trip && !Failed; ++I) {
          IterVal[N.Iter] = Saved + I * Step;
          run(N.Body);
        }
        IterVal[N.Iter] = Saved;
        break;
      }
      case NestNode::Kind::CopyIn:
      case NestNode::Kind::CopyOut:
        copy(N);
        break;
      case NestNode::Kind::Compute:
        compute();
        break;
      }
    }
  }
};

} // namespace

InterpResult thistle::interpretTiledNest(const Problem &Prob,
                                         const Mapping &Map,
                                         const TiledNest &Nest,
                                         std::uint64_t InputSeed) {
  assert(Prob.tensors()[0].ReadWrite &&
         "the interpreter assumes tensor 0 is the read-write output");
  InterpResult Result;
  Result.PerTensor.resize(Prob.tensors().size());
  Interp I(Prob, Map, Result, InputSeed);
  I.run(Nest.Stmts);
  Result.Ok = !I.Failed;
  Result.Output = std::move(I.Hulls[0].Data);
  return Result;
}

std::vector<double> thistle::referenceContraction(const Problem &Prob,
                                                  std::uint64_t InputSeed) {
  std::vector<TensorHull> Hulls;
  for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI)
    Hulls.push_back(makeHull(Prob, TI, InputSeed,
                             /*Fill=*/!Prob.tensors()[TI].ReadWrite));

  std::vector<std::int64_t> Extents = Prob.fullExtents();
  std::vector<std::int64_t> Point(Prob.numIterators(), 0);
  while (true) {
    double Product = 1.0;
    for (std::size_t TI = 1; TI < Prob.tensors().size(); ++TI) {
      const Tensor &T = Prob.tensors()[TI];
      Product *= Hulls[TI].Data[static_cast<std::size_t>(
          Hulls[TI].flatten(pointCoords(T, Point)))];
    }
    Hulls[0].Data[static_cast<std::size_t>(
        Hulls[0].flatten(pointCoords(Prob.tensors()[0], Point)))] += Product;

    std::size_t D = Prob.numIterators();
    bool More = false;
    while (D > 0) {
      --D;
      if (++Point[D] < Extents[D]) {
        More = true;
        break;
      }
      Point[D] = 0;
    }
    if (!More)
      break;
  }
  return Hulls[0].Data;
}
