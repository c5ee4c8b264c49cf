//===- ir/Problem.cpp - Tensor-program IR ---------------------------------===//

#include "ir/Problem.h"

using namespace thistle;

std::int64_t
DimRef::extentFor(const std::vector<std::int64_t> &TileExtents) const {
  std::int64_t Extent = 1;
  for (const Term &T : Terms) {
    assert(T.Iter < TileExtents.size() && "iterator index out of range");
    assert(TileExtents[T.Iter] >= 1 && "tile extents must be positive");
    Extent += T.Stride * (TileExtents[T.Iter] - 1);
  }
  return Extent;
}

bool DimRef::uses(unsigned Iter) const {
  for (const Term &T : Terms)
    if (T.Iter == Iter)
      return true;
  return false;
}

bool Tensor::usesIter(unsigned Iter) const {
  for (const DimRef &D : Dims)
    if (D.uses(Iter))
      return true;
  return false;
}

std::int64_t
Tensor::footprintWords(const std::vector<std::int64_t> &TileExtents) const {
  std::int64_t Words = 1;
  for (const DimRef &D : Dims)
    Words *= D.extentFor(TileExtents);
  return Words;
}

Problem::Problem(std::string Name, std::vector<Iterator> Iters,
                 std::vector<Tensor> Tensors)
    : ProblemName(std::move(Name)), Iters(std::move(Iters)),
      Tensors(std::move(Tensors)) {
  assert(this->Iters.size() <= MaxIterators &&
         "a problem has at most MaxIterators iterators");
  for ([[maybe_unused]] const Iterator &It : this->Iters)
    assert(It.Extent >= 1 && "iterator extents must be positive");
  Compiled.reserve(this->Tensors.size());
  for (const Tensor &T : this->Tensors) {
    TensorTerms &C = Compiled.emplace_back();
    for (const DimRef &D : T.Dims) {
      for (const DimRef::Term &Term : D.Terms) {
        assert(Term.Iter < this->Iters.size() &&
               "tensor reference uses an unknown iterator");
        C.IterMask |= std::uint64_t{1} << Term.Iter;
        C.Terms.push_back({Term.Iter, /*LastInDim=*/false, Term.Stride});
      }
      if (!D.Terms.empty())
        C.Terms.back().LastInDim = true;
    }
  }
}

unsigned Problem::iteratorIndex(const std::string &Name) const {
  for (unsigned I = 0; I < Iters.size(); ++I)
    if (Iters[I].Name == Name)
      return I;
  assert(false && "unknown iterator name");
  return ~0u;
}

std::int64_t Problem::numOps() const {
  std::int64_t Ops = 1;
  for (const Iterator &It : Iters)
    Ops *= It.Extent;
  return Ops;
}

std::vector<std::int64_t> Problem::fullExtents() const {
  std::vector<std::int64_t> Extents;
  Extents.reserve(Iters.size());
  for (const Iterator &It : Iters)
    Extents.push_back(It.Extent);
  return Extents;
}
