//===- ir/Problem.h - Tensor-program intermediate representation -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The problem IR mirrors a Timeloop problem specification (paper Fig. 3b):
/// a dense iteration space given by named iterators with extents, and a set
/// of data spaces (tensors) whose dimensions are affine projections
/// (sums of stride * iterator terms) of the iterators. Listing 1's CNN and
/// Fig. 1's matrix multiplication are both instances.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_IR_PROBLEM_H
#define THISTLE_IR_PROBLEM_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace thistle {

/// A loop iterator of the dense iteration space.
struct Iterator {
  std::string Name;
  std::int64_t Extent;
};

/// One data dimension of a tensor: an affine projection
///   sum_t Stride_t * Iter_t
/// of the iteration space (e.g. In's third dimension is x*h + r).
struct DimRef {
  struct Term {
    unsigned Iter;       ///< Index into Problem::iterators().
    std::int64_t Stride; ///< Positive compile-time stride.
  };
  std::vector<Term> Terms;

  /// The data extent covered when iterator t spans TileExtents[Iter_t]
  /// points: sum_t Stride_t * (TileExtents_t - 1) + 1.
  std::int64_t extentFor(const std::vector<std::int64_t> &TileExtents) const;

  /// True if the dimension's projection uses \p Iter.
  bool uses(unsigned Iter) const;
};

/// A data space: name, dimension projections, and read/write behaviour.
struct Tensor {
  std::string Name;
  std::vector<DimRef> Dims;
  /// True for tensors that are both read and written (the output of the
  /// CNN / the C matrix); their traffic counts twice (paper section III-A).
  bool ReadWrite = false;

  /// True if any dimension's projection uses \p Iter.
  bool usesIter(unsigned Iter) const;

  /// Words touched when each iterator t spans TileExtents[t] points.
  std::int64_t footprintWords(
      const std::vector<std::int64_t> &TileExtents) const;
};

/// The most iterators a Problem may have: TensorTerms keeps one bit per
/// iterator in a 64-bit mask, and the evaluators keep per-iterator tile
/// extents in fixed arrays of this size instead of allocating them.
inline constexpr unsigned MaxIterators = 64;

/// One (iterator, stride) term of a tensor's projections, in a list that
/// runs through all of the tensor's dimensions in order; LastInDim marks
/// the final term of a dimension.
struct FlatTerm {
  unsigned Iter;
  bool LastInDim;
  std::int64_t Stride;
};

/// A tensor's projections compiled once, when its Problem is built, for
/// the cost evaluators' hot path: which iterators the tensor uses, as a
/// bitmask, and its terms in one flat list. A dimension with no terms
/// (extent 1 under any tiling) is left out.
struct TensorTerms {
  std::uint64_t IterMask = 0; ///< Bit i set iff some dimension uses i.
  std::vector<FlatTerm> Terms;

  bool uses(unsigned Iter) const { return (IterMask >> Iter) & 1u; }

  /// Tensor::footprintWords over extents indexed by iterator.
  std::int64_t footprintWords(const std::int64_t *TileExtents) const {
    std::int64_t Words = 1, DimExtent = 1;
    for (const FlatTerm &T : Terms) {
      DimExtent += T.Stride * (TileExtents[T.Iter] - 1);
      if (T.LastInDim) {
        Words *= DimExtent;
        DimExtent = 1;
      }
    }
    return Words;
  }
};

/// A dense-iteration-space tensor program (one CNN layer / one matmul)
/// of at most MaxIterators iterators.
class Problem {
public:
  Problem(std::string Name, std::vector<Iterator> Iters,
          std::vector<Tensor> Tensors);

  const std::string &name() const { return ProblemName; }
  const std::vector<Iterator> &iterators() const { return Iters; }
  const std::vector<Tensor> &tensors() const { return Tensors; }
  /// tensors()[t] compiled for the evaluators, index for index.
  const std::vector<TensorTerms> &tensorTerms() const { return Compiled; }
  unsigned numIterators() const { return Iters.size(); }

  /// Index of the iterator named \p Name; asserts existence.
  unsigned iteratorIndex(const std::string &Name) const;

  /// Total multiply-accumulate count = product of all extents.
  std::int64_t numOps() const;

  /// Full per-iterator extents as a vector (for footprint computations).
  std::vector<std::int64_t> fullExtents() const;

private:
  std::string ProblemName;
  std::vector<Iterator> Iters;
  std::vector<Tensor> Tensors;
  std::vector<TensorTerms> Compiled;
};

} // namespace thistle

#endif // THISTLE_IR_PROBLEM_H
