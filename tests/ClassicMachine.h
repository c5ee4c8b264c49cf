//===- tests/ClassicMachine.h - Classic-machine test helpers ----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's register/SRAM/DRAM machine reached from a fixed-depth
/// Mapping through the generic engine: the lift to
/// Hierarchy::classic3Shape / classic3Level and MultiMapping::fromMapping
/// is written here once for every test that drives it (boundary 0 =
/// SRAM<->registers, boundary 1 = DRAM<->SRAM).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_TESTS_CLASSICMACHINE_H
#define THISTLE_TESTS_CLASSICMACHINE_H

#include "multilevel/MultiSim.h"
#include "nestmodel/Evaluator.h"

#include <gtest/gtest.h>

namespace thistle {

/// \p M analyzed on the classic machine.
inline MultiProfile analyzeClassic(const Problem &P, const Mapping &M) {
  return analyzeMultiNest(P, Hierarchy::classic3Shape(),
                          MultiMapping::fromMapping(P, M));
}

/// The oracle's counts for \p M on the classic machine.
inline MultiSimResult simulateClassic(const Problem &P, const Mapping &M) {
  return simulateMultiNest(P, Hierarchy::classic3Shape(),
                           MultiMapping::fromMapping(P, M));
}

/// \p M evaluated on the classic machine \p Arch, with the Eq. 3
/// component names.
inline EvalResult evaluateClassic(const Problem &P, const Mapping &M,
                                  const ArchConfig &Arch) {
  return evalResultFromMulti(
      Arch, evaluateMultiMapping(
                P, Hierarchy::classic3Level(Arch, TechParams::cgo45nm()),
                MultiMapping::fromMapping(P, M)));
}

/// The analytical model must match the oracle on every boundary and
/// tensor, in both directions: a read-write tensor loads and stores half
/// of the model's words each, a read-only tensor only loads.
inline void expectModelMatchesOracle(const Problem &P, const Mapping &M) {
  ASSERT_TRUE(M.validate(P).empty());
  MultiProfile Model = analyzeClassic(P, M);
  MultiSimResult Oracle = simulateClassic(P, M);
  ASSERT_EQ(Model.Words.size(), 2u);
  for (unsigned B = 0; B < 2; ++B)
    for (std::size_t T = 0; T < P.tensors().size(); ++T) {
      const Tensor &Ten = P.tensors()[T];
      std::int64_t Words = Model.Words[B][T];
      std::int64_t Back = Ten.ReadWrite ? Words / 2 : 0;
      const char *Where = B ? " DRAM<->SRAM" : " SRAM<->reg";
      EXPECT_EQ(Words, Oracle.Words[B][T]) << Ten.Name << Where;
      EXPECT_EQ(Words - Back, Oracle.Loads[B][T]) << Ten.Name << Where;
      EXPECT_EQ(Back, Oracle.Stores[B][T]) << Ten.Name << Where;
    }
}

} // namespace thistle

#endif // THISTLE_TESTS_CLASSICMACHINE_H
