//===- bench/bench_evaluator_backends.cpp - Evaluator throughput ----------===//
//
// Single-thread throughput of the pluggable cost-model backends on a
// Table II layer: evaluations per second of the nest walk, the
// MAESTRO-style data-centric model, and the cross-checking "both" mode
// (which runs the two models plus the counter diff on every call). The
// headline rates are written to BENCH_parallel.json as its "evaluator"
// section (replacing an earlier one) so the cost of the cross-check — and
// any regression in either backend — is tracked from change to change.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/MaestroModel.h"
#include "support/MathUtil.h"
#include "support/Rng.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace thistle;
using namespace thistle::bench;

namespace {

constexpr unsigned Reps = 5;

/// Random valid MultiMapping by hierarchical divisor sampling (the same
/// scheme the cross-evaluator tests use).
MultiMapping randomMultiMapping(const Problem &P, unsigned NumLevels,
                                Rng &R) {
  const unsigned NumIters = P.numIterators();
  MultiMapping M;
  M.TempFactors.assign(NumLevels, std::vector<std::int64_t>(NumIters, 1));
  M.SpatialFactors.assign(NumIters, 1);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Rest = P.iterators()[I].Extent;
    for (unsigned L = 0; L + 1 < NumLevels; ++L) {
      std::int64_t F = R.pick(divisorsOf(Rest));
      M.TempFactors[L][I] = F;
      Rest /= F;
    }
    std::int64_t Sp = R.pick(divisorsOf(Rest));
    M.SpatialFactors[I] = Sp;
    M.TempFactors[NumLevels - 1][I] = Rest / Sp;
  }
  std::vector<unsigned> Identity(NumIters);
  for (unsigned I = 0; I < NumIters; ++I)
    Identity[I] = I;
  M.Perms.assign(NumLevels, Identity);
  for (unsigned L = 1; L < NumLevels; ++L)
    R.shuffle(M.Perms[L]);
  return M;
}

volatile double Sink;

/// Min-of-Reps evaluations/second of \p Eval over a fixed mapping pool.
double evalsPerSecond(const CostEvaluator &Eval, const Problem &Prob,
                      const Hierarchy &H,
                      const std::vector<MultiMapping> &Pool,
                      unsigned Rounds) {
  double Best = 0.0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    WallTimer Timer;
    for (unsigned Round = 0; Round < Rounds; ++Round)
      for (const MultiMapping &M : Pool)
        Sink = Eval.evaluate(Prob, H, M).EnergyPj;
    double Rate = static_cast<double>(Pool.size()) * Rounds /
                  Timer.seconds();
    Best = std::max(Best, Rate);
  }
  return Best;
}

} // namespace

int main() {
  printHeader("Evaluator backend throughput",
              "Single-thread evaluations/second of the cost-model "
              "backends on a\nTable II layer (classic 3-level machine): "
              "the nest walk, the\ndata-centric maestro model, and the "
              "cross-checking both mode.");

  // ResNet-18 stage 8 — a mid-network 3x3 layer with a mix of large and
  // small extents, representative of the mapper's evaluation mix.
  Problem Prob = makeConvProblem(resnet18Layers()[7]);
  Hierarchy H =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());

  Rng R(41);
  std::vector<MultiMapping> Pool;
  for (int I = 0; I < 64; ++I)
    Pool.push_back(randomMultiMapping(Prob, H.numLevels(), R));
  const unsigned Rounds = 40;

  CrossCheckEvaluator Both(nestCostEvaluator(), maestroCostEvaluator());
  struct Row {
    const char *Name;
    const CostEvaluator *Eval;
    double Rate = 0.0;
  } Rows[] = {
      {"nest", &nestCostEvaluator()},
      {"maestro", &maestroCostEvaluator()},
      {"both", &Both},
  };

  std::string Section = "{\n";
  double NestRate = 0.0;
  for (Row &Entry : Rows) {
    Entry.Rate = evalsPerSecond(*Entry.Eval, Prob, H, Pool, Rounds);
    if (Entry.Eval == &nestCostEvaluator())
      NestRate = Entry.Rate;
    std::printf("%-10s %12.0f evals/s   (%.2fx nest)\n", Entry.Name,
                Entry.Rate, NestRate > 0.0 ? Entry.Rate / NestRate : 1.0);
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "    \"%s_evals_per_sec\": %.0f,\n",
                  Entry.Name, Entry.Rate);
    Section += Buf;
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "    \"cross_check_overhead\": %.3f\n  }",
                Rows[2].Rate > 0.0 ? NestRate / Rows[2].Rate : 0.0);
  Section += Buf;

  // The whole point of the cross-check: zero divergence on real layers.
  CrossCheckStats S = Both.stats();
  std::printf("cross-check: %llu evals, %llu divergent\n",
              static_cast<unsigned long long>(S.Evals),
              static_cast<unsigned long long>(S.DivergentEvals));
  if (S.DivergentEvals) {
    std::fprintf(stderr, "error: nest and maestro diverged\n");
    return 1;
  }

  writeJsonMember("BENCH_parallel.json", "evaluator", Section);
  std::printf("\nwrote the evaluator section of BENCH_parallel.json\n");
  return 0;
}
