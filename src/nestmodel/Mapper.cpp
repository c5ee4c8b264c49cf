//===- nestmodel/Mapper.cpp - Search-based mapping baseline ---------------===//
//
// The search is hierarchy-generic: candidates are MultiMappings on an
// arbitrary-depth machine; the classic machine is
// Hierarchy::classic3Level. The sampler and mutator are written so that
// at 3 levels they consume the RNG stream in exactly the order the
// pre-unification fixed-depth code did
// (register / spatial / per-PE / DRAM factor draws, DRAM-then-PE
// permutation shuffles, the outer-to-inner mutation-slot order of the
// old TileLevel enum), keeping trial trajectories bit-identical.
//
// Concurrency (unchanged from the fixed-depth engine): the search runs
// in rounds of Options.TrialsPerRound trials. Every trial slot owns an
// RNG stream seeded from (search seed, round, slot) — never from the
// worker thread that happens to execute it — and candidate generation
// plus evaluation (the hot path) fan out across a ThreadPool. All search
// bookkeeping (incumbent best, victory-condition counter, annealing walk
// state) is applied on one thread, in slot order, at the round boundary,
// so the outcome is bit-identical at every thread count.
//
//===----------------------------------------------------------------------===//

#include "nestmodel/Mapper.h"

#include "support/MathUtil.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

using namespace thistle;

namespace {

/// SplitMix64 finalizer, used to decorrelate the per-slot seeds.
std::uint64_t mix64(std::uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Seed of the RNG stream for trial slot \p Slot of round \p Round.
std::uint64_t slotSeed(std::uint64_t Seed, unsigned Round, unsigned Slot) {
  return Seed ^ mix64((static_cast<std::uint64_t>(Round) << 32) |
                      (static_cast<std::uint64_t>(Slot) + 1));
}

/// Samples a random but budget-aware mapping: per iterator, hierarchically
/// draws the per-iterator divisor chain v_0 | .. | v_{F-1} | v_sp | v_F |
/// .. (innermost first, spatial at the fan-out), capping the spatial
/// product at the PE count so that most samples are placeable. The
/// outermost temporal level takes what remains.
MultiMapping sampleMultiMapping(const Problem &Prob, const Hierarchy &H,
                                const DivisorTable &Divs, Rng &R) {
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  MultiMapping Map;
  Map.TempFactors.assign(L, std::vector<std::int64_t>(NumIters, 1));
  Map.SpatialFactors.assign(NumIters, 1);

  std::int64_t SpatialBudget = H.NumPEs;
  // Visit iterators in random order so no dimension hogs the PE budget.
  std::vector<unsigned> Order(NumIters);
  std::iota(Order.begin(), Order.end(), 0u);
  R.shuffle(Order);

  for (unsigned I : Order) {
    std::int64_t Rest = Prob.iterators()[I].Extent;
    // Per-PE temporal levels below the fan-out, innermost first.
    for (unsigned Lv = 0; Lv < F; ++Lv) {
      std::int64_t T = R.pick(Divs.of(Rest));
      Map.TempFactors[Lv][I] = T;
      Rest /= T;
    }
    // Spatial p | rest, capped by the remaining PE budget.
    std::vector<std::int64_t> SpatialChoices;
    for (std::int64_t D : Divs.of(Rest))
      if (D <= SpatialBudget)
        SpatialChoices.push_back(D);
    std::int64_t SpatF = R.pick(SpatialChoices);
    Map.SpatialFactors[I] = SpatF;
    SpatialBudget /= SpatF;
    Rest /= SpatF;
    // Shared temporal levels; the outermost takes what remains.
    for (unsigned Lv = F; Lv + 1 < L; ++Lv) {
      std::int64_t T = R.pick(Divs.of(Rest));
      Map.TempFactors[Lv][I] = T;
      Rest /= T;
    }
    Map.TempFactors[L - 1][I] = Rest;
  }

  // Permutations: the outermost level is drawn fresh; each inner level
  // starts from its outer neighbor and is reshuffled (the fixed-depth
  // DramPerm-then-PePerm chain, generalized). Level 0 moves no data.
  Map.Perms.assign(L, std::vector<unsigned>());
  Map.Perms[L - 1].resize(NumIters);
  std::iota(Map.Perms[L - 1].begin(), Map.Perms[L - 1].end(), 0u);
  R.shuffle(Map.Perms[L - 1]);
  for (unsigned Lv = L - 1; Lv > 1; --Lv) {
    Map.Perms[Lv - 1] = Map.Perms[Lv];
    R.shuffle(Map.Perms[Lv - 1]);
  }
  Map.Perms[0].resize(NumIters);
  std::iota(Map.Perms[0].begin(), Map.Perms[0].end(), 0u);
  return Map;
}

/// Smallest prime factor of \p N (N >= 2).
std::int64_t smallestPrimeFactor(std::int64_t N) {
  assert(N >= 2 && "no prime factor of 1");
  for (std::int64_t P = 2; P * P <= N; ++P)
    if (N % P == 0)
      return P;
  return N;
}

/// The factor of iterator \p Iter at mutation slot \p Slot. Slots order
/// the L+1 factor positions outer to inner as they appear in the machine
/// nest: t_{L-1}, .., t_{F+1}, spatial, t_F, .., t_0. At 3 levels this is
/// exactly the old TileLevel enum order (Dram, Spatial, Pe, Register).
std::int64_t &slotFactor(MultiMapping &Map, unsigned L, unsigned F,
                         unsigned Slot, unsigned Iter) {
  const unsigned SpatialSlot = L - 1 - F;
  if (Slot == SpatialSlot)
    return Map.SpatialFactors[Iter];
  unsigned Level = Slot < SpatialSlot ? L - 1 - Slot : L - Slot;
  return Map.TempFactors[Level][Iter];
}

/// One mutation draw: either moves one prime factor of one iterator
/// between two factor slots, or swaps two entries of one permutation
/// (permuted levels L-1 .. 1, outermost first — at 3 levels the same
/// DramPerm-vs-PePerm coin the fixed-depth code flipped). Returns false
/// when the draw was a no-op (same slot twice, factor already 1, or a
/// self-swap) and left \p Map unchanged.
bool tryMutateOnce(MultiMapping &Map, unsigned L, unsigned F, Rng &R) {
  const unsigned NumIters =
      static_cast<unsigned>(Map.SpatialFactors.size());
  const unsigned NumSlots = L + 1;
  if (R.nextDouble() < 0.5) {
    unsigned I = R.nextIndex(NumIters);
    unsigned From = R.nextIndex(NumSlots);
    unsigned To = R.nextIndex(NumSlots);
    if (From == To || slotFactor(Map, L, F, From, I) <= 1)
      return false;
    std::int64_t P = smallestPrimeFactor(slotFactor(Map, L, F, From, I));
    slotFactor(Map, L, F, From, I) /= P;
    slotFactor(Map, L, F, To, I) *= P;
    return true;
  }
  unsigned Level =
      (L - 1) - static_cast<unsigned>(R.nextDouble() *
                                      static_cast<double>(L - 1));
  std::vector<unsigned> &Perm = Map.Perms[Level];
  if (Perm.size() < 2)
    return false;
  std::size_t A = R.nextIndex(Perm.size());
  std::size_t B = R.nextIndex(Perm.size());
  if (A == B)
    return false;
  std::swap(Perm[A], Perm[B]);
  return true;
}

/// Mutates \p Map, retrying no-op draws a bounded number of times.
/// Returns false if every draw was a no-op; the caller then skips the
/// trial — re-evaluating an unchanged candidate would waste the
/// evaluation and spuriously advance the victory-condition counter.
bool mutateMapping(MultiMapping &Map, unsigned L, unsigned F, Rng &R) {
  for (int Attempt = 0; Attempt < 8; ++Attempt)
    if (tryMutateOnce(Map, L, F, R))
      return true;
  return false;
}

/// What one trial slot produced. Filled in parallel, consumed in slot
/// order by the round-boundary reduction.
struct SlotOutcome {
  /// False when the slot was skipped (mutation no-op or invalid mutant).
  bool HasEval = false;
  MultiMapping Candidate;
  MultiEvalResult Eval;
  double Obj = 0.0;
  /// Pre-drawn uniform used by the annealing acceptance test so the
  /// stream stays attached to the slot, not to the reduction.
  double AcceptDraw = 0.0;
};

} // namespace

const char *thistle::mapperStopCauseName(MapperStopCause Cause) {
  switch (Cause) {
  case MapperStopCause::None:
    return "none";
  case MapperStopCause::Victory:
    return "victory";
  case MapperStopCause::MaxTrials:
    return "max-trials";
  case MapperStopCause::Deadline:
    return "deadline";
  }
  return "unknown";
}

MultiMapperResult thistle::searchMultiMappings(const Problem &Prob,
                                               const Hierarchy &H,
                                               const MapperOptions &Options) {
  {
    std::string HierErr = H.validate();
    if (!HierErr.empty()) {
      MultiMapperResult Invalid;
      Invalid.InputStatus = Status::invalidArgument(std::move(HierErr))
                                .withContext("validating hierarchy");
      return Invalid;
    }
  }
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const CostEvaluator &Eval = resolveCostEvaluator(Options.Evaluator);

  MultiMapperResult Result;
  double BestObj = 0.0;
  unsigned SinceImprovement = 0;

  // Annealing walks from a current point that may be worse than the
  // incumbent best.
  MultiMapping Current;
  double CurrentObj = 0.0;
  bool HaveCurrent = false;
  double Temperature = 0.0;

  // sampleMultiMapping draws divisors of (divisors of) every extent up to
  // L+1 times per iterator per trial; enumerate them once up front.
  DivisorTable Divs;
  for (const Iterator &It : Prob.iterators())
    Divs.populate(It.Extent);

  // Generates and evaluates one trial slot against the round-start search
  // state. Runs concurrently with other slots; reads of Result/Current are
  // safe because bookkeeping only mutates them between rounds.
  auto runSlot = [&](SlotOutcome &Out, unsigned Round, unsigned Slot) {
    Rng R(slotSeed(Options.Seed, Round, Slot));
    MultiMapping Candidate;
    bool Mutated = false;
    switch (Options.Strategy) {
    case MapperStrategy::RandomSampling:
      Candidate = sampleMultiMapping(Prob, H, Divs, R);
      break;
    case MapperStrategy::HillClimb:
      // Exploit the incumbent half of the time once one exists.
      if (Result.Found && R.nextDouble() < 0.5) {
        Candidate = Result.Best;
        Mutated = true;
      } else {
        Candidate = sampleMultiMapping(Prob, H, Divs, R);
      }
      break;
    case MapperStrategy::Anneal:
      if (HaveCurrent) {
        Candidate = Current;
        Mutated = true;
      } else {
        Candidate = sampleMultiMapping(Prob, H, Divs, R);
      }
      break;
    }
    if (Mutated && !mutateMapping(Candidate, L, F, R))
      return;
    if (Mutated && !Candidate.validate(Prob, H).empty())
      return;

    Out.Eval = Eval.evaluate(Prob, H, Candidate);
    Out.Obj = Out.Eval.Legal ? objectiveValue(Out.Eval, Options.Objective)
                             : 0.0;
    Out.AcceptDraw = R.nextDouble();
    Out.Candidate = std::move(Candidate);
    Out.HasEval = true;
  };

  // The deadline is only consulted between rounds, so a search that
  // finishes in time is bit-identical to an unbounded one.
  std::chrono::steady_clock::time_point DeadlineAt{};
  bool HasDeadline = false;
  if (Options.DeadlineAt != std::chrono::steady_clock::time_point{}) {
    DeadlineAt = Options.DeadlineAt;
    HasDeadline = true;
  } else if (Options.Deadline.count() > 0) {
    DeadlineAt = std::chrono::steady_clock::now() + Options.Deadline;
    HasDeadline = true;
  }

  ThreadPool Pool(Options.Threads);
  const unsigned RoundSize = std::max(1u, Options.TrialsPerRound);
  std::vector<SlotOutcome> Slots;

  // Adaptive grain: trials are microseconds each, so per-worker sharding
  // of a 64-trial round can spend more time on dispatch barriers than on
  // work (negative scaling under oversubscription). Each round is timed
  // and the next round's grain chosen so every shard carries at least
  // TargetShardSeconds of trials; rounds below one shard's worth run
  // inline on the calling thread. Grain only changes how slots are
  // packed into pool tasks — slot seeds, evaluation, and the slot-order
  // reduction are untouched, so the search result is bit-identical for
  // every grain and thread count.
  constexpr double TargetShardSeconds = 200e-6;
  std::size_t Grain = 1;

  telemetry::beginEpoch();
  telemetry::TraceScope SearchSpan("mapper.search");
  unsigned Rounds = 0;
  unsigned Improvements = 0;

  unsigned SlotsIssued = 0;
  bool Stop = false;
  for (unsigned Round = 0; !Stop && SlotsIssued < Options.MaxTrials;
       ++Round) {
    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt) {
      Result.DeadlineExpired = true;
      break;
    }
    const unsigned Batch =
        std::min(RoundSize, Options.MaxTrials - SlotsIssued);
    Slots.assign(Batch, SlotOutcome());
    // One span per round, keyed by the round number and opened on this
    // thread: the slots inside a round are an unordered parallel batch,
    // so the round is the mapper's deterministic trace granularity.
    telemetry::TraceScope RoundSpan("mapper.round", Round);
    ++Rounds;
    const auto RoundStart = std::chrono::steady_clock::now();
    parallelFor(
        Pool, Batch,
        [&](std::size_t Slot, unsigned) {
          runSlot(Slots[Slot], Round, static_cast<unsigned>(Slot));
        },
        Grain);
    const double RoundSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      RoundStart)
            .count();
    if (RoundSeconds > 0.0) {
      const double PerTrial = RoundSeconds / Batch;
      const double Want = TargetShardSeconds / PerTrial;
      Grain = Want >= 1.0
                  ? std::min<std::size_t>(static_cast<std::size_t>(Want),
                                          std::size_t(1) << 20)
                  : 1;
    }
    SlotsIssued += Batch;

    // Round-boundary reduction: all victory-condition and annealing
    // bookkeeping happens here, in slot order, on this thread. Slots past
    // a victory stop are discarded unseen, so Trials stays deterministic.
    for (unsigned Slot = 0; Slot < Batch && !Stop; ++Slot) {
      SlotOutcome &Out = Slots[Slot];
      if (!Out.HasEval)
        continue;
      ++Result.Trials;
      if (Options.Strategy == MapperStrategy::Anneal)
        Temperature *= Options.AnnealCooling;
      if (!Out.Eval.Legal) {
        ++SinceImprovement;
        if (SinceImprovement >= Options.VictoryCondition && Result.Found)
          Stop = true;
        continue;
      }
      ++Result.LegalTrials;

      // Annealing acceptance for the walk state.
      if (Options.Strategy == MapperStrategy::Anneal) {
        if (!HaveCurrent) {
          Current = Out.Candidate;
          CurrentObj = Out.Obj;
          HaveCurrent = true;
          Temperature = Options.AnnealInitialTemp * Out.Obj;
        } else if (Out.Obj <= CurrentObj ||
                   (Temperature > 0.0 &&
                    Out.AcceptDraw <
                        std::exp((CurrentObj - Out.Obj) / Temperature))) {
          Current = Out.Candidate;
          CurrentObj = Out.Obj;
        }
      }

      if (!Result.Found || Out.Obj < BestObj) {
        Result.Found = true;
        Result.Best = std::move(Out.Candidate);
        Result.BestEval = std::move(Out.Eval);
        BestObj = Out.Obj;
        SinceImprovement = 0;
        ++Improvements;
      } else if (++SinceImprovement >= Options.VictoryCondition) {
        Stop = true;
      }
    }
  }

  Result.StopCause = Result.DeadlineExpired ? MapperStopCause::Deadline
                     : Stop                 ? MapperStopCause::Victory
                                            : MapperStopCause::MaxTrials;
  if (telemetry::metricsEnabled()) {
    telemetry::count("mapper.searches");
    telemetry::count("mapper.rounds", Rounds);
    telemetry::count("mapper.trials", Result.Trials);
    telemetry::count("mapper.legal_trials", Result.LegalTrials);
    telemetry::count("mapper.improvements", Improvements);
    if (Result.Trials)
      telemetry::observe("mapper.acceptance_rate",
                         static_cast<double>(Result.LegalTrials) /
                             static_cast<double>(Result.Trials));
  }
  if (telemetry::traceEnabled())
    SearchSpan.setDetail(
        std::string("cause=") + mapperStopCauseName(Result.StopCause) +
        " rounds=" + std::to_string(Rounds) +
        " trials=" + std::to_string(Result.Trials) +
        " legal=" + std::to_string(Result.LegalTrials));
  return Result;
}
