//===- tests/NetworkTest.cpp - Network driver and GP cache tests ----------===//
//
// The contracts of thistle::optimizeNetwork and GpSolutionCache: shape
// deduplication, bit-identical results with the cache on or off and at
// any thread count, cross-run cache hits, the CoDesign network-arch
// selection, the zero-layer guard, and the stats/report consistency
// invariant.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Evaluator.h"
#include "thistle/Network.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

ConvLayer conv(std::string Name, std::int64_t K, std::int64_t C,
               std::int64_t HW, std::int64_t RS, std::int64_t Stride = 1) {
  ConvLayer L;
  L.Name = std::move(Name);
  L.K = K;
  L.C = C;
  L.Hin = HW;
  L.Win = HW;
  L.R = RS;
  L.S = RS;
  L.StrideX = L.StrideY = Stride;
  return L;
}

/// A 4-instance, 2-shape toy network: "a"/"a2" share a shape, as do
/// "b"/"b2" (the names differ on purpose — dedup keys on shape only).
std::vector<ConvLayer> toyNetwork() {
  return {conv("a", 16, 16, 14, 3), conv("b", 32, 16, 14, 1),
          conv("a2", 16, 16, 14, 3), conv("b2", 32, 16, 14, 1)};
}

NetworkOptions fastNetworkOptions() {
  NetworkOptions NO;
  NO.Layer.Solver.Tolerance = 1e-5;
  NO.Layer.MaxPermClassPairs = 8; // Keep the integration tests quick.
  return NO;
}

/// Everything a deterministic run must reproduce bit-for-bit (the
/// timing-free slice of a NetworkResult).
void expectIdentical(const NetworkResult &A, const NetworkResult &B) {
  ASSERT_EQ(A.Layers.size(), B.Layers.size());
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.LayersFound, B.LayersFound);
  EXPECT_EQ(A.Totals.EnergyPj, B.Totals.EnergyPj);
  EXPECT_EQ(A.Totals.Cycles, B.Totals.Cycles);
  EXPECT_EQ(A.Totals.EdpPjCycles, B.Totals.EdpPjCycles);
  EXPECT_EQ(A.Totals.SummedObjective, B.Totals.SummedObjective);
  EXPECT_EQ(A.Arch.NumPEs, B.Arch.NumPEs);
  EXPECT_EQ(A.Arch.RegWordsPerPE, B.Arch.RegWordsPerPE);
  EXPECT_EQ(A.Arch.SramWords, B.Arch.SramWords);
  EXPECT_EQ(A.Report.Solved, B.Report.Solved);
  EXPECT_EQ(A.Report.Degraded, B.Report.Degraded);
  EXPECT_EQ(A.Report.Infeasible, B.Report.Infeasible);
  EXPECT_EQ(A.Report.Failed, B.Report.Failed);
  EXPECT_EQ(A.Report.Skipped, B.Report.Skipped);
  EXPECT_EQ(A.Stats.PairsSolved, B.Stats.PairsSolved);
  for (std::size_t I = 0; I < A.Layers.size(); ++I) {
    SCOPED_TRACE("layer " + A.Layers[I].Name);
    EXPECT_EQ(A.Layers[I].Result.Found, B.Layers[I].Result.Found);
    EXPECT_EQ(A.Layers[I].Result.Eval.EnergyPj,
              B.Layers[I].Result.Eval.EnergyPj);
    EXPECT_EQ(A.Layers[I].Result.Eval.Cycles,
              B.Layers[I].Result.Eval.Cycles);
    EXPECT_EQ(A.Layers[I].Result.ModelObjective,
              B.Layers[I].Result.ModelObjective);
    EXPECT_EQ(A.Layers[I].Result.Map.Factors,
              B.Layers[I].Result.Map.Factors);
    EXPECT_EQ(A.Layers[I].Result.BestPePerm, B.Layers[I].Result.BestPePerm);
    EXPECT_EQ(A.Layers[I].Result.BestDramPerm,
              B.Layers[I].Result.BestDramPerm);
  }
}

} // namespace

TEST(Network, DeduplicatesRepeatedShapes) {
  NetworkResult R = optimizeNetwork(toyNetwork(), eyerissArch(),
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  ASSERT_TRUE(R.InputStatus.isOk());
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Stats.LayersTotal, 4u);
  EXPECT_EQ(R.Stats.UniqueShapes, 2u);
  ASSERT_EQ(R.Layers.size(), 4u);
  EXPECT_FALSE(R.Layers[0].Deduplicated);
  EXPECT_FALSE(R.Layers[1].Deduplicated);
  EXPECT_TRUE(R.Layers[2].Deduplicated);
  EXPECT_TRUE(R.Layers[3].Deduplicated);
  EXPECT_EQ(R.Layers[2].ShapeIndex, R.Layers[0].ShapeIndex);
  EXPECT_EQ(R.Layers[0].Multiplicity, 2u);

  // The dedup copy shares the winner bit-for-bit but reports nothing
  // (the shape's sweep is accounted once).
  EXPECT_EQ(R.Layers[2].Result.Eval.EnergyPj,
            R.Layers[0].Result.Eval.EnergyPj);
  EXPECT_EQ(R.Layers[2].Result.Map.Factors, R.Layers[0].Result.Map.Factors);
  EXPECT_EQ(R.Layers[2].Result.Report.total(), 0u);
  EXPECT_EQ(R.Layers[2].Result.Stats.PairsPlanned, 0u);
  EXPECT_GT(R.Layers[0].Result.Report.total(), 0u);

  // Totals count every input layer, so the duplicated shapes weigh
  // double.
  double Expected = 0.0;
  for (const NetworkLayerResult &L : R.Layers)
    Expected += L.Result.Eval.EnergyPj;
  EXPECT_DOUBLE_EQ(R.Totals.EnergyPj, Expected);
  EXPECT_EQ(R.Totals.EdpPjCycles, R.Totals.EnergyPj * R.Totals.Cycles);

  // The accounting invariant, network-wide.
  EXPECT_EQ(R.Stats.PairsSolved, R.Report.Solved + R.Report.Degraded);
}

TEST(Network, CacheOnOffAndAcrossRunsBitIdentical) {
  NetworkOptions Cold = fastNetworkOptions();
  NetworkResult NoCache = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cold);
  ASSERT_TRUE(NoCache.Found);

  GpSolutionCache Cache;
  NetworkOptions Cached = fastNetworkOptions();
  Cached.Cache = &Cache;
  NetworkResult First = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cached);
  ASSERT_TRUE(First.Found);
  expectIdentical(NoCache, First);
  // One optimizeNetwork call dedups its own repeats, so the first run
  // only fills the cache.
  EXPECT_EQ(First.Stats.CacheHits, 0u);
  EXPECT_GT(First.Stats.CacheMisses, 0u);

  // A second run over the same network replays every pair from the
  // cache — same results, no solves.
  NetworkResult Second = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cached);
  ASSERT_TRUE(Second.Found);
  expectIdentical(NoCache, Second);
  EXPECT_GT(Second.Stats.CacheHits, 0u);
  EXPECT_EQ(Second.Stats.CacheMisses, 0u);
  EXPECT_EQ(Cache.hits(), Second.Stats.CacheHits);

  // Stats replay identically too: Newton iterations and candidate
  // counts come from the recorded entries.
  EXPECT_EQ(Second.Report.Retried, First.Report.Retried);
  for (std::size_t I = 0; I < First.Layers.size(); ++I) {
    EXPECT_EQ(Second.Layers[I].Result.Stats.NewtonIterations,
              First.Layers[I].Result.Stats.NewtonIterations);
    EXPECT_EQ(Second.Layers[I].Result.Stats.CandidatesEvaluated,
              First.Layers[I].Result.Stats.CandidatesEvaluated);
  }
}

TEST(Network, LayerAnswerDoesNotDependOnEarlierQueries) {
  // ResNet-18 layer 2 on two-word register files: every pair is
  // certified infeasible. Answering another layer first on the same
  // cache must not change a byte of this answer — not the outcome, the
  // per-incident attempt counts, nor the Newton work.
  ConvLayer Layer;
  for (const ConvLayer &L : resnet18Layers())
    if (L.Name == "resnet-2")
      Layer = L;
  ASSERT_EQ(Layer.Name, "resnet-2");
  const Problem Prob = makeConvProblem(Layer);
  ArchConfig Tiny = eyerissArch();
  Tiny.RegWordsPerPE = 2;
  const TechParams Tech = TechParams::cgo45nm();
  ThistleOptions Opts;

  ThistleResult Alone = optimizeLayer(Prob, Tiny, Tech, Opts);

  GpSolutionCache Cache;
  LayerRunContext Run;
  Run.Cache = &Cache;
  ThistleResult Other =
      optimizeLayer(makeConvProblem(conv("other", 16, 8, 14, 3)),
                    eyerissArch(), Tech, Opts, Run);
  ASSERT_TRUE(Other.Found);
  ThistleResult After = optimizeLayer(Prob, Tiny, Tech, Opts, Run);

  EXPECT_FALSE(Alone.Found);
  EXPECT_EQ(After.Found, Alone.Found);
  EXPECT_GT(Alone.Report.Infeasible, 0u);
  EXPECT_EQ(After.Report.toString("pair"), Alone.Report.toString("pair"));
  ASSERT_EQ(After.Report.Incidents.size(), Alone.Report.Incidents.size());
  for (std::size_t I = 0; I < Alone.Report.Incidents.size(); ++I) {
    const SweepIncident &A = After.Report.Incidents[I];
    const SweepIncident &B = Alone.Report.Incidents[I];
    EXPECT_EQ(A.Outcome, B.Outcome) << "incident " << I;
    EXPECT_EQ(A.Attempts, B.Attempts) << "incident " << I;
    EXPECT_EQ(A.Detail, B.Detail) << "incident " << I;
  }
  EXPECT_EQ(After.Stats.NewtonIterations, Alone.Stats.NewtonIterations);
  EXPECT_EQ(After.Stats.GpInfeasible, Alone.Stats.GpInfeasible);
}

TEST(Network, ThreadCountDoesNotChangeResults) {
  NetworkOptions One = fastNetworkOptions();
  One.Layer.Threads = 1;
  NetworkResult R1 = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), One);
  ASSERT_TRUE(R1.Found);
  NetworkOptions Eight = fastNetworkOptions();
  Eight.Layer.Threads = 8;
  NetworkResult R8 = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(R8.Found);
  expectIdentical(R1, R8);

  // And with a shared cache at 8 threads: a parallel fill replays
  // nothing it has not solved, so the result is unchanged.
  GpSolutionCache Cache;
  Eight.Cache = &Cache;
  NetworkResult RC = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(RC.Found);
  expectIdentical(R1, RC);
}

TEST(Network, EmptyNetworkSaysNothingAttempted) {
  NetworkResult R =
      optimizeNetwork({}, eyerissArch(), TechParams::cgo45nm(),
                      fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_NE(R.InputStatus.toString().find("0 tasks: nothing attempted"),
            std::string::npos);
  // The empty report's own summary names the zero-work case explicitly.
  EXPECT_EQ(R.Report.total(), 0u);
  EXPECT_NE(R.Report.toString("pair").find("0 pairs: nothing attempted"),
            std::string::npos);
}

TEST(Network, BadInputsFailValidationWithLayerContext) {
  ArchConfig Bad = eyerissArch();
  Bad.NumPEs = 0;
  NetworkResult R = optimizeNetwork(toyNetwork(), Bad,
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  // Validation runs per unique shape and names the offending layer.
  EXPECT_NE(R.InputStatus.toString().find("network layer 'a'"),
            std::string::npos);
  // Nothing ran: the report is empty rather than full of failures.
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(Network, CoDesignSelectsOneNetworkArch) {
  NetworkOptions NO = fastNetworkOptions();
  NO.Layer.Mode = DesignMode::CoDesign;
  TechParams Tech = TechParams::cgo45nm();
  NetworkResult R = optimizeNetwork(toyNetwork(), eyerissArch(), Tech, NO,
                                    eyerissAreaUm2(Tech));
  ASSERT_TRUE(R.InputStatus.isOk());
  ASSERT_TRUE(R.Found);
  ASSERT_GE(R.Stats.ArchCandidates, 1u);
  ASSERT_EQ(R.Candidates.size(), R.Stats.ArchCandidates);

  // Every layer's winner runs on the one selected architecture.
  for (const NetworkLayerResult &L : R.Layers) {
    EXPECT_EQ(L.Result.Arch.NumPEs, R.Arch.NumPEs);
    EXPECT_EQ(L.Result.Arch.RegWordsPerPE, R.Arch.RegWordsPerPE);
    EXPECT_EQ(L.Result.Arch.SramWords, R.Arch.SramWords);
  }
  // The selected candidate is complete and minimal among complete ones.
  double BestObjective = 0.0;
  bool SawSelected = false;
  for (const NetworkArchCandidate &C : R.Candidates) {
    if (C.Arch.NumPEs == R.Arch.NumPEs &&
        C.Arch.RegWordsPerPE == R.Arch.RegWordsPerPE &&
        C.Arch.SramWords == R.Arch.SramWords) {
      SawSelected = true;
      BestObjective = C.SummedObjective;
      EXPECT_TRUE(C.AllLayersFound);
    }
  }
  ASSERT_TRUE(SawSelected);
  for (const NetworkArchCandidate &C : R.Candidates) {
    if (C.AllLayersFound) {
      EXPECT_LE(BestObjective, C.SummedObjective);
    }
  }
  // The area budget binds the selected architecture too.
  EXPECT_LE(R.Arch.areaUm2(Tech), eyerissAreaUm2(Tech) * 1.0001);
}

//===----------------------------------------------------------------------===//
// GpSolutionCache persistence: LRU bound, snapshot/journal round trips,
// and graceful degradation on damaged artifacts (docs/PERSISTENCE.md).
//===----------------------------------------------------------------------===//

#include "support/Persist.h"

#include <fstream>

namespace {

NetworkResult runToy(GpSolutionCache *Cache) {
  NetworkOptions NO = fastNetworkOptions();
  NO.Cache = Cache;
  return optimizeNetwork(toyNetwork(), eyerissArch(), TechParams::cgo45nm(),
                         NO);
}

} // namespace

TEST(NetworkPersist, LruBoundNeverChangesResults) {
  NetworkResult Unbounded = runToy(nullptr);
  ASSERT_TRUE(Unbounded.Found);

  GpSolutionCache Tiny;
  Tiny.setCapacity(2);
  EXPECT_EQ(Tiny.capacity(), 2u);
  NetworkResult First = runToy(&Tiny);
  ASSERT_TRUE(First.Found);
  expectIdentical(Unbounded, First);
  // The toy network fills more than two exact entries, so the bound
  // must have evicted — and the telemetry must say so.
  EXPECT_GT(First.Stats.CacheMisses, 2u);
  EXPECT_GT(Tiny.evictions(), 0u);
  EXPECT_LE(Tiny.size(), 2u);

  // A rerun mostly re-solves (the evicted entries are gone) but the
  // results stay bit-identical: eviction is a capacity decision, never
  // a correctness one.
  NetworkResult Second = runToy(&Tiny);
  ASSERT_TRUE(Second.Found);
  expectIdentical(Unbounded, Second);

  // Shrinking an over-full cache evicts immediately.
  GpSolutionCache Shrunk;
  NetworkResult Fill = runToy(&Shrunk);
  ASSERT_TRUE(Fill.Found);
  ASSERT_GT(Shrunk.size(), 1u);
  Shrunk.setCapacity(1);
  EXPECT_EQ(Shrunk.size(), 1u);
  EXPECT_GT(Shrunk.evictions(), 0u);
}

TEST(NetworkPersist, SnapshotReloadReplaysBitIdentically) {
  std::string Path = ::testing::TempDir() + "/netpersist-roundtrip.snap";
  persist::removeFile(Path);

  GpSolutionCache Warm;
  NetworkResult First = runToy(&Warm);
  ASSERT_TRUE(First.Found);
  ASSERT_GT(Warm.size(), 0u);
  ASSERT_TRUE(Warm.saveSnapshotFile(Path).isOk());

  GpSolutionCache Reloaded;
  GpCachePersistStats Stats;
  Reloaded.loadFile(Path, Stats);
  EXPECT_EQ(Stats.FilesLoaded, 1u);
  EXPECT_EQ(Stats.EntriesLoaded, Warm.size());
  EXPECT_EQ(Stats.DataLoss, 0u);
  EXPECT_EQ(Reloaded.size(), Warm.size());

  // The reloaded run replays every task from disk — zero misses — and
  // reproduces the original bit for bit.
  NetworkResult Replayed = runToy(&Reloaded);
  ASSERT_TRUE(Replayed.Found);
  expectIdentical(First, Replayed);
  EXPECT_EQ(Replayed.Stats.CacheMisses, 0u);
  EXPECT_EQ(Replayed.Stats.CacheHits, First.Stats.CacheMisses);
  persist::removeFile(Path);
}

TEST(NetworkPersist, JournalCheckpointsReplayLikeSnapshots) {
  std::string Path = ::testing::TempDir() + "/netpersist-journal.log";
  persist::removeFile(Path);

  GpSolutionCache Writer;
  ASSERT_TRUE(Writer.attachJournal(Path).isOk());
  NetworkResult First = runToy(&Writer);
  ASSERT_TRUE(First.Found);
  EXPECT_EQ(Writer.journalAppendFailures(), 0u);
  Writer.detachJournal();

  GpSolutionCache Reloaded;
  GpCachePersistStats Stats;
  Reloaded.loadFile(Path, Stats);
  EXPECT_EQ(Stats.EntriesLoaded, Writer.size());
  EXPECT_EQ(Stats.RecordsRead, Writer.size());
  EXPECT_EQ(Stats.DataLoss, 0u);

  NetworkResult Replayed = runToy(&Reloaded);
  ASSERT_TRUE(Replayed.Found);
  expectIdentical(First, Replayed);
  EXPECT_EQ(Replayed.Stats.CacheMisses, 0u);
  persist::removeFile(Path);
}

TEST(NetworkPersist, DamagedArtifactsDegradeToColdStart) {
  std::string Dir = ::testing::TempDir();

  // A snapshot from an unknown format: reported, then ignored.
  std::string Bad = Dir + "/netpersist-bad.snap";
  {
    std::ofstream Out(Bad, std::ios::binary | std::ios::trunc);
    Out << "bogus-format/9 snap gpcache2 4 deadbeef\nXXXX";
  }
  GpSolutionCache Cold;
  GpCachePersistStats Stats;
  Cold.loadFile(Bad, Stats);
  EXPECT_EQ(Stats.EntriesLoaded, 0u);
  EXPECT_EQ(Stats.DataLoss, 1u);
  ASSERT_EQ(Stats.Problems.size(), 1u);
  EXPECT_NE(Stats.Problems[0].find(Bad), std::string::npos);

  // A missing file is not damage — silence, then a cold start.
  GpCachePersistStats Quiet;
  Cold.loadFile(Dir + "/netpersist-nonexistent.snap", Quiet);
  EXPECT_EQ(Quiet.DataLoss, 0u);
  EXPECT_EQ(Quiet.FilesLoaded, 0u);

  // The cold cache still runs the network to the same answer.
  NetworkResult Baseline = runToy(nullptr);
  NetworkResult Degraded = runToy(&Cold);
  ASSERT_TRUE(Degraded.Found);
  expectIdentical(Baseline, Degraded);
  EXPECT_EQ(Degraded.Stats.CacheHits, 0u);

  // A bit-flip inside a real snapshot's payload: CRC catches it.
  std::string Flip = Dir + "/netpersist-flip.snap";
  ASSERT_TRUE(Cold.saveSnapshotFile(Flip).isOk());
  {
    std::ifstream In(Flip, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Bytes[Bytes.size() / 2] ^= 0x01;
    std::ofstream Out(Flip, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  GpSolutionCache Rejects;
  GpCachePersistStats FlipStats;
  Rejects.loadFile(Flip, FlipStats);
  EXPECT_EQ(FlipStats.EntriesLoaded, 0u);
  EXPECT_EQ(FlipStats.DataLoss, 1u);
  EXPECT_EQ(Rejects.size(), 0u);
  persist::removeFile(Bad);
  persist::removeFile(Flip);
}

TEST(NetworkPersist, OlderEncodingIsRejectedWhole) {
  // Before entries lost their structural key and x-space optimum, cache
  // files carried the kind "gpcache" and each entry those two extra
  // fields. Such files must be refused whole, never half-decoded, and
  // the run must start cold with unchanged results.
  std::string Dir = ::testing::TempDir();
  std::string Journal = Dir + "/netpersist-current.journal";
  persist::removeFile(Journal);
  GpSolutionCache Writer;
  ASSERT_TRUE(Writer.attachJournal(Journal).isOk());
  NetworkResult Baseline = runToy(&Writer);
  ASSERT_TRUE(Baseline.Found);
  Writer.detachJournal();
  Expected<persist::JournalContents> Current =
      persist::readJournalFile(Journal, "gpcache2");
  ASSERT_TRUE(Current);
  ASSERT_FALSE(Current.value().Records.empty());

  // Re-encode each entry the older way: key, structural key, the fields
  // kept today, then the optimum.
  std::vector<std::string> Older;
  for (const std::string &Record : Current.value().Records) {
    persist::Decoder D(Record);
    std::string Key;
    ASSERT_TRUE(D.getString(Key));
    persist::Encoder E;
    E.putString(Key);
    E.putString("it:n,k,c,");
    std::string Bytes = E.takeBytes();
    Bytes += Record.substr(Record.size() - D.remaining());
    persist::Encoder Tail;
    Tail.putU64(2);
    Tail.putDouble(1.0);
    Tail.putDouble(2.0);
    Older.push_back(Bytes + Tail.takeBytes());
  }
  std::string OldSnap = Dir + "/netpersist-older.snap";
  std::string OldJournal = Dir + "/netpersist-older.journal";
  persist::removeFile(OldJournal);
  std::string Payload;
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(OldJournal, "gpcache").isOk());
    for (const std::string &Entry : Older) {
      ASSERT_TRUE(W.append(Entry).isOk());
      persist::Encoder Frame;
      Frame.putString(Entry);
      Payload += Frame.takeBytes();
    }
  }
  ASSERT_TRUE(persist::writeSnapshotFile(OldSnap, "gpcache", Payload).isOk());

  GpSolutionCache Cold;
  GpCachePersistStats Stats;
  Cold.loadFile(OldSnap, Stats);
  Cold.loadFile(OldJournal, Stats);
  EXPECT_EQ(Stats.FilesLoaded, 0u);
  EXPECT_EQ(Stats.RecordsRead, 0u);
  EXPECT_EQ(Stats.EntriesLoaded, 0u);
  EXPECT_EQ(Stats.DataLoss, 2u);
  ASSERT_EQ(Stats.Problems.size(), 2u);
  for (const std::string &Problem : Stats.Problems)
    EXPECT_NE(Problem.find("parse-error"), std::string::npos) << Problem;
  EXPECT_EQ(Cold.size(), 0u);

  NetworkResult Rerun = runToy(&Cold);
  ASSERT_TRUE(Rerun.Found);
  expectIdentical(Baseline, Rerun);
  EXPECT_EQ(Rerun.Stats.CacheHits, 0u);
  persist::removeFile(Journal);
  persist::removeFile(OldSnap);
  persist::removeFile(OldJournal);
}

namespace {

/// A toy network covering each new layer class once: depthwise,
/// grouped, dilated, transposed — small enough for a full sweep.
std::vector<ConvLayer> generalToyNetwork() {
  ConvLayer Dw = conv("dw", 8, 8, 10, 3);
  Dw.Groups = 8;
  ConvLayer Gr = conv("gr", 8, 8, 8, 3, 2);
  Gr.Groups = 2;
  ConvLayer Dil = conv("dil", 8, 4, 10, 3);
  Dil.DilationX = Dil.DilationY = 2;
  ConvLayer Tr = conv("tr", 4, 8, 5, 3, 2);
  Tr.Transposed = true;
  return {Dw, Gr, Dil, Tr};
}

} // namespace

TEST(Network, GeneralConvClassesAreCacheAndThreadInvariant) {
  NetworkOptions One = fastNetworkOptions();
  One.Layer.Threads = 1;
  NetworkResult R1 = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), One);
  ASSERT_TRUE(R1.InputStatus.isOk());
  ASSERT_TRUE(R1.Found);
  EXPECT_EQ(R1.Stats.UniqueShapes, 4u); // No false dedup across classes.

  NetworkOptions Eight = fastNetworkOptions();
  Eight.Layer.Threads = 8;
  GpSolutionCache Cache;
  Eight.Cache = &Cache;
  NetworkResult Cold = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                       TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(Cold.Found);
  expectIdentical(R1, Cold);
  NetworkResult Warm = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                       TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(Warm.Found);
  expectIdentical(R1, Warm);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);
}

TEST(Network, ShapeKeySeparatesGroupedFromDenseTwins) {
  // Two layers with identical dims where only Groups (or Transposed)
  // differs must NOT deduplicate onto one shape.
  ConvLayer Dense = conv("dense", 8, 8, 8, 3);
  ConvLayer Grouped = conv("grouped", 8, 8, 8, 3);
  Grouped.Groups = 2;
  ConvLayer Flipped = conv("flipped", 8, 8, 8, 3);
  Flipped.Transposed = true;
  ConvLayer Valid = conv("valid", 8, 8, 8, 3);
  Valid.Padding = ConvPadding::Valid;
  NetworkResult R =
      optimizeNetwork({Dense, Grouped, Flipped, Valid}, eyerissArch(),
                      TechParams::cgo45nm(), fastNetworkOptions());
  ASSERT_TRUE(R.InputStatus.isOk());
  EXPECT_EQ(R.Stats.LayersTotal, 4u);
  EXPECT_EQ(R.Stats.UniqueShapes, 4u);
  for (const NetworkLayerResult &L : R.Layers)
    EXPECT_FALSE(L.Deduplicated) << L.Name;
}

TEST(Network, InvalidLayerIsRejectedBeforeAnySolve) {
  std::vector<ConvLayer> Net = generalToyNetwork();
  Net[1].Groups = 3; // 8 channels not divisible by 3.
  NetworkResult R = optimizeNetwork(Net, eyerissArch(),
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_NE(R.InputStatus.toString().find("divisible"), std::string::npos)
      << R.InputStatus.toString();
  EXPECT_EQ(R.Stats.PairsSolved, 0u);
}
