//===- thistle/GpCache.cpp - GP solution cache for network sweeps ---------===//

#include "thistle/GpCache.h"

#include "support/Telemetry.h"
#include "thistle/Optimizer.h"

#include <cstdio>

using namespace thistle;
using persist::Decoder;
using persist::Encoder;

namespace {

/// Canonical double rendering for key material: round-trippable and
/// locale-independent.
void appendNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
  Out += ',';
}

void appendNumber(std::string &Out, std::int64_t V) {
  Out += std::to_string(V);
  Out += ',';
}

void appendIndices(std::string &Out, const std::vector<unsigned> &V) {
  for (unsigned I : V) {
    Out += std::to_string(I);
    Out += '.';
  }
  Out += ',';
}

/// The on-disk kind tag shared by cache snapshots and journals. It
/// names the entry encoding: "gpcache" files also carried a structural
/// key and the x-space optimum per entry, and are rejected whole.
constexpr const char *CacheKind = "gpcache2";

void putPerm(Encoder &E, const std::vector<unsigned> &Perm) {
  E.putU64(Perm.size());
  for (unsigned I : Perm)
    E.putU32(I);
}

bool getPerm(Decoder &D, std::vector<unsigned> &Perm) {
  std::uint64_t Count;
  if (!D.getU64(Count) || Count > D.remaining() / 4)
    return false;
  Perm.resize(static_cast<std::size_t>(Count));
  for (unsigned &I : Perm)
    if (!D.getU32(I))
      return false;
  return true;
}

/// One entry, key included, as a self-contained payload.
/// The same encoding serves whole-cache snapshots (concatenated
/// entries) and journals (one entry per record).
std::string encodeEntry(const std::string &Key, const GpCacheEntry &Entry) {
  Encoder E;
  E.putString(Key);
  E.putU32(static_cast<std::uint32_t>(Entry.Outcome));
  E.putU32(Entry.Attempts);
  E.putString(Entry.Detail);
  E.putU32(Entry.NewtonIterations);
  E.putBool(Entry.GpInfeasible);

  const RoundedDesign &D = Entry.Design;
  E.putBool(D.Found);
  E.putI64(D.Arch.NumPEs);
  E.putI64(D.Arch.RegWordsPerPE);
  E.putI64(D.Arch.SramWords);
  E.putDouble(D.Arch.DramBandwidth);
  E.putDouble(D.Arch.SramBandwidth);
  E.putU64(D.Map.Factors.size());
  for (const auto &Level : D.Map.Factors)
    for (std::int64_t F : Level)
      E.putI64(F);
  putPerm(E, D.Map.DramPerm);
  putPerm(E, D.Map.PePerm);
  E.putBool(D.Eval.Legal);
  E.putString(D.Eval.IllegalReason);
  E.putDouble(D.Eval.EnergyPj);
  E.putDouble(D.Eval.EnergyPerMacPj);
  E.putDouble(D.Eval.MacEnergyPj);
  E.putDouble(D.Eval.RegEnergyPj);
  E.putDouble(D.Eval.SramEnergyPj);
  E.putDouble(D.Eval.DramEnergyPj);
  E.putDouble(D.Eval.EdpPjCycles);
  E.putDouble(D.Eval.Cycles);
  E.putDouble(D.Eval.ComputeCycles);
  E.putDouble(D.Eval.DramCycles);
  E.putDouble(D.Eval.SramCycles);
  E.putDouble(D.Eval.MacIpc);
  E.putU64(D.Eval.Profile.PerTensor.size());
  for (const TensorVolumes &V : D.Eval.Profile.PerTensor) {
    E.putI64(V.DramToSram);
    E.putI64(V.SramToDram);
    E.putI64(V.SramToReg);
    E.putI64(V.RegToSram);
  }
  E.putI64(D.Eval.Profile.RegTileWords);
  E.putI64(D.Eval.Profile.SramTileWords);
  E.putI64(D.Eval.Profile.PEsUsed);
  E.putU64(D.CandidatesTried);

  E.putDouble(Entry.Obj);
  E.putDouble(Entry.ModelObjective);
  return E.takeBytes();
}

bool decodeEntry(Decoder &D, std::string &Key, GpCacheEntry &Entry) {
  std::uint32_t Outcome;
  if (!D.getString(Key) || !D.getU32(Outcome) ||
      Outcome > static_cast<std::uint32_t>(TaskOutcome::Skipped))
    return false;
  Entry.Outcome = static_cast<TaskOutcome>(Outcome);
  if (!D.getU32(Entry.Attempts) || !D.getString(Entry.Detail) ||
      !D.getU32(Entry.NewtonIterations) || !D.getBool(Entry.GpInfeasible))
    return false;

  RoundedDesign &R = Entry.Design;
  if (!D.getBool(R.Found) || !D.getI64(R.Arch.NumPEs) ||
      !D.getI64(R.Arch.RegWordsPerPE) || !D.getI64(R.Arch.SramWords) ||
      !D.getDouble(R.Arch.DramBandwidth) ||
      !D.getDouble(R.Arch.SramBandwidth))
    return false;
  std::uint64_t Iters;
  if (!D.getU64(Iters) || Iters > D.remaining() / (8 * NumTileLevels))
    return false;
  R.Map.Factors.resize(static_cast<std::size_t>(Iters));
  for (auto &Level : R.Map.Factors)
    for (std::int64_t &F : Level)
      if (!D.getI64(F))
        return false;
  if (!getPerm(D, R.Map.DramPerm) || !getPerm(D, R.Map.PePerm))
    return false;
  if (!D.getBool(R.Eval.Legal) || !D.getString(R.Eval.IllegalReason) ||
      !D.getDouble(R.Eval.EnergyPj) || !D.getDouble(R.Eval.EnergyPerMacPj) ||
      !D.getDouble(R.Eval.MacEnergyPj) || !D.getDouble(R.Eval.RegEnergyPj) ||
      !D.getDouble(R.Eval.SramEnergyPj) ||
      !D.getDouble(R.Eval.DramEnergyPj) ||
      !D.getDouble(R.Eval.EdpPjCycles) || !D.getDouble(R.Eval.Cycles) ||
      !D.getDouble(R.Eval.ComputeCycles) ||
      !D.getDouble(R.Eval.DramCycles) || !D.getDouble(R.Eval.SramCycles) ||
      !D.getDouble(R.Eval.MacIpc))
    return false;
  std::uint64_t Tensors;
  if (!D.getU64(Tensors) || Tensors > D.remaining() / 32)
    return false;
  R.Eval.Profile.PerTensor.resize(static_cast<std::size_t>(Tensors));
  for (TensorVolumes &V : R.Eval.Profile.PerTensor)
    if (!D.getI64(V.DramToSram) || !D.getI64(V.SramToDram) ||
        !D.getI64(V.SramToReg) || !D.getI64(V.RegToSram))
      return false;
  std::uint64_t Tried;
  if (!D.getI64(R.Eval.Profile.RegTileWords) ||
      !D.getI64(R.Eval.Profile.SramTileWords) ||
      !D.getI64(R.Eval.Profile.PEsUsed) || !D.getU64(Tried))
    return false;
  R.CandidatesTried = static_cast<std::size_t>(Tried);

  return D.getDouble(Entry.Obj) && D.getDouble(Entry.ModelObjective);
}

bool endsWith(const std::string &S, const char *Suffix) {
  const std::size_t N = std::char_traits<char>::length(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

} // namespace

std::string thistle::gpCacheKey(const Problem &Prob,
                                const ThistleOptions &Options,
                                const ArchConfig &Arch,
                                const TechParams &Tech,
                                double AreaBudgetUm2,
                                const std::vector<unsigned> &TiledIters,
                                const std::vector<unsigned> &PePerm,
                                const std::vector<unsigned> &DramPerm) {
  // Structural part: iterator names, tensor skeleton (which iterators
  // project into which dimension), perms and the mode/objective/options
  // that shape the generated program. The problem *name* is excluded on
  // purpose: identically shaped layers of different networks must share
  // entries.
  std::string S;
  S.reserve(256);
  S += "it:";
  for (const Iterator &It : Prob.iterators()) {
    S += It.Name;
    S += ',';
  }
  S += "|tn:";
  for (const Tensor &T : Prob.tensors()) {
    S += T.Name;
    S += T.ReadWrite ? "+rw" : "";
    for (const DimRef &D : T.Dims) {
      S += '[';
      for (const DimRef::Term &Term : D.Terms) {
        S += std::to_string(Term.Iter);
        S += ';';
      }
      S += ']';
    }
    S += ',';
  }
  S += "|opt:";
  S += designModeName(Options.Mode);
  S += ',';
  S += objectiveName(Options.Objective);
  S += Options.SpatialUntiled ? ",su1," : ",su0,";
  S += "tiled:";
  appendIndices(S, TiledIters);
  S += "q:";
  appendIndices(S, PePerm);
  S += "s:";
  appendIndices(S, DramPerm);

  // Numeric part: extents, projection strides, the architecture/
  // technology constants and every option that changes the solve or
  // rounding trajectory.
  std::string N = "|ext:";
  for (const Iterator &It : Prob.iterators())
    appendNumber(N, It.Extent);
  N += "str:";
  for (const Tensor &T : Prob.tensors())
    for (const DimRef &D : T.Dims)
      for (const DimRef::Term &Term : D.Terms)
        appendNumber(N, Term.Stride);
  N += "arch:";
  appendNumber(N, Arch.NumPEs);
  appendNumber(N, Arch.RegWordsPerPE);
  appendNumber(N, Arch.SramWords);
  appendNumber(N, Arch.DramBandwidth);
  appendNumber(N, Arch.SramBandwidth);
  N += "tech:";
  appendNumber(N, Tech.AreaMacUm2);
  appendNumber(N, Tech.AreaRegWordUm2);
  appendNumber(N, Tech.AreaSramWordUm2);
  appendNumber(N, Tech.EnergyMacPj);
  appendNumber(N, Tech.SigmaRegPj);
  appendNumber(N, Tech.SigmaSramPj);
  appendNumber(N, Tech.EnergyDramPj);
  N += "area:";
  appendNumber(N, AreaBudgetUm2);
  N += "round:";
  appendNumber(N, static_cast<std::int64_t>(Options.Rounding.NumCandidates));
  appendNumber(N, Options.Rounding.UtilizationThreshold);
  appendNumber(N, static_cast<std::int64_t>(
                      Options.Rounding.MaxMappingCandidates));
  N += "solver:";
  appendNumber(N, Options.Solver.Tolerance);
  appendNumber(N, Options.Solver.TInitial);
  appendNumber(N, Options.Solver.TMultiplier);
  appendNumber(N, static_cast<std::int64_t>(Options.Solver.MaxNewtonIters));
  appendNumber(N, static_cast<std::int64_t>(Options.Solver.MaxOuterIters));
  appendNumber(N, Options.Solver.StartPerturbation);
  appendNumber(N, Options.Solver.ObjectiveScale);
  appendNumber(N, static_cast<std::int64_t>(Options.Solver.MaxSolveAttempts));

  S += N;
  return S;
}

bool GpSolutionCache::lookup(const std::string &Key, GpCacheEntry &Out) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      Out = It->second.Entry;
      Recency.splice(Recency.begin(), Recency, It->second.Where);
      Hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool GpSolutionCache::insertLocked(const std::string &Key,
                                   GpCacheEntry Entry) {
  auto [It, Inserted] = Entries.try_emplace(Key);
  if (!Inserted)
    return false; // Existing entries win (they are identical by key).
  Recency.push_front(Key);
  It->second.Entry = std::move(Entry);
  It->second.Where = Recency.begin();
  evictLocked();
  return true;
}

void GpSolutionCache::evictLocked() {
  while (MaxEntries != 0 && Entries.size() > MaxEntries) {
    Entries.erase(Recency.back());
    Recency.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("thistle.cache.evictions");
  }
}

void GpSolutionCache::insert(const std::string &Key, GpCacheEntry Entry) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Journal before the move; only genuinely new entries are appended
  // (a dropped append is counted, never fails the insert — the entry
  // just re-solves after a crash).
  if (Journal.isOpen() && Entries.find(Key) == Entries.end() &&
      !Journal.append(encodeEntry(Key, Entry)))
    JournalFailures.fetch_add(1, std::memory_order_relaxed);
  insertLocked(Key, std::move(Entry));
}

void GpSolutionCache::setCapacity(std::size_t Max) {
  std::lock_guard<std::mutex> Lock(Mutex);
  MaxEntries = Max;
  evictLocked();
}

std::size_t GpSolutionCache::capacity() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return MaxEntries;
}

Status GpSolutionCache::saveSnapshotFile(const std::string &Path) const {
  std::string Payload;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    // LRU-first: a sequential reload push-fronts each entry, so the
    // last one written (the MRU) ends up back at the front.
    for (auto It = Recency.rbegin(); It != Recency.rend(); ++It) {
      Encoder E;
      E.putString(encodeEntry(*It, Entries.at(*It).Entry));
      Payload += E.takeBytes();
    }
  }
  return persist::writeSnapshotFile(Path, CacheKind, Payload);
}

void GpSolutionCache::loadFile(const std::string &Path,
                               GpCachePersistStats &Stats) {
  auto noteDamage = [&](const std::string &Problem) {
    ++Stats.DataLoss;
    Stats.Problems.push_back(Problem);
  };
  auto loadOne = [&](std::string_view Bytes) {
    Decoder D(Bytes);
    std::string Key;
    GpCacheEntry Entry;
    if (!decodeEntry(D, Key, Entry) || !D.atEnd())
      return false;
    std::lock_guard<std::mutex> Lock(Mutex);
    if (insertLocked(Key, std::move(Entry)))
      ++Stats.EntriesLoaded;
    return true;
  };

  if (endsWith(Path, ".snap")) {
    Expected<std::string> Payload =
        persist::readSnapshotFile(Path, CacheKind);
    if (!Payload) {
      if (Payload.status().code() != StatusCode::NotFound)
        noteDamage(Payload.status().toString());
      return;
    }
    ++Stats.FilesLoaded;
    // Entries are framed as length-prefixed strings; on the first
    // undecodable one, keep the intact prefix and report the rest lost
    // (should not happen — the CRC already passed — but a decode bug
    // must degrade, not crash).
    Decoder Frames(Payload.value());
    std::string Bytes;
    while (!Frames.atEnd()) {
      if (!Frames.getString(Bytes) || !loadOne(Bytes)) {
        noteDamage("'" + Path + "': undecodable entry after " +
                   std::to_string(Stats.EntriesLoaded) +
                   " intact entries; dropping the rest");
        return;
      }
    }
    return;
  }

  Expected<persist::JournalContents> Contents =
      persist::readJournalFile(Path, CacheKind);
  if (!Contents) {
    if (Contents.status().code() != StatusCode::NotFound)
      noteDamage(Contents.status().toString());
    return;
  }
  ++Stats.FilesLoaded;
  if (Contents.value().Truncated)
    noteDamage(Contents.value().Problem);
  for (const std::string &Record : Contents.value().Records) {
    ++Stats.RecordsRead;
    if (!loadOne(Record)) {
      noteDamage("'" + Path + "': undecodable record after " +
                 std::to_string(Stats.EntriesLoaded) +
                 " intact entries; dropping the rest");
      return;
    }
  }
}

Status GpSolutionCache::attachJournal(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Journal.open(Path, CacheKind);
}

void GpSolutionCache::detachJournal() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Journal.close();
}

Status GpSolutionCache::compact(const std::string &SnapPath,
                                const std::string &JournalPath) {
  detachJournal();
  Status St = saveSnapshotFile(SnapPath);
  if (St.isOk())
    persist::removeFile(JournalPath);
  return St;
}

std::size_t GpSolutionCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void GpSolutionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Recency.clear();
}
