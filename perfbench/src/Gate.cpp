//===- perfbench/src/Gate.cpp - The benchmark's correctness gate ----------===//

#include "Gate.h"

#include "nestmodel/CostEvaluator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace thistle;

namespace perfbench {

namespace {

/// 64-bit FNV-1a digest of \p Text, as 16 hex digits.
std::string digestOf(const std::string &Text) {
  std::uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string num(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

template <typename T> std::string list(const std::vector<T> &V) {
  std::string Out;
  for (std::size_t I = 0; I < V.size(); ++I)
    Out += (I ? "," : "") + std::to_string(V[I]);
  return Out;
}

std::string outcomes(const SweepReport &R) {
  return "solved=" + std::to_string(R.Solved) +
         " degraded=" + std::to_string(R.Degraded) +
         " infeasible=" + std::to_string(R.Infeasible) +
         " failed=" + std::to_string(R.Failed) +
         " skipped=" + std::to_string(R.Skipped);
}

std::string arch(const ArchConfig &A) {
  return std::to_string(A.NumPEs) + "," + std::to_string(A.RegWordsPerPE) +
         "," + std::to_string(A.SramWords);
}

std::string multiMap(const MultiMapping &M) {
  std::string Out = "temp=";
  for (const std::vector<std::int64_t> &L : M.TempFactors)
    Out += "[" + list(L) + "]";
  Out += " spatial=" + list(M.SpatialFactors) + " perms=";
  for (const std::vector<unsigned> &P : M.Perms)
    Out += "[" + list(P) + "]";
  return Out;
}

} // namespace

namespace {

/// The chosen design of one layer: architecture, mapping, energy, cycles.
std::string design(const ThistleResult &R) {
  if (!R.Found)
    return "found=0";
  std::string Out = "found=1 arch=" + arch(R.Arch) + " factors=";
  for (const auto &F : R.Map.Factors) {
    Out += "[";
    for (std::size_t L = 0; L < F.size(); ++L)
      Out += (L ? "," : "") + std::to_string(F[L]);
    Out += "]";
  }
  return Out + " pe=" + list(R.Map.PePerm) + " dram=" + list(R.Map.DramPerm) +
         " energy=" + num(R.Eval.EnergyPj) + " cycles=" + num(R.Eval.Cycles);
}

} // namespace

std::string canonicalNetwork(const NetworkResult &R) {
  // Layer lines are sorted, and only the network-wide outcome counts are
  // kept, so the text does not depend on the order the layers were listed
  // in (which copy of a repeated shape is solved, which are deduplicated).
  std::vector<std::string> Lines;
  for (const NetworkLayerResult &L : R.Layers)
    Lines.push_back(L.Name + ": " + design(L.Result) + "\n");
  std::sort(Lines.begin(), Lines.end());
  std::string Out = "found=" + std::to_string(R.Found) +
                    " arch=" + arch(R.Arch) +
                    " candidates=" + std::to_string(R.Candidates.size()) +
                    " " + outcomes(R.Report) + "\n";
  for (const std::string &L : Lines)
    Out += L;
  return Out;
}

std::string canonicalMulti(const MultiResult &R) {
  std::string Out = "found=" + std::to_string(R.Found) + " " +
                    outcomes(R.Report) +
                    " combos=" + std::to_string(R.CombosSolved) +
                    " infeasible=" + std::to_string(R.GpInfeasible);
  if (R.Found)
    Out += " " + multiMap(R.Map) + " energy=" + num(R.Eval.EnergyPj) +
           " cycles=" + num(R.Eval.Cycles);
  return Out;
}

std::string canonicalMapper(const MultiMapperResult &R) {
  std::string Out = "found=" + std::to_string(R.Found) +
                    " trials=" + std::to_string(R.Trials) +
                    " legal=" + std::to_string(R.LegalTrials) +
                    " stop=" + mapperStopCauseName(R.StopCause);
  if (R.Found)
    Out += " " + multiMap(R.Best) + " energy=" + num(R.BestEval.EnergyPj) +
           " cycles=" + num(R.BestEval.Cycles);
  return Out;
}

std::string rescoreMulti(const Problem &Prob, const Hierarchy &H,
                         const MultiMapping &Map,
                         const MultiEvalResult &Eval) {
  const CostEvaluator *Nest = costEvaluator("nest");
  const CostEvaluator *Maestro = costEvaluator("maestro");
  if (!Nest || !Maestro)
    return "the nest or maestro backend is not registered";
  if (std::string Bad = Map.validate(Prob, H); !Bad.empty())
    return "invalid mapping: " + Bad;
  ProfileDivergence D =
      compareProfiles(Prob, H, Maestro->profile(Prob, H, Map),
                      Nest->profile(Prob, H, Map));
  if (D.diverged()) {
    const DivergenceSample &S = D.Samples.front();
    return "maestro counts differ from the nest model at " + S.Counter +
           ": " + std::to_string(S.Primary) + " vs " +
           std::to_string(S.Reference);
  }
  MultiEvalResult M = Maestro->evaluate(Prob, H, Map);
  if (!M.Legal)
    return "design does not fit its architecture: " + M.IllegalReason;
  if (M.EnergyPj != Eval.EnergyPj || M.Cycles != Eval.Cycles)
    return "maestro re-score gives energy " + num(M.EnergyPj) + " cycles " +
           num(M.Cycles) + ", the result says " + num(Eval.EnergyPj) + " " +
           num(Eval.Cycles);
  return "";
}

std::string rescoreClassic(const Problem &Prob, const ArchConfig &Arch,
                           const Mapping &Map, const EvalResult &Eval,
                           const TechParams &Tech, double AreaBudgetUm2) {
  if (AreaBudgetUm2 > 0.0 && Arch.areaUm2(Tech) > AreaBudgetUm2)
    return "architecture area " + num(Arch.areaUm2(Tech)) +
           " um^2 exceeds the budget " + num(AreaBudgetUm2);
  MultiEvalResult Claimed;
  Claimed.EnergyPj = Eval.EnergyPj;
  Claimed.Cycles = Eval.Cycles;
  return rescoreMulti(Prob, Hierarchy::classic3Level(Arch, Tech),
                      MultiMapping::fromMapping(Prob, Map), Claimed);
}

Gate::Gate(std::string Path, bool Record, bool Perturb)
    : Path(std::move(Path)), Record(Record), Perturb(Perturb) {}

bool Gate::load(std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Record)
      return true;
    Error = "cannot read the expected digests in " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::size_t Tab = Line.find('\t');
    if (Tab == std::string::npos) {
      Error = "malformed line in " + Path + ": " + Line;
      return false;
    }
    Expected[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return true;
}

std::string Gate::check(const std::string &Key, const std::string &Canonical) {
  const std::string Got = digestOf(Canonical);
  if (Record) {
    Expected[Key] = Got;
    return "";
  }
  auto It = Expected.find(Key);
  if (It == Expected.end())
    return "no expected digest for " + Key;
  std::string Want = It->second;
  if (Perturb && !Perturbed) {
    Perturbed = true;
    Want.back() = Want.back() == '0' ? '1' : '0';
  }
  if (Got != Want)
    return Key + ": digest " + Got + ", expected " + Want;
  return "";
}

bool Gate::save() const {
  std::ofstream Out(Path);
  Out << "# Expected result digests of every benchmark operation: key, tab, "
         "FNV-1a 64 of the\n# canonical result text (perfbench/src/Gate.cpp). "
         "Rewrite with run.py --record.\n";
  for (const auto &[Key, Digest] : Expected)
    Out << Key << '\t' << Digest << '\n';
  return static_cast<bool>(Out);
}

} // namespace perfbench
