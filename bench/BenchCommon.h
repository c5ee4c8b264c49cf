//===- bench/BenchCommon.h - Shared benchmark harness helpers --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared configuration for the figure/table reproduction binaries. Every
/// binary prints the corresponding paper artifact first (that is the
/// reproduction), then runs a few google-benchmark timings of the
/// machinery involved.
///
/// Scale note: the paper ran the Timeloop Mapper with timeout and victory
/// condition of 100000 and a 3-hour cap per layer. The harness uses a
/// proportionally reduced budget so the full suite completes in minutes;
/// the baseline search is seeded and deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_BENCH_BENCHCOMMON_H
#define THISTLE_BENCH_BENCHCOMMON_H

#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "support/ThreadPool.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace thistle::bench {

/// Baseline search budget (scaled-down stand-in for the paper's
/// 100000/100000/3h Timeloop Mapper setting).
inline MapperOptions mapperOptions(SearchObjective Objective,
                                   std::uint64_t Seed = 1) {
  MapperOptions O;
  O.Objective = Objective;
  O.MaxTrials = 20000;
  O.VictoryCondition = 4000;
  O.Seed = Seed;
  return O;
}

/// Thistle configuration used by all figure reproductions.
inline ThistleOptions thistleOptions(DesignMode Mode,
                                     SearchObjective Objective) {
  ThistleOptions O;
  O.Mode = Mode;
  O.Objective = Objective;
  // Delay rounding is more sensitive to integer PE-grid choices: widen
  // the divisor candidate window (the paper's n = 2 or 3) and let the
  // cross product explore more PE-grid combinations.
  if (Objective == SearchObjective::Delay) {
    O.Rounding.NumCandidates = 3;
    O.Rounding.MaxMappingCandidates = 16000;
  }
  return O;
}

/// Wall-clock stopwatch for throughput measurements (pairs/s, trials/s)
/// where google-benchmark's repeated-iteration protocol would be too slow
/// to wrap around a full design-space sweep.
class WallTimer {
public:
  WallTimer() : Start(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

  void reset() { Start = std::chrono::steady_clock::now(); }

private:
  std::chrono::steady_clock::time_point Start;
};

/// True when \p Requested worker threads exceed the host's hardware
/// concurrency: the timing would measure scheduler contention, not
/// engine scaling. Speedup benches record this in their JSON
/// ("oversubscribed": true) so a bogus slowdown on a small host is never
/// mistaken for a regression.
inline bool oversubscribed(unsigned Requested) {
  return Requested > ThreadPool::defaultWorkerCount();
}

/// Clamps a requested worker count to the host's hardware concurrency
/// (floor 1). Scaling measurements use the clamped count and report the
/// request separately.
inline unsigned clampThreads(unsigned Requested) {
  return std::max(1u,
                  std::min(Requested, ThreadPool::defaultWorkerCount()));
}

/// Min-of-N repetition timing: runs \p Body \p Reps times (at least
/// once) and returns the fastest wall-clock seconds. The minimum is the
/// robust estimator for "how fast can this go" — a one-shot timing folds
/// scheduler noise and cold caches into the number.
template <typename BodyFn>
inline double minSecondsOfN(unsigned Reps, BodyFn &&Body) {
  double Best = std::numeric_limits<double>::infinity();
  for (unsigned R = 0; R < std::max(1u, Reps); ++R) {
    WallTimer T;
    Body();
    Best = std::min(Best, T.seconds());
  }
  return Best;
}

/// Sets the top-level member \p Key of the JSON object in \p Path to the
/// JSON text \p Value: a member of that name is replaced in place,
/// otherwise one is appended. A missing or unreadable file starts a fresh
/// object. Benches that record into a shared file (BENCH_parallel.json)
/// write through this, so a rerun never leaves a duplicate key.
inline void writeJsonMember(const char *Path, const std::string &Key,
                            const std::string &Value) {
  std::string Text;
  if (std::FILE *F = std::fopen(Path, "r")) {
    char Buf[4096];
    std::size_t Got;
    while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, Got);
    std::fclose(F);
  }

  // The object's members as (key, raw value text): the scan tracks only
  // strings and bracket depth, so nested values keep their layout.
  std::vector<std::pair<std::string, std::string>> Members;
  auto skipSpace = [&](std::size_t &I) {
    while (I < Text.size() && std::isspace(static_cast<unsigned char>(
                                  Text[I])))
      ++I;
  };
  std::size_t I = Text.find('{');
  if (I != std::string::npos) {
    ++I;
    while (true) {
      skipSpace(I);
      if (I >= Text.size() || Text[I] != '"')
        break;
      std::size_t KeyEnd = Text.find('"', I + 1);
      if (KeyEnd == std::string::npos)
        break;
      std::string Name = Text.substr(I + 1, KeyEnd - I - 1);
      I = KeyEnd + 1;
      skipSpace(I);
      if (I >= Text.size() || Text[I] != ':')
        break;
      ++I;
      skipSpace(I);
      const std::size_t Start = I;
      int Depth = 0;
      bool InString = false;
      for (; I < Text.size(); ++I) {
        char C = Text[I];
        if (InString) {
          if (C == '\\')
            ++I;
          else if (C == '"')
            InString = false;
        } else if (C == '"') {
          InString = true;
        } else if (C == '{' || C == '[') {
          ++Depth;
        } else if (C == '}' || C == ']') {
          if (Depth == 0)
            break;
          --Depth;
        } else if (C == ',' && Depth == 0) {
          break;
        }
      }
      std::size_t End = I;
      while (End > Start &&
             std::isspace(static_cast<unsigned char>(Text[End - 1])))
        --End;
      Members.emplace_back(std::move(Name), Text.substr(Start, End - Start));
      if (I >= Text.size() || Text[I] != ',')
        break;
      ++I;
    }
  }

  auto Same = std::find_if(Members.begin(), Members.end(),
                           [&](const auto &M) { return M.first == Key; });
  if (Same != Members.end())
    Same->second = Value;
  else
    Members.emplace_back(Key, Value);

  std::string Out = "{\n";
  for (std::size_t M = 0; M < Members.size(); ++M)
    Out += "  \"" + Members[M].first + "\": " + Members[M].second +
           (M + 1 < Members.size() ? ",\n" : "\n");
  Out += "}\n";
  if (std::FILE *F = std::fopen(Path, "w")) {
    std::fwrite(Out.data(), 1, Out.size(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "cannot write %s\n", Path);
  }
}

/// Prints the standard bench header.
inline void printHeader(const char *Artifact, const char *Description) {
  std::printf("==== %s ====\n%s\n\n", Artifact, Description);
}

/// Runs the registered google-benchmark timings (call at the end of
/// main). Passes through argv so --benchmark_* flags work.
inline int runTimings(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

} // namespace thistle::bench

#endif // THISTLE_BENCH_BENCHCOMMON_H
