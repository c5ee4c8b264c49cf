//===- bench/bench_ablation_solver.cpp - GP solver performance ------------===//
//
// Measures the interior-point GP solver that replaces CVXPY: per-layer
// solve statistics (variables, constraints, Newton iterations, wall time)
// for one representative permutation class, google-benchmark timings
// across solver tolerances, and a speed record written to
// BENCH_solver.json in the working directory: two layer runs, one of
// them dominated by infeasible solves, and a solve sweep over every
// ResNet-18 layer's representative GP in both modes, each with its
// Newton steps and wall time per Newton step. The committed copy of that
// file also carries a "before" block: the same measurements, from the
// same bench source, on the parent tree of the last solver speed change.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"
#include "thistle/PermutationSpace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

using namespace thistle;
using namespace thistle::bench;

namespace {

GpBuildSpec specForLayer(const Problem &P, DesignMode Mode) {
  GpBuildSpec Spec;
  Spec.Mode = Mode;
  std::vector<unsigned> Tiled;
  for (unsigned I = 0; I < P.numIterators(); ++I) {
    const Iterator &It = P.iterators()[I];
    if (It.Extent > 1 && It.Name != "r" && It.Name != "s")
      Tiled.push_back(I);
  }
  Spec.TiledIters = Tiled;
  std::vector<PermClass> Classes = enumeratePermClasses(P, Tiled);
  Spec.PePerm = Classes.front().Representative;
  Spec.DramPerm = Classes.back().Representative;
  Spec.Arch = eyerissArch();
  Spec.AreaBudgetUm2 = eyerissAreaUm2(Spec.Tech);
  return Spec;
}

void printSolverTable() {
  TablePrinter Table({"layer", "mode", "vars", "ineqs", "eqs",
                      "newton iters", "solve ms", "feasible"});
  for (const ConvLayer &L : allPaperLayers()) {
    Problem P = makeConvProblem(L);
    for (DesignMode Mode :
         {DesignMode::DataflowOnly, DesignMode::CoDesign}) {
      GpBuildSpec Spec = specForLayer(P, Mode);
      GpBuild Build = buildGp(P, Spec);
      auto Start = std::chrono::steady_clock::now();
      GpSolution S = solveGp(Build.Gp);
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      Table.addRow({L.Name,
                    Mode == DesignMode::DataflowOnly ? "dataflow" : "co",
                    std::to_string(Build.Gp.variables().size()),
                    std::to_string(Build.Gp.constraints().size()),
                    std::to_string(Build.Gp.equalities().size()),
                    std::to_string(S.NewtonIterations),
                    TablePrinter::formatDouble(Ms, 2),
                    S.Feasible ? "yes" : "no"});
    }
  }
  Table.print(std::cout);
  std::printf("\n");
}

/// One layer run of the speed record.
struct SolverRecord {
  const char *Name = nullptr;
  double Seconds = 0.0; ///< Min-of-N wall time, telemetry off.
  std::uint64_t Solves = 0, Infeasible = 0, Certified = 0;
  std::uint64_t NewtonSteps = 0, NewtonInfeasible = 0;
};

constexpr unsigned RecordReps = 3;

/// Wall nanoseconds per Newton step (0 when no step was counted).
double nsPerNewtonStep(double Seconds, std::uint64_t NewtonSteps) {
  return NewtonSteps ? Seconds * 1e9 / static_cast<double>(NewtonSteps)
                     : 0.0;
}

/// One solve sweep of the speed record: solveGp on the representative
/// GP of every ResNet-18 layer, built once outside the timed region.
struct SweepRecord {
  const char *Name = nullptr;
  double Seconds = 0.0; ///< Min-of-N wall time of the whole sweep.
  std::size_t Solves = 0;
  std::uint64_t NewtonSteps = 0;
};

constexpr unsigned SweepReps = 5;

SweepRecord measureSweep(const char *Name, DesignMode Mode) {
  std::vector<GpProblem> Gps;
  for (const ConvLayer &L : resnet18Layers()) {
    Problem P = makeConvProblem(L);
    Gps.push_back(buildGp(P, specForLayer(P, Mode)).Gp);
  }
  SweepRecord Rec{Name};
  Rec.Solves = Gps.size();
  for (const GpProblem &Gp : Gps)
    Rec.NewtonSteps += solveGp(Gp).NewtonIterations;
  Rec.Seconds = minSecondsOfN(SweepReps, [&] {
    for (const GpProblem &Gp : Gps)
      benchmark::DoNotOptimize(solveGp(Gp));
  });
  return Rec;
}

/// Times \p Run (telemetry off), then repeats it once traced to count
/// solves by outcome: every solver.attempt span is one solveGp call and
/// carries "<outcome> newton=N".
template <typename RunFn> SolverRecord measureRecord(const char *Name,
                                                      RunFn &&Run) {
  SolverRecord Rec{Name};
  Rec.Seconds = minSecondsOfN(RecordReps, Run);
  if (!telemetry::compiledIn())
    return Rec;
  telemetry::reset();
  telemetry::setLevel(telemetry::Level::Trace);
  Run();
  telemetry::Snapshot Snap = telemetry::snapshot();
  telemetry::setLevel(telemetry::Level::Off);
  telemetry::reset();
  for (const telemetry::CounterValue &C : Snap.Counters)
    if (C.Name == "solver.phase1.certified")
      Rec.Certified = C.Value;
  const std::string Infeasible = "infeasible newton=";
  for (const telemetry::Span &S : Snap.Spans) {
    if (S.Name != "solver.attempt")
      continue;
    std::uint64_t Newton =
        std::strtoull(S.Detail.c_str() + S.Detail.find('=') + 1, nullptr, 10);
    ++Rec.Solves;
    Rec.NewtonSteps += Newton;
    if (S.Detail.compare(0, Infeasible.size(), Infeasible) == 0) {
      ++Rec.Infeasible;
      Rec.NewtonInfeasible += Newton;
    }
  }
  return Rec;
}

/// The ResNet-18 network co-design's phase-2 candidate arch on resnet-1
/// (every tight GP infeasible, its fallback feasible), and resnet-5
/// co-design under the Eyeriss area.
void writeSolverRecord(const char *Path) {
  const TechParams Tech = TechParams::cgo45nm();
  ArchConfig Fixed = eyerissArch();
  Fixed.NumPEs = 1178;
  Fixed.RegWordsPerPE = 8;
  Fixed.SramWords = 65536;
  Problem R1 = makeConvProblem(resnet18Layers()[0]);
  Problem R5 = makeConvProblem(resnet18Layers()[4]);
  ThistleOptions CoDesign;
  CoDesign.Mode = DesignMode::CoDesign;
  const SolverRecord Records[] = {
      measureRecord("resnet1_fixed_arch",
                    [&] {
                      benchmark::DoNotOptimize(optimizeLayer(
                          R1, Fixed, Tech, ThistleOptions()));
                    }),
      measureRecord("resnet5_codesign", [&] {
        benchmark::DoNotOptimize(optimizeLayer(R5, eyerissArch(), Tech,
                                               CoDesign,
                                               eyerissAreaUm2(Tech)));
      })};

  const SweepRecord Sweeps[] = {
      measureSweep("resnet18_dataflow", DesignMode::DataflowOnly),
      measureSweep("resnet18_codesign", DesignMode::CoDesign)};

  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F,
               "{\n"
               "  \"bench\": \"ablation_solver\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"timing\": \"min_of_%u\",\n"
               "  \"sweep_timing\": \"min_of_%u\",\n"
               "  \"runs\": {\n",
               ThreadPool::defaultWorkerCount(), RecordReps, SweepReps);
  for (std::size_t I = 0; I < std::size(Records); ++I) {
    const SolverRecord &R = Records[I];
    std::fprintf(F,
                 "    \"%s\": {\n"
                 "      \"seconds\": %.4f,\n"
                 "      \"solves\": %llu,\n"
                 "      \"infeasible\": %llu,\n"
                 "      \"certified\": %llu,\n"
                 "      \"newton_steps\": %llu,\n"
                 "      \"newton_per_infeasible\": %.1f,\n"
                 "      \"ns_per_newton_step\": %.0f\n"
                 "    }%s\n",
                 R.Name, R.Seconds, static_cast<unsigned long long>(R.Solves),
                 static_cast<unsigned long long>(R.Infeasible),
                 static_cast<unsigned long long>(R.Certified),
                 static_cast<unsigned long long>(R.NewtonSteps),
                 R.Infeasible ? static_cast<double>(R.NewtonInfeasible) /
                                    static_cast<double>(R.Infeasible)
                              : 0.0,
                 nsPerNewtonStep(R.Seconds, R.NewtonSteps),
                 I + 1 < std::size(Records) ? "," : "");
    std::printf("%-20s %8.4f s  %llu solves, %llu infeasible (%llu "
                "certified), %llu Newton steps\n",
                R.Name, R.Seconds, static_cast<unsigned long long>(R.Solves),
                static_cast<unsigned long long>(R.Infeasible),
                static_cast<unsigned long long>(R.Certified),
                static_cast<unsigned long long>(R.NewtonSteps));
  }
  std::fprintf(F, "  },\n  \"sweeps\": {\n");
  for (std::size_t I = 0; I < std::size(Sweeps); ++I) {
    const SweepRecord &R = Sweeps[I];
    const double MsPerSolve =
        R.Seconds * 1e3 / static_cast<double>(R.Solves);
    const double Ns = nsPerNewtonStep(R.Seconds, R.NewtonSteps);
    std::fprintf(F,
                 "    \"%s\": {\n"
                 "      \"seconds\": %.5f,\n"
                 "      \"solves\": %zu,\n"
                 "      \"ms_per_solve\": %.3f,\n"
                 "      \"newton_steps\": %llu,\n"
                 "      \"ns_per_newton_step\": %.0f\n"
                 "    }%s\n",
                 R.Name, R.Seconds, R.Solves, MsPerSolve,
                 static_cast<unsigned long long>(R.NewtonSteps), Ns,
                 I + 1 < std::size(Sweeps) ? "," : "");
    std::printf("%-20s %8.4f s  %zu solves, %.3f ms/solve, %llu Newton "
                "steps, %.0f ns/step\n",
                R.Name, R.Seconds, R.Solves, MsPerSolve,
                static_cast<unsigned long long>(R.NewtonSteps), Ns);
  }
  std::fprintf(F, "  }\n}\n");
  std::fclose(F);
  std::printf("\nwrote %s\n\n", Path);
}

void timeGpSolveTolerance(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  GpBuildSpec Spec = specForLayer(P, DesignMode::CoDesign);
  GpBuild Build = buildGp(P, Spec);
  GpSolverOptions O;
  O.Tolerance = std::pow(10.0, -static_cast<double>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(solveGp(Build.Gp, O));
}
BENCHMARK(timeGpSolveTolerance)->Arg(4)->Arg(6)->Arg(8)->Unit(
    benchmark::kMillisecond);

void timeGpBuild(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  GpBuildSpec Spec = specForLayer(P, DesignMode::CoDesign);
  for (auto _ : State)
    benchmark::DoNotOptimize(buildGp(P, Spec));
}
BENCHMARK(timeGpBuild)->Unit(benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Ablation: GP solver",
              "Interior-point solver statistics per layer (the CVXPY "
              "replacement)");
  printSolverTable();
  writeSolverRecord("BENCH_solver.json");
  return runTimings(Argc, Argv);
}
