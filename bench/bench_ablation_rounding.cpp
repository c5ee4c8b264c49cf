//===- bench/bench_ablation_rounding.cpp - Rounding width ablation --------===//
//
// Ablates the paper's integerization parameter n ("typically 2 or 3"):
// the number of divisor / power-of-two candidates taken around the real
// GP solution, for dataflow optimization and co-design on representative
// layers. Larger n explores more integer candidates at higher cost.
// It also writes BENCH_rounding.json to the working directory: the speed
// record of the rounding and cost-evaluation hot path on two dataflow
// runs that it dominates. The committed copy of that file also carries a
// "before" block: the same measurements, by this source, on the tree
// before the last change to the evaluator's hot path.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"
#include "thistle/Network.h"

#include <cstdio>
#include <iostream>

using namespace thistle;
using namespace thistle::bench;

namespace {

void printRoundingAblation() {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Eyeriss = eyerissArch();
  double Budget = eyerissAreaUm2(Tech);
  std::vector<ConvLayer> Layers = {resnet18Layers()[1], resnet18Layers()[8],
                                   yolo9000Layers()[6]};

  for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign}) {
    std::printf("%s:\n", Mode == DesignMode::DataflowOnly
                             ? "dataflow optimization (Eyeriss)"
                             : "co-design (equal area)");
    TablePrinter Table({"layer", "n", "pJ/MAC", "candidates evaluated"});
    for (const ConvLayer &L : Layers) {
      Problem P = makeConvProblem(L);
      for (unsigned N : {1u, 2u, 3u}) {
        ThistleOptions O = thistleOptions(Mode, SearchObjective::Energy);
        O.Rounding.NumCandidates = N;
        ThistleResult R = optimizeLayer(P, Eyeriss, Tech, O,
                                        Mode == DesignMode::CoDesign
                                            ? Budget
                                            : 0.0);
        Table.addRow(
            {L.Name, std::to_string(N),
             R.Found ? TablePrinter::formatDouble(R.Eval.EnergyPerMacPj, 2)
                     : std::string("-"),
             std::to_string(R.Stats.CandidatesEvaluated)});
      }
    }
    Table.print(std::cout);
    std::printf("\n");
  }
}

/// One run of the speed record.
struct RoundingRecord {
  const char *Name = nullptr;
  double Seconds1 = 0.0; ///< Min-of-N wall time, one worker.
  double SecondsN = 0.0; ///< Min-of-N wall time, one worker per core.
  std::size_t Candidates = 0; ///< Integer candidates scored.
};

constexpr unsigned RecordReps = 15;

/// Times \p Run (which takes a worker count, 0 = one per core, and
/// returns the number of candidates it scored) at one worker and at
/// one worker per core.
template <typename RunFn>
RoundingRecord measureRecord(const char *Name, RunFn &&Run) {
  RoundingRecord Rec{Name};
  Rec.Seconds1 = minSecondsOfN(RecordReps, [&] { Rec.Candidates = Run(1); });
  Rec.SecondsN = minSecondsOfN(RecordReps, [&] { Run(0); });
  return Rec;
}

/// resnet-5 dataflow optimizeLayer and ResNet-18 dataflow
/// optimizeNetwork on Eyeriss. ns_per_candidate is the one-worker wall
/// time divided by the candidates scored, GP solves included.
void writeRoundingRecord(const char *Path) {
  const TechParams Tech = TechParams::cgo45nm();
  const ThistleOptions Dataflow =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);
  Problem R5 = makeConvProblem(resnet18Layers()[4]);
  const RoundingRecord Records[] = {
      measureRecord("resnet5_dataflow",
                    [&](unsigned Threads) {
                      ThistleOptions O = Dataflow;
                      O.Threads = Threads;
                      return optimizeLayer(R5, eyerissArch(), Tech, O)
                          .Stats.CandidatesEvaluated;
                    }),
      measureRecord("resnet18_network_dataflow", [&](unsigned Threads) {
        NetworkOptions O;
        O.Layer = Dataflow;
        O.Layer.Threads = Threads;
        NetworkResult R =
            optimizeNetwork(resnet18Layers(), eyerissArch(), Tech, O);
        std::size_t Candidates = 0;
        for (const NetworkLayerResult &L : R.Layers)
          if (!L.Deduplicated)
            Candidates += L.Result.Stats.CandidatesEvaluated;
        return Candidates;
      })};

  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F,
               "{\n"
               "  \"bench\": \"ablation_rounding\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"timing\": \"min_of_%u\",\n"
               "  \"runs\": {\n",
               ThreadPool::defaultWorkerCount(), RecordReps);
  for (std::size_t I = 0; I < std::size(Records); ++I) {
    const RoundingRecord &R = Records[I];
    const double NsPerCandidate =
        R.Candidates ? R.Seconds1 * 1e9 / static_cast<double>(R.Candidates)
                     : 0.0;
    std::fprintf(F,
                 "    \"%s\": {\n"
                 "      \"candidates\": %zu,\n"
                 "      \"seconds_1t\": %.4f,\n"
                 "      \"seconds_nt\": %.4f,\n"
                 "      \"ns_per_candidate\": %.0f\n"
                 "    }%s\n",
                 R.Name, R.Candidates, R.Seconds1, R.SecondsN, NsPerCandidate,
                 I + 1 < std::size(Records) ? "," : "");
    std::printf("%-26s %zu candidates, %8.4f s (1 worker), %8.4f s (%u "
                "workers), %.0f ns/candidate\n",
                R.Name, R.Candidates, R.Seconds1, R.SecondsN,
                ThreadPool::defaultWorkerCount(), NsPerCandidate);
  }
  std::fprintf(F, "  }\n}\n");
  std::fclose(F);
  std::printf("\nwrote %s\n\n", Path);
}

void timeRoundingN(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  ThistleOptions O =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);
  O.Rounding.NumCandidates = static_cast<unsigned>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(
        optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O));
}
BENCHMARK(timeRoundingN)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Ablation: rounding candidates",
              "Integerization width n (paper section IV: N closest powers "
              "of two, n closest divisors)");
  printRoundingAblation();
  writeRoundingRecord("BENCH_rounding.json");
  return runTimings(Argc, Argv);
}
