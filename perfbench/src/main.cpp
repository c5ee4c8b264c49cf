//===- perfbench/src/main.cpp - The Thistle benchmark harness -------------===//
//
// perfbench --workload W --seed N --seconds S --trace 0|1
//           [--threads T] [--expected FILE] [--record] [--perturb-digest]
//           [--workdir DIR] [--out FILE]
//
// Runs whole passes until the next one would end more than half a pass
// past --seconds (at least one; with --trace 1 at least one untraced and
// one traced, alternating), setting the workload up SetupsPerPass times
// before each (setup_s is the median of all set-ups).
// Prints the host record, one line per pass with the exact work counts
// beside its timings, a metric table, and as the last line the JSON
// result: end-to-end metrics untraced, per-layer metrics with --trace 1.
// --out appends the full record (host, work counts, every metric) as one
// JSON line, for compare.py.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "linalg/Kernels.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

namespace {

struct Spec {
  const char *Name;
  const char *Unit;
};

const Spec EndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},     {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},    {"pj_per_mac", "pJ/MAC"},
    {"mcycles", "Mcycles"},
};

/// Every per-layer metric, printed by every workload (0 where the layer
/// sees no traffic).
const Spec PerLayer[] = {
    {"network.phase1_s", "s"},
    {"network.phase2_s", "s"},
    {"network.phase2_tasks", "count"},
    {"network.arch_candidates", "count"},
    {"sweep.tasks", "count"},
    {"sweep.task_busy_s", "s"},
    {"sweep.task_p50_ms", "ms"},
    {"sweep.task_p99_ms", "ms"},
    {"sweep.parallel_eff", "ratio"},
    {"gp_build.calls", "count"},
    {"gp_build.busy_s", "s"},
    {"gp_build.vars_mean", "count"},
    {"gp_build.terms_mean", "count"},
    {"solver.solves", "count"},
    {"solver.busy_s", "s"},
    {"solver.converged", "count"},
    {"solver.infeasible", "count"},
    {"solver.infeasible_busy_s", "s"},
    {"solver.newton_steps", "count"},
    {"solver.newton_per_infeasible", "count"},
    {"solver.newton_per_converged", "count"},
    {"solver.fallback_solves", "count"},
    {"solver.warm_solves", "count"},
    {"solver.useful_ratio", "ratio"},
    {"round.calls", "count"},
    {"round.busy_s", "s"},
    {"round.candidates", "count"},
    {"round.candidates_per_design", "count"},
    {"evaluator.evals", "count"},
    {"evaluator.busy_s", "s"},
    {"evaluator.ns_per_eval", "ns"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.warm_starts", "count"},
    {"cache.hit_ratio", "ratio"},
    {"persist.journal_records", "count"},
    {"persist.compact_s", "s"},
    {"serve.requests", "count"},
    {"serve.dedup", "count"},
    {"serve.errors", "count"},
    {"serve.queue_depth_p50", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.qps", "1/s"},
    {"serve.hot_p50_ms", "ms"},
    {"serve.hot_p99_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.cold_p90_ms", "ms"},
    {"multigp.combos", "count"},
    {"multigp.infeasible", "count"},
    {"multigp.busy_s", "s"},
    {"mapper.trials", "count"},
    {"mapper.legal_ratio", "ratio"},
    {"mapper.busy_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.capacity_s", "s"},
    {"trace.plan_self_s", "s"},
    {"trace.task_self_s", "s"},
    {"trace.attributed_s", "s"},
    {"trace.unattributed_s", "s"},
};

constexpr unsigned SetupsPerPass = 15;

struct Options {
  Config Cfg;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Expected = "perfbench/expected_digests.tsv";
  bool Record = false, Perturb = false;
  std::string Out;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dataflow-nets|codesign-draw|serve-mix|spad4-layers --seed N "
               "--seconds S --trace 0|1 [--threads T] [--expected FILE] "
               "[--record] [--perturb-digest] [--workdir DIR] [--out FILE]\n",
               Why);
  std::exit(2);
}

unsigned long long number(const char *Flag, const char *Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End || Text[0] == '-')
    usage((std::string(Flag) + " wants a non-negative integer").c_str());
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage((A + " needs a value").c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      O.Cfg.Workload = value();
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Cfg.Seed = number("--seed", value());
    } else if (A == "--seconds") {
      O.Seconds = static_cast<double>(number("--seconds", value()));
    } else if (A == "--trace") {
      O.Trace = number("--trace", value()) != 0;
    } else if (A == "--threads") {
      O.Cfg.Threads = static_cast<unsigned>(number("--threads", value()));
      if (O.Cfg.Threads == 0)
        usage("--threads must be at least 1");
    } else if (A == "--expected") {
      O.Expected = value();
    } else if (A == "--record") {
      O.Record = true;
    } else if (A == "--perturb-digest") {
      O.Perturb = true;
    } else if (A == "--workdir") {
      O.Cfg.WorkDir = value();
    } else if (A == "--out") {
      O.Out = value();
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return O;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

double lookup(const std::vector<Metric> &M, const std::string &Name) {
  for (const Metric &X : M)
    if (X.Name == Name)
      return X.Value;
  return 0.0;
}

/// The exact work counts the wrappers saw in one pass, beside the
/// workload's own.
std::vector<Metric> traceWork(const trace::Collected &C) {
  auto D = [](std::uint64_t V) { return static_cast<double>(V); };
  return {{"gp_builds", D(C.GpBuilds)},
          {"gp_vars", D(C.GpVars)},
          {"gp_terms", D(C.GpTerms)},
          {"solves", D(C.Solves)},
          {"solves_infeasible", D(C.Infeasible)},
          {"warm_solves", D(C.WarmSolves)},
          {"newton_steps", D(C.NewtonSteps)},
          {"roundings", D(C.Roundings)},
          {"round_candidates", D(C.Candidates)},
          {"evals", D(C.Evals)}};
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> layerMetrics(const PassResult &P,
                                 const trace::Collected &C,
                                 unsigned Threads) {
  using trace::Layer;
  auto S = [&](Layer L) {
    return 1e-9 * static_cast<double>(
                      C.Layers[static_cast<unsigned>(L)].SelfNs);
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto D = [](std::uint64_t V) { return static_cast<double>(V); };

  std::vector<double> TaskMs;
  for (const trace::PairSpan &Pair : C.Pairs)
    TaskMs.push_back(1e-6 * static_cast<double>(Pair.EndNs - Pair.StartNs));
  const double TaskBusy =
      1e-9 * static_cast<double>(
                 C.Layers[static_cast<unsigned>(Layer::PairTask)].InclNs);
  const double Capacity = P.WallS * Threads;
  double Attributed = 0;
  for (unsigned L = 0; L < trace::NumLayers; ++L)
    Attributed += 1e-9 * static_cast<double>(C.Layers[L].SelfNs);
  const double Hits = lookup(P.Layer, "cache.hits");

  std::vector<Metric> M = P.Layer;
  std::vector<Metric> Derived = {
      {"sweep.tasks", D(C.Pairs.size())},
      {"sweep.task_busy_s", TaskBusy},
      {"sweep.task_p50_ms", percentile(TaskMs, 0.5)},
      {"sweep.task_p99_ms", percentile(TaskMs, 0.99)},
      {"sweep.parallel_eff",
       Ratio(TaskBusy, trace::pairUnionSeconds(C.Pairs) * Threads)},
      {"gp_build.calls", D(C.GpBuilds)},
      {"gp_build.busy_s", S(Layer::GpBuild)},
      {"gp_build.vars_mean", Ratio(D(C.GpVars), D(C.GpBuilds))},
      {"gp_build.terms_mean", Ratio(D(C.GpTerms), D(C.GpBuilds))},
      {"solver.solves", D(C.Solves)},
      {"solver.busy_s", S(Layer::Solver)},
      {"solver.converged", D(C.Converged)},
      {"solver.infeasible", D(C.Infeasible)},
      {"solver.infeasible_busy_s", 1e-9 * D(C.InfeasibleNs)},
      {"solver.newton_steps", D(C.NewtonSteps)},
      {"solver.newton_per_infeasible",
       Ratio(D(C.NewtonInfeasible), D(C.Infeasible))},
      {"solver.newton_per_converged",
       Ratio(D(C.NewtonConverged), D(C.Converged))},
      {"solver.fallback_solves", D(C.FallbackSolves)},
      {"solver.warm_solves", D(C.WarmSolves)},
      {"solver.useful_ratio", Ratio(D(C.Useful), D(C.Solves))},
      {"round.calls", D(C.Roundings)},
      {"round.busy_s", S(Layer::Round)},
      {"round.candidates", D(C.Candidates)},
      {"round.candidates_per_design",
       Ratio(D(C.Candidates), D(C.Roundings))},
      {"evaluator.evals", D(C.Evals)},
      {"evaluator.busy_s", S(Layer::Evaluator)},
      {"evaluator.ns_per_eval",
       Ratio(1e9 * S(Layer::Evaluator), D(C.Evals))},
      {"cache.hit_ratio",
       Ratio(Hits, Hits + lookup(P.Layer, "cache.misses"))},
      {"trace.wall_s", P.WallS},
      {"trace.capacity_s", Capacity},
      {"trace.plan_self_s", S(Layer::Plan)},
      {"trace.task_self_s", S(Layer::PairTask)},
      {"trace.attributed_s", Attributed},
      {"trace.unattributed_s", Capacity - Attributed},
  };
  M.insert(M.end(), Derived.begin(), Derived.end());
  return M;
}

std::string hostRecord(const Options &O) {
  std::string R = "{";
  auto Field = [&](const char *K, const std::string &V, bool Quote) {
    R += (R.size() > 1 ? "," : "") + jsonString(K) + ":" +
         (Quote ? jsonString(V) : V);
  };
  Field("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  Field("linalg_backend", thistle::kernels::backendName(), true);
  Field("build_type", PERFBENCH_BUILD_TYPE, true);
#ifdef NDEBUG
  Field("assertions", "false", false);
#else
  Field("assertions", "true", false);
#endif
  Field("telemetry", thistle::telemetry::compiledIn() ? "true" : "false",
        false);
  Field("compiler", "gcc " __VERSION__, true);
  Field("pool_threads", std::to_string(O.Cfg.Threads), false);
  return R + "}";
}

void printPass(std::size_t I, bool Traced, const PassResult &P,
               const std::vector<Metric> &Work) {
  std::printf("pass %zu%s: wall %.3f s, cpu %.3f s |", I,
              Traced ? " (traced)" : "", P.WallS, P.CpuS);
  for (const Metric &W : Work)
    std::printf(" %s=%.0f", W.Name.c_str(), W.Value);
  std::printf(" | %llu/%llu ops failed\n",
              static_cast<unsigned long long>(P.Failed),
              static_cast<unsigned long long>(P.Attempted));
  for (const std::string &F : P.Failures)
    std::printf("  FAILED %s\n", F.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.Cfg);
  if (!W)
    usage(("unknown workload " + O.Cfg.Workload).c_str());
  Gate G(O.Expected, O.Record, O.Perturb);
  if (std::string Error; !G.load(Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  std::filesystem::create_directories(O.Cfg.WorkDir);

  const std::string Host = hostRecord(O);
  std::printf("perfbench %s seed %llu, %g s, trace %d\nhost %s\n",
              O.Cfg.Workload.c_str(),
              static_cast<unsigned long long>(O.Cfg.Seed), O.Seconds,
              O.Trace ? 1 : 0, Host.c_str());

  std::vector<double> SetupS;
  // Passes: untraced ones give the end-to-end metrics; with --trace 1
  // traced passes alternate with them, so both see the same host load.
  std::vector<PassResult> Plain, Traced;
  std::vector<trace::Collected> TraceOf;
  std::vector<Metric> Work0;
  std::uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::string Inconsistent;
  std::vector<double> PassS;
  double PeakRssMb = 0.0;
  const double Start = wallSeconds();
  for (std::size_t I = 0;; ++I) {
    const bool TraceThis = O.Trace && I % 2 == 1;
    // Set-ups are measured before every pass, so setup_s samples the
    // host over the whole run as the passes do.
    for (unsigned R = 0; R < SetupsPerPass; ++R) {
      W->teardown();
      const double T0 = wallSeconds();
      W->setup();
      SetupS.push_back(wallSeconds() - T0);
    }
    trace::reset();
    trace::setEnabled(TraceThis);
    const double T0 = wallSeconds();
    PassResult P = W->run(G);
    trace::setEnabled(false);
    const trace::Collected C = trace::collect();
    PassS.push_back(wallSeconds() - T0);

    std::vector<Metric> Work = P.Work;
    for (const Metric &M : traceWork(C))
      Work.push_back(M);
    Work.push_back({"modelled_energy_pj", P.EnergyPj});
    Work.push_back({"modelled_cycles", P.Cycles});
    printPass(I, TraceThis, P, Work);
    if (I == 0) {
      // Peak memory of one set-up and pass: later passes would only add
      // what the heap failed to reuse, which varies with their number.
      struct rusage U;
      getrusage(RUSAGE_SELF, &U);
      PeakRssMb = static_cast<double>(U.ru_maxrss) / 1024.0;
      Work0 = Work;
    } else if (Inconsistent.empty()) {
      for (std::size_t K = 0; K < Work.size(); ++K)
        if (K >= Work0.size() || Work[K].Value != Work0[K].Value) {
          Inconsistent = "work count " + Work[K].Name +
                         " differs between passes";
          break;
        }
    }
    Attempted += P.Attempted;
    Failed += P.Failed;
    if (TraceThis) {
      Traced.push_back(std::move(P));
      TraceOf.push_back(C);
    } else {
      Plain.push_back(std::move(P));
    }

    // Stop when another pass would end past --seconds by more than half
    // a pass, so runs average --seconds whatever the pass length.
    const double Elapsed = wallSeconds() - Start;
    const bool Enough = !O.Trace || !Traced.empty();
    if (Enough && Elapsed + 0.5 * median(PassS) > O.Seconds)
      break;
  }
  if (!Inconsistent.empty()) {
    std::printf("FAILED %s\n", Inconsistent.c_str());
    Correct = false;
  }
  Correct = Correct && Failed == 0 && Attempted > 0;
  if (O.Record && !G.save()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.Expected.c_str());
    return 1;
  }

  std::vector<double> Walls, Cpus;
  for (const PassResult &P : Plain) {
    Walls.push_back(P.WallS);
    Cpus.push_back(P.CpuS);
  }
  const PassResult &First = Plain.front();
  std::vector<Metric> E2E = {
      {"setup_s", median(SetupS)},
      {"wall_s", median(Walls)},
      {"cpu_s", median(Cpus)},
      {"peak_rss_mb", PeakRssMb},
      {"pj_per_mac", First.Macs > 0 ? First.EnergyPj / First.Macs : 0.0},
      {"mcycles", First.Cycles * 1e-6},
  };

  std::vector<Metric> Layer;
  if (O.Trace) {
    // The traced pass with the median wall time.
    std::vector<std::size_t> Order(Traced.size());
    for (std::size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
      return Traced[A].WallS < Traced[B].WallS;
    });
    const std::size_t Mid = Order[(Order.size() - 1) / 2];
    std::vector<double> TracedWalls;
    for (const PassResult &P : Traced)
      TracedWalls.push_back(P.WallS);
    Layer = layerMetrics(Traced[Mid], TraceOf[Mid], O.Cfg.Threads);
    Layer.push_back(
        {"trace.overhead_s", median(TracedWalls) - median(Walls)});
  }

  std::printf("\n%-30s %16s  %s\n", "metric", "value", "unit");
  std::printf("%-30s %16.6g  %s\n", "error_rate",
              Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
              "ratio");
  for (const Spec &S : EndToEnd)
    std::printf("%-30s %16.6g  %s\n", S.Name, lookup(E2E, S.Name), S.Unit);
  if (O.Trace)
    for (const Spec &S : PerLayer)
      std::printf("%-30s %16.6g  %s\n", S.Name, lookup(Layer, S.Name),
                  S.Unit);
  std::printf("passes: %zu untraced, %zu traced; %zu set-ups\n",
              Plain.size(), Traced.size(), SetupS.size());

  std::string Metrics;
  auto Emit = [&](const Spec *Begin, const Spec *End,
                  const std::vector<Metric> &Values) {
    for (const Spec *S = Begin; S != End; ++S)
      Metrics += (Metrics.empty() ? "" : ",") + jsonString(S->Name) +
                 ":{\"value\":" + jsonNumber(lookup(Values, S->Name)) +
                 ",\"unit\":" + jsonString(S->Unit) + "}";
  };
  if (O.Trace)
    Emit(std::begin(PerLayer), std::end(PerLayer), Layer);
  else
    Emit(std::begin(EndToEnd), std::end(EndToEnd), E2E);

  if (!O.Out.empty()) {
    std::string All;
    auto Add = [&](const std::vector<Metric> &V) {
      for (const Metric &M : V)
        All += (All.empty() ? "" : ",") + jsonString(M.Name) + ":" +
               jsonNumber(M.Value);
    };
    Add(E2E);
    Add(Layer);
    std::string WorkJson;
    for (const Metric &M : Work0)
      WorkJson += (WorkJson.empty() ? "" : ",") + jsonString(M.Name) + ":" +
                  jsonNumber(M.Value);
    std::ofstream Out(O.Out, std::ios::app);
    Out << "{\"workload\":" << jsonString(O.Cfg.Workload)
        << ",\"seed\":" << O.Cfg.Seed << ",\"trace\":" << (O.Trace ? 1 : 0)
        << ",\"host\":" << Host << ",\"correct\":"
        << (Correct ? "true" : "false") << ",\"attempted\":" << Attempted
        << ",\"failed\":" << Failed << ",\"work\":{" << WorkJson
        << "},\"metrics\":{" << All << "}}\n";
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  W.reset();
  return 0;
}
