//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//

#include "Workloads.h"

#include "Trace.h"

#include "multilevel/Hierarchy.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "thistle/ServeEngine.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <random>
#include <sys/resource.h>
#include <thread>

using namespace thistle;

namespace perfbench {

double cpuSeconds() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<std::size_t>(Rank, 1)) - 1];
}

namespace {

/// Key of a layer's shape: every field a result can depend on.
std::string shapeKey(const ConvLayer &L) {
  std::string K;
  for (std::int64_t V : {L.N, L.K, L.C, L.Hin, L.Win, L.R, L.S, L.StrideX,
                         L.StrideY, L.DilationX, L.DilationY, L.Groups})
    K += std::to_string(V) + ",";
  return K + (L.Transposed ? "t," : "d,") + paddingName(L.Padding);
}

/// A chosen design's modelled cost.
struct Modelled {
  double EnergyPj = 0.0, Cycles = 0.0, Macs = 0.0;
};

/// Adds \p Parts to the pass totals in key order, so the sums do not
/// depend on the order the seed put the operations in.
void addModelled(const std::map<std::string, Modelled> &Parts,
                 PassResult &P) {
  for (const auto &[Key, M] : Parts) {
    P.EnergyPj += M.EnergyPj;
    P.Cycles += M.Cycles;
    P.Macs += M.Macs;
  }
}

/// The lazy set-up every workload pays before its first operation: one
/// small, capped dataflow sweep, which initializes the evaluator registry
/// and the solver's state. It runs on one thread, so its time does not
/// hinge on how fast idle workers wake. Timed with the rest of setup_s;
/// its result is not used.
void warmUp() {
  ConvLayer L;
  L.Name = "warm-up";
  L.K = L.C = 8;
  L.Hin = L.Win = 4;
  L.R = L.S = 1;
  ThistleOptions O;
  O.Threads = 1;
  O.MaxPermClassPairs = 8;
  O.Rounding.MaxMappingCandidates = 64;
  optimizeLayer(makeConvProblem(L), eyerissArch(), TechParams::cgo45nm(), O);
  costEvaluator("maestro");
}

/// Network workloads: dataflow-nets runs the four network tables on
/// Eyeriss; codesign-draw co-designs one architecture for two ResNet-18
/// shapes under the Eyeriss area.
class NetworkWorkload : public Workload {
public:
  NetworkWorkload(const Config &C, bool CoDesign)
      : Cfg(C), CoDesign(CoDesign) {}

  void setup() override {
    Tech = TechParams::cgo45nm();
    Arch = eyerissArch();
    Budget = CoDesign ? eyerissAreaUm2(Tech) : 0.0;
    std::mt19937_64 Rng(Cfg.Seed);
    Ops.clear();
    if (CoDesign) {
      // A fixed draw, so every seed measures the same work; the seed
      // only permutes the order the layers are listed in.
      const std::vector<ConvLayer> Table = resnet18Layers();
      std::vector<std::string> Drawn;
      for (std::size_t I : DrawnShapes)
        Drawn.push_back(shapeKey(Table[I]));
      NetOp Op{"draw", {}};
      for (const ConvLayer &L : resnet18NetworkLayers())
        if (std::find(Drawn.begin(), Drawn.end(), shapeKey(L)) != Drawn.end())
          Op.Layers.push_back(L);
      std::shuffle(Op.Layers.begin(), Op.Layers.end(), Rng);
      Ops.push_back(std::move(Op));
    } else {
      Ops = {{"resnet18", resnet18NetworkLayers()},
             {"yolo9000", yolo9000NetworkLayers()},
             {"mobilenetv2", mobilenetV2NetworkLayers()},
             {"dcgan", dcganNetworkLayers()}};
      std::shuffle(Ops.begin(), Ops.end(), Rng);
    }
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
    warmUp();
  }

  void teardown() override { Pool.reset(); }

  PassResult run(Gate &G) override {
    PassResult P;
    std::vector<NetworkResult> Results;
    Results.reserve(Ops.size());
    const double W0 = wallSeconds(), C0 = cpuSeconds();
    for (const NetOp &Op : Ops) {
      trace::beginOp();
      GpSolutionCache Cache;
      NetworkOptions NO;
      NO.Layer.Mode =
          CoDesign ? DesignMode::CoDesign : DesignMode::DataflowOnly;
      NO.Layer.Threads = Cfg.Threads;
      NO.Pool = Pool.get();
      NO.Cache = &Cache;
      Results.push_back(optimizeNetwork(Op.Layers, Arch, Tech, NO, Budget));
    }
    P.WallS = wallSeconds() - W0;
    P.CpuS = cpuSeconds() - C0;

    double Layers = 0, Shapes = 0, Macs = 0, Tasks = 0, Solved = 0,
           Infeasible = 0, Candidates = 0, Hits = 0, Misses = 0, Warm = 0;
    std::map<std::string, Modelled> Parts;
    for (std::size_t I = 0; I < Ops.size(); ++I) {
      const NetworkResult &R = Results[I];
      const std::string Key =
          std::string(CoDesign ? "codesign-draw/" : "dataflow-nets/") +
          Ops[I].Key;
      std::string Why;
      if (!R.InputStatus.isOk())
        Why = Key + ": " + R.InputStatus.toString();
      else if (!R.Found)
        Why = Key + ": no design for every layer";
      else
        Why = G.check(Key, canonicalNetwork(R));
      for (std::size_t L = 0; Why.empty() && L < R.Layers.size(); ++L) {
        const NetworkLayerResult &LR = R.Layers[L];
        if (LR.Deduplicated)
          continue;
        std::string Bad = rescoreClassic(
            makeConvProblem(Ops[I].Layers[L]), LR.Result.Arch, LR.Result.Map,
            LR.Result.Eval, Tech, Budget);
        if (!Bad.empty())
          Why = Key + "/" + LR.Name + ": " + Bad;
      }
      ++P.Attempted;
      if (!Why.empty())
        P.fail(Why);

      for (std::size_t L = 0; L < R.Layers.size(); ++L)
        Parts[Ops[I].Key + "/" + R.Layers[L].Name] = {
            R.Layers[L].Result.Eval.EnergyPj, R.Layers[L].Result.Eval.Cycles,
            static_cast<double>(Ops[I].Layers[L].numMacs())};
      Layers += R.Stats.LayersTotal;
      Shapes += R.Stats.UniqueShapes;
      Macs += static_cast<double>(R.Totals.Macs);
      Tasks += R.Stats.PairsPlanned;
      Solved += R.Stats.PairsSolved;
      Infeasible += R.Report.Infeasible;
      Candidates += R.Stats.ArchCandidates;
      Hits += static_cast<double>(R.Stats.CacheHits);
      Misses += static_cast<double>(R.Stats.CacheMisses);
      Warm += static_cast<double>(R.Stats.CacheWarmStarts);
    }
    addModelled(Parts, P);
    P.Work = {{"ops", static_cast<double>(Ops.size())},
              {"layers", Layers},
              {"unique_shapes", Shapes},
              {"macs", Macs},
              {"pair_tasks", Tasks},
              {"pairs_solved", Solved},
              {"pairs_infeasible", Infeasible}};
    const trace::Collected T = trace::collect();
    P.Layer = {{"network.arch_candidates", Candidates},
               {"network.phase2_tasks",
                Tasks - static_cast<double>(T.PlannedTasks)},
               {"network.phase1_s", trace::pairUnionSeconds(T.Pairs, 1)},
               {"network.phase2_s", trace::pairUnionSeconds(T.Pairs, 2)},
               {"cache.hits", Hits},
               {"cache.misses", Misses},
               {"cache.warm_starts", Warm}};
    return P;
  }

private:
  struct NetOp {
    std::string Key;
    std::vector<ConvLayer> Layers;
  };
  /// Table II indices of the codesign-draw shapes (resnet-2 and resnet-5).
  static constexpr std::size_t DrawnShapes[] = {1, 4};

  Config Cfg;
  bool CoDesign;
  TechParams Tech;
  ArchConfig Arch;
  double Budget = 0.0;
  std::vector<NetOp> Ops;
  std::unique_ptr<ThreadPool> Pool;
};

/// serve-mix: four closed-loop clients drive one in-process ServeEngine
/// with a seeded stream in which every distinct dataflow query is issued
/// once cold and then repeated hot. Each set-up makes a fresh engine on a
/// fresh cache directory.
class ServeWorkload : public Workload {
public:
  explicit ServeWorkload(const Config &C) : Cfg(C) {}
  ~ServeWorkload() override { teardown(); }

  void setup() override {
    buildQueries();
    buildStream();
    Dir = Cfg.WorkDir + "/serve-cache";
    std::filesystem::remove_all(Dir);
    ServeOptions SO;
    SO.CacheDir = Dir;
    SO.Threads = Cfg.Threads;
    Engine = std::make_unique<ServeEngine>(SO);
    Status St = Engine->start();
    StartError = St.isOk() ? "" : St.toString();
    warmUp();
  }

  void teardown() override {
    Engine.reset();
    if (!Dir.empty())
      std::filesystem::remove_all(Dir);
    // Hand the engine's freed memory back, so the next pass's engine does
    // not add to peak_rss_mb what a fragmented heap could not reuse.
    malloc_trim(0);
  }

  PassResult run(Gate &G) override {
    PassResult P;
    if (!StartError.empty()) {
      P.Attempted = 1;
      P.fail("serve engine did not start: " + StartError);
      return P;
    }
    const std::size_t N = Stream.size();
    std::vector<std::string> Replies(N);
    std::vector<double> LatencyMs(N);
    std::atomic<std::size_t> Next{0};
    auto Client = [&] {
      for (std::size_t I; (I = Next++) < N;) {
        const double T0 = wallSeconds();
        Replies[I] = Engine->handleLine(Queries[Stream[I]].Line);
        LatencyMs[I] = (wallSeconds() - T0) * 1e3;
      }
    };
    const double W0 = wallSeconds(), C0 = cpuSeconds();
    {
      std::vector<std::jthread> Clients;
      for (unsigned C = 0; C < NumClients; ++C)
        Clients.emplace_back(Client);
    }
    const double S0 = wallSeconds();
    Engine->shutdown();
    const double CompactS = wallSeconds() - S0;
    P.WallS = wallSeconds() - W0;
    P.CpuS = cpuSeconds() - C0;

    std::vector<double> Hot, Cold, Depth;
    std::vector<std::string> FirstReport(Queries.size());
    std::map<std::string, Modelled> Parts;
    for (std::size_t I = 0; I < N; ++I) {
      const Query &Q = Queries[Stream[I]];
      const bool IsCold = FirstReport[Stream[I]].empty();
      (IsCold ? Cold : Hot).push_back(LatencyMs[I]);
      ++P.Attempted;
      const std::string &R = Replies[I];
      const std::size_t Cut = R.rfind(",\"server\":");
      if (Cut == std::string::npos) {
        P.fail(Q.Key + ": reply without a server trailer: " + R);
        continue;
      }
      const std::string Prefix = R.substr(0, Cut) + "}";
      Expected<json::JsonValue> Server =
          json::parseJson(R.substr(Cut + 10, R.size() - Cut - 11));
      if (Server)
        if (const json::JsonValue *D = Server.value().find("queue_depth"))
          Depth.push_back(D->number());
      if (!IsCold) {
        if (Prefix != FirstReport[Stream[I]])
          P.fail(Q.Key + ": hot reply differs from the cold one");
        continue;
      }
      FirstReport[Stream[I]] = Prefix;
      std::string Canonical;
      char Index[24];
      std::snprintf(Index, sizeof(Index), "%08zu", Stream[I]);
      Modelled &M = Parts[Index];
      M.Macs = static_cast<double>(Q.Macs);
      if (std::string Bad = readReport(Prefix, Canonical, M); !Bad.empty())
        P.fail(Q.Key + ": " + Bad);
      else if (std::string Bad = G.check("serve-mix/" + Q.Key, Canonical);
               !Bad.empty())
        P.fail(Bad);
    }
    addModelled(Parts, P);

    const ServeStats S = Engine->stats();
    double Macs = 0;
    for (const Query &Q : Queries)
      Macs += static_cast<double>(Q.Macs);
    P.Work = {{"requests", static_cast<double>(N)},
              {"cold_queries", static_cast<double>(Cold.size())},
              {"hot_requests", static_cast<double>(Hot.size())},
              {"unique_shapes", static_cast<double>(UniqueShapes)},
              {"macs", Macs}};
    P.Layer = {
        {"serve.requests", static_cast<double>(S.Requests)},
        {"serve.dedup", static_cast<double>(S.Deduplicated)},
        {"serve.errors", static_cast<double>(S.Errors)},
        {"serve.queue_depth_p50", percentile(Depth, 0.5)},
        {"serve.queue_depth_max", percentile(Depth, 1.0)},
        {"serve.qps", static_cast<double>(N) / P.WallS},
        {"serve.hot_p50_ms", percentile(Hot, 0.5)},
        {"serve.hot_p99_ms", percentile(Hot, 0.99)},
        {"serve.cold_p50_ms", percentile(Cold, 0.5)},
        {"serve.cold_p90_ms", percentile(Cold, 0.9)},
        {"cache.hits", static_cast<double>(S.CacheHits)},
        {"cache.misses", static_cast<double>(S.CacheMisses)},
        {"cache.warm_starts", static_cast<double>(S.CacheWarmStarts)},
        // Each miss on a fresh cache inserts one entry, and every insert
        // appends one journal record.
        {"persist.journal_records", static_cast<double>(S.CacheMisses)},
        {"persist.compact_s", CompactS}};
    return P;
  }

private:
  struct Query {
    std::string Key;  ///< "<layer>:<objective>".
    std::string Line; ///< The request line.
    std::int64_t Macs = 0;
  };
  static constexpr unsigned NumClients = 4;
  static constexpr std::size_t HotRequests = 1000;

  void buildQueries() {
    Queries.clear();
    std::vector<std::string> Seen;
    for (const std::vector<ConvLayer> &Table :
         {resnet18Layers(), yolo9000Layers(), mobilenetV2Layers(),
          dcganLayers()})
      for (const ConvLayer &L : Table) {
        if (std::find(Seen.begin(), Seen.end(), shapeKey(L)) != Seen.end())
          continue;
        Seen.push_back(shapeKey(L));
        const std::string Layer =
            "{\"dims\":[" + std::to_string(L.K) + "," + std::to_string(L.C) +
            "," + std::to_string(L.Hin) + "," + std::to_string(L.Win) + "," +
            std::to_string(L.R) + "," + std::to_string(L.S) + "," +
            std::to_string(L.StrideX) + "," + std::to_string(L.DilationX) +
            "],\"groups\":" + std::to_string(L.Groups) +
            ",\"transposed\":" + (L.Transposed ? "true" : "false") +
            ",\"padding\":\"" + paddingName(L.Padding) + "\"}";
        // One query per shape, the objectives alternating in table order:
        // both objectives are served, and a pass stays short enough that
        // a run holds several.
        const char *Objective = Queries.size() % 2 ? "delay" : "energy";
        Queries.push_back(
            {L.Name + ":" + Objective,
             "{\"schema\":\"thistle-serve/1\",\"id\":" +
                 std::to_string(Queries.size()) +
                 ",\"query\":{\"workload\":{\"layer\":" + Layer +
                 "},\"objective\":\"" + Objective + "\"}}",
             L.numMacs()});
      }
    UniqueShapes = Seen.size();
  }

  /// The request stream: each query once, cold, in a seeded order, and
  /// HotRequests repeats of queries issued earlier, spread at seeded
  /// positions after the first request.
  void buildStream() {
    std::mt19937_64 Rng(Cfg.Seed);
    std::vector<std::size_t> ColdOrder(Queries.size());
    for (std::size_t I = 0; I < ColdOrder.size(); ++I)
      ColdOrder[I] = I;
    std::shuffle(ColdOrder.begin(), ColdOrder.end(), Rng);
    std::vector<bool> IsCold(ColdOrder.size() - 1, true);
    IsCold.resize(IsCold.size() + HotRequests, false);
    std::shuffle(IsCold.begin(), IsCold.end(), Rng);
    Stream = {ColdOrder[0]};
    std::size_t Issued = 1;
    for (bool C : IsCold) {
      if (C) {
        Stream.push_back(ColdOrder[Issued++]);
      } else {
        std::uniform_int_distribution<std::size_t> Pick(0, Issued - 1);
        Stream.push_back(ColdOrder[Pick(Rng)]);
      }
    }
  }

  /// Reads the canonical text of a reply's deterministic prefix: status,
  /// result and per-task outcome counts, and its modelled cost into \p M.
  static std::string readReport(const std::string &Prefix,
                                std::string &Canonical, Modelled &M) {
    Expected<json::JsonValue> Env = json::parseJson(Prefix);
    if (!Env)
      return "unparsable reply: " + Env.status().toString();
    const json::JsonValue *Status = Env.value().find("status");
    if (!Status || !Status->isString() || Status->string() != "ok")
      return "reply status is not ok: " + Prefix;
    const json::JsonValue *Report = Env.value().find("report");
    const json::JsonValue *Result = Report ? Report->find("result") : nullptr;
    const json::JsonValue *Sweep = Report ? Report->find("sweep") : nullptr;
    if (!Result || !Sweep)
      return "reply without result or sweep: " + Prefix;
    char Buf[64];
    for (const char *F : {"found", "energy_pj", "cycles"}) {
      const json::JsonValue *V = Result->find(F);
      if (!V)
        return std::string("reply result without ") + F;
      std::snprintf(Buf, sizeof(Buf), "%s=%.17g ", F,
                    V->isBool() ? (V->boolean() ? 1.0 : 0.0) : V->number());
      Canonical += Buf;
    }
    for (const char *F :
         {"solved", "degraded", "infeasible", "failed", "skipped"}) {
      const json::JsonValue *V = Sweep->find(F);
      if (!V)
        return std::string("reply sweep without ") + F;
      std::snprintf(Buf, sizeof(Buf), "%s=%.17g ", F, V->number());
      Canonical += Buf;
    }
    M.EnergyPj = Result->find("energy_pj")->number();
    M.Cycles = Result->find("cycles")->number();
    return "";
  }

  Config Cfg;
  std::vector<Query> Queries;
  std::size_t UniqueShapes = 0;
  std::vector<std::size_t> Stream;
  std::string Dir, StartError;
  std::unique_ptr<ServeEngine> Engine;
};

/// spad4-layers: the hierarchy-generic GP (optimizeHierarchy) and the
/// stochastic mapper (searchMultiMappings) on the 4-level scratchpad
/// machine, for the 12 ResNet-18 shapes.
class Spad4Workload : public Workload {
public:
  explicit Spad4Workload(const Config &C) : Cfg(C) {}

  void setup() override {
    Tech = TechParams::cgo45nm();
    const ArchConfig Arch = eyerissArch();
    H = Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/512,
                                  Arch.SramWords);
    const std::vector<ConvLayer> Network = resnet18NetworkLayers();
    Shapes.clear();
    for (const ConvLayer &L : resnet18Layers()) {
      Shape S{L, makeConvProblem(L), 0};
      for (const ConvLayer &N : Network)
        S.Multiplicity += shapeKey(N) == shapeKey(L);
      Shapes.push_back(std::move(S));
    }
    std::mt19937_64 Rng(Cfg.Seed);
    std::shuffle(Shapes.begin(), Shapes.end(), Rng);
    warmUp();
  }

  PassResult run(Gate &G) override {
    PassResult P;
    std::vector<MultiResult> Gp;
    std::vector<MultiMapperResult> Mapped;
    double GpS = 0, MapperS = 0;
    const double W0 = wallSeconds(), C0 = cpuSeconds();
    for (const Shape &S : Shapes) {
      MultiOptions MO;
      MO.Threads = Cfg.Threads;
      MO.Tech = Tech;
      const double T0 = wallSeconds();
      Gp.push_back(optimizeHierarchy(S.Prob, H, MO));
      MapperOptions MapOpt;
      MapOpt.Threads = Cfg.Threads;
      MapOpt.MaxTrials = 4000;
      MapOpt.VictoryCondition = 1000;
      const double T1 = wallSeconds();
      Mapped.push_back(searchMultiMappings(S.Prob, H, MapOpt));
      GpS += T1 - T0;
      MapperS += wallSeconds() - T1;
    }
    P.WallS = wallSeconds() - W0;
    P.CpuS = cpuSeconds() - C0;

    double Macs = 0, Combos = 0, Infeasible = 0, Trials = 0, Legal = 0;
    std::map<std::string, Modelled> Parts;
    for (std::size_t I = 0; I < Shapes.size(); ++I) {
      const Shape &S = Shapes[I];
      const MultiResult &R = Gp[I];
      const MultiMapperResult &M = Mapped[I];
      const std::string Key = "spad4-layers/" + S.Layer.Name;
      for (int Which = 0; Which < 2; ++Which) {
        const bool IsGp = Which == 0;
        std::string Why;
        if (IsGp ? !R.Found : !M.Found)
          Why = Key + (IsGp ? ":gp" : ":mapper") + ": no design";
        else if (IsGp)
          Why = G.check(Key + ":gp", canonicalMulti(R));
        else
          Why = G.check(Key + ":mapper", canonicalMapper(M));
        if (Why.empty()) {
          std::string Bad = IsGp ? rescoreMulti(S.Prob, H, R.Map, R.Eval)
                                 : rescoreMulti(S.Prob, H, M.Best, M.BestEval);
          if (!Bad.empty())
            Why = Key + (IsGp ? ":gp: " : ":mapper: ") + Bad;
        }
        ++P.Attempted;
        if (!Why.empty())
          P.fail(Why);
      }
      // The chosen design of a shape is the better of the two.
      const MultiEvalResult &Best =
          R.Found && (!M.Found || R.Eval.EnergyPj <= M.BestEval.EnergyPj)
              ? R.Eval
              : M.BestEval;
      const double Mult = static_cast<double>(S.Multiplicity);
      Parts[S.Layer.Name] = {Mult * Best.EnergyPj, Mult * Best.Cycles,
                             Mult * static_cast<double>(S.Layer.numMacs())};
      Macs += static_cast<double>(S.Layer.numMacs());
      Combos += R.Report.total();
      Infeasible += R.GpInfeasible;
      Trials += M.Trials;
      Legal += M.LegalTrials;
    }
    addModelled(Parts, P);
    P.Work = {{"ops", static_cast<double>(2 * Shapes.size())},
              {"unique_shapes", static_cast<double>(Shapes.size())},
              {"macs", Macs},
              {"combos", Combos},
              {"mapper_trials", Trials}};
    P.Layer = {{"multigp.combos", Combos},
               {"multigp.infeasible", Infeasible},
               {"multigp.busy_s", GpS},
               {"mapper.trials", Trials},
               {"mapper.legal_ratio", Trials > 0 ? Legal / Trials : 0.0},
               {"mapper.busy_s", MapperS}};
    return P;
  }

private:
  struct Shape {
    ConvLayer Layer;
    Problem Prob;
    std::size_t Multiplicity = 0;
  };
  Config Cfg;
  TechParams Tech;
  Hierarchy H;
  std::vector<Shape> Shapes;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const Config &C) {
  if (C.Workload == "dataflow-nets")
    return std::make_unique<NetworkWorkload>(C, /*CoDesign=*/false);
  if (C.Workload == "codesign-draw")
    return std::make_unique<NetworkWorkload>(C, /*CoDesign=*/true);
  if (C.Workload == "serve-mix")
    return std::make_unique<ServeWorkload>(C);
  if (C.Workload == "spad4-layers")
    return std::make_unique<Spad4Workload>(C);
  return nullptr;
}

} // namespace perfbench
