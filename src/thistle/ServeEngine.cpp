//===- thistle/ServeEngine.cpp - Long-lived co-design service -------------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "thistle/ServeEngine.h"

#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/Persist.h"
#include "support/Telemetry.h"
#include "thistle/Network.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <limits>
#include <utility>

using namespace thistle;
using json::JsonValue;

namespace {

constexpr const char *ServeSchema = "thistle-serve/1";

/// The stable status token of each thistle-opt exit code
/// (docs/SERVING.md mirrors docs/THISTLE_OPT.md).
const char *statusForExit(int Exit) {
  const char *const Names[] = {"ok", "degraded", "invalid", "no-design"};
  return Exit >= 0 && Exit < 4 ? Names[Exit] : "error";
}

} // namespace

/// One admitted query plus the slot its answer lands in. Query fields
/// are immutable after admission; the outcome fields are written by the
/// solver thread before Done flips, then only read.
struct ServeEngine::SolveJob {
  bool IsNetwork = false;
  ConvLayer Layer;                     ///< IsNetwork == false.
  std::string NetworkName;             ///< IsNetwork == true.
  std::vector<ConvLayer> NetworkLayers;
  DesignMode Mode = DesignMode::DataflowOnly;
  SearchObjective Objective = SearchObjective::Energy;
  unsigned Candidates = 0; ///< 0 = the rounding default.
  std::uint64_t DeadlineMs = 0;
  double AreaBudget = 0.0;
  ArchConfig Arch;
  /// Canonical dedup key over every result-relevant resolved parameter
  /// (including the deadline: a budget-limited solve may legitimately
  /// answer differently from an unlimited one, so they never share).
  std::string Key;

  std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
  int ExitCode = 0;
  std::string Error;           ///< Non-empty only for exit code 2.
  std::string CanonicalReport; ///< Empty for exit code 2.
  /// The solve's cache traffic (before/after counter deltas — exact,
  /// because solves are serialized on one thread). Attributed to the
  /// admitting request only; dedup joiners report zeros, so the sum
  /// across all responses equals the process totals.
  std::uint64_t DHits = 0, DMisses = 0, DEvict = 0;
};

namespace {

/// Parses the "workload" member into the job. Mirrors thistle-opt's
/// --layer/--resnet/--yolo/--network handling, including the workload
/// names that end up in the run report.
Status parseWorkload(const JsonValue &W, ServeEngine::SolveJob &Job) {
  if (!W.isObject())
    return Status::invalidArgument("\"workload\" must be an object");
  if (W.members().size() != 1)
    return Status::invalidArgument(
        "\"workload\" wants exactly one of layer/resnet/yolo/network");
  const auto &[Kind, V] = W.members().front();
  if (Kind == "layer") {
    // Two wire forms: the [K,C,H,W,R,S[,stride[,dilation]]] array, or an
    // object whose "dims" is that array plus the general-conv fields
    // ("groups", "transposed", "padding" — docs/WORKLOADS.md). Either way
    // the layer passes the same ConvLayer::validate() the CLI uses.
    const JsonValue *Dims = V.isObject() ? V.find("dims") : &V;
    if (!Dims)
      return Status::invalidArgument("\"layer\" object needs \"dims\"");
    // A non-array has no elements, which customLayer rejects.
    std::vector<std::int64_t> Values;
    for (const JsonValue &E : Dims->array()) {
      std::uint64_t N = 0;
      if (!E.asUint(N) || N < 1)
        return Status::invalidArgument(
            "\"layer\" dimensions must be positive integers");
      Values.push_back(static_cast<std::int64_t>(N));
    }
    Expected<ConvLayer> Custom = customLayer(Values);
    if (!Custom)
      return Custom.withContext("\"layer\"").status();
    Job.Layer = Custom.value();
    if (V.isObject()) {
      for (const auto &[LK, LV] : V.members()) {
        if (LK == "dims") {
          continue;
        } else if (LK == "groups") {
          std::uint64_t N = 0;
          if (!LV.asUint(N) || N < 1)
            return Status::invalidArgument(
                "\"layer.groups\" wants a positive integer");
          Job.Layer.Groups = static_cast<std::int64_t>(N);
        } else if (LK == "transposed") {
          if (!LV.isBool())
            return Status::invalidArgument(
                "\"layer.transposed\" wants a boolean");
          Job.Layer.Transposed = LV.boolean();
        } else if (LK == "padding") {
          if (!LV.isString())
            return Status::invalidArgument(
                "\"layer.padding\" wants \"same\" or \"valid\"");
          Expected<ConvPadding> P = parsePadding(LV.string());
          if (!P) {
            Status St = P.status();
            return St.withContext("\"layer.padding\"");
          }
          Job.Layer.Padding = P.value();
        } else {
          return Status::invalidArgument("unknown layer field '" + LK +
                                         "'");
        }
      }
    }
    return Job.Layer.validate();
  }
  if (Kind == "resnet" || Kind == "yolo") {
    std::vector<ConvLayer> Layers =
        Kind == "resnet" ? resnet18Layers() : yolo9000Layers();
    std::uint64_t N = 0;
    if (!V.asUint(N) || N < 1 || N > Layers.size())
      return Status::invalidArgument("\"" + Kind + "\" index out of range "
                                     "(1-" + std::to_string(Layers.size()) +
                                     ")");
    Job.Layer = Layers[static_cast<std::size_t>(N - 1)];
    return Status::ok();
  }
  if (Kind == "network") {
    if (!V.isString())
      return Status::invalidArgument("\"network\" wants a string");
    Expected<std::vector<ConvLayer>> Layers = networkLayers(V.string());
    if (!Layers)
      return Layers.status();
    Job.NetworkLayers = std::move(Layers.value());
    Job.IsNetwork = true;
    Job.NetworkName = V.string();
    return Status::ok();
  }
  return Status::invalidArgument("unknown workload kind '" + Kind + "'");
}

/// Parses and validates one "query" object into \p Job and builds its
/// canonical dedup key. Strict about unknown members so client typos
/// (e.g. "deadline" for "deadline_ms") surface as errors, not silently
/// different queries.
Status parseQuery(const JsonValue &Q, const TechParams &Tech,
                  ServeEngine::SolveJob &Job) {
  if (!Q.isObject())
    return Status::invalidArgument("\"query\" must be an object");
  Job.Arch = eyerissArch();

  const JsonValue *Workload = nullptr;
  for (const auto &[K, V] : Q.members()) {
    if (K == "workload") {
      Workload = &V;
    } else if (K == "mode") {
      if (!V.isString())
        return Status::invalidArgument("\"mode\" wants a string");
      Expected<DesignMode> Mode = parseDesignMode(V.string());
      if (!Mode)
        return Mode.status();
      Job.Mode = Mode.value();
    } else if (K == "objective") {
      if (!V.isString())
        return Status::invalidArgument("\"objective\" wants a string");
      Expected<SearchObjective> Obj = parseObjective(V.string());
      if (!Obj)
        return Obj.status();
      Job.Objective = Obj.value();
    } else if (K == "candidates") {
      std::uint64_t N = 0;
      if (!V.asUint(N) || N < 1 || N > std::numeric_limits<unsigned>::max())
        return Status::invalidArgument(
            "\"candidates\" wants a positive 32-bit integer");
      Job.Candidates = static_cast<unsigned>(N);
    } else if (K == "deadline_ms") {
      std::uint64_t N = 0;
      if (!V.asUint(N) || N < 1 || N > MaxDeadlineMs)
        return Status::invalidArgument(
            "\"deadline_ms\" wants 1-2147483647 milliseconds");
      Job.DeadlineMs = N;
    } else if (K == "area_budget") {
      if (!V.isNumber() || V.number() <= 0.0 || V.number() > MaxAreaUm2)
        return Status::invalidArgument(
            "\"area_budget\" wants a positive um^2 area of at most 1e11");
      Job.AreaBudget = V.number();
    } else if (K == "arch") {
      if (!V.isObject())
        return Status::invalidArgument("\"arch\" must be an object");
      for (const auto &[AK, AV] : V.members()) {
        std::uint64_t N = 0;
        if (!AV.asUint(N) || N < 1)
          return Status::invalidArgument("\"arch." + AK +
                                         "\" wants a positive integer");
        if (AK == "pes")
          Job.Arch.NumPEs = static_cast<std::int64_t>(N);
        else if (AK == "regs")
          Job.Arch.RegWordsPerPE = static_cast<std::int64_t>(N);
        else if (AK == "sram_words")
          Job.Arch.SramWords = static_cast<std::int64_t>(N);
        else
          return Status::invalidArgument("unknown arch field '" + AK + "'");
      }
    } else {
      return Status::invalidArgument("unknown query field '" + K + "'");
    }
  }
  if (!Workload)
    return Status::invalidArgument("\"query\" needs a \"workload\"");
  if (Status St = parseWorkload(*Workload, Job); !St.isOk())
    return St;

  // CoDesign defaults the area budget to the Eyeriss area, exactly as
  // thistle-opt does. Resolving before the key is built lets an
  // explicit equal budget share the in-flight solve.
  if (Job.Mode == DesignMode::CoDesign && Job.AreaBudget == 0.0)
    Job.AreaBudget = eyerissAreaUm2(Tech);

  // The layer part of the key covers every ConvLayer field the solve can
  // depend on — both stride/dilation axes, groups, transposed and the
  // padding convention — so distinct general-conv queries never share an
  // in-flight solve.
  std::string Key =
      Job.IsNetwork ? "network:" + Job.NetworkName
                    : "layer:" + std::to_string(Job.Layer.K) + "," +
                          std::to_string(Job.Layer.C) + "," +
                          std::to_string(Job.Layer.Hin) + "," +
                          std::to_string(Job.Layer.Win) + "," +
                          std::to_string(Job.Layer.R) + "," +
                          std::to_string(Job.Layer.S) + "," +
                          std::to_string(Job.Layer.StrideX) + "," +
                          std::to_string(Job.Layer.StrideY) + "," +
                          std::to_string(Job.Layer.DilationX) + "," +
                          std::to_string(Job.Layer.DilationY) + "," +
                          std::to_string(Job.Layer.Groups) + "," +
                          (Job.Layer.Transposed ? "t" : "d") + "," +
                          paddingName(Job.Layer.Padding) + ":" +
                          Job.Layer.Name;
  Key += "|mode=";
  Key += designModeName(Job.Mode);
  Key += "|obj=";
  Key += objectiveName(Job.Objective);
  Key += "|cand=" + std::to_string(Job.Candidates);
  Key += "|area=" + json::number(Job.AreaBudget);
  Key += "|pes=" + std::to_string(Job.Arch.NumPEs);
  Key += "|regs=" + std::to_string(Job.Arch.RegWordsPerPE);
  Key += "|sram=" + std::to_string(Job.Arch.SramWords);
  Key += "|deadline=" + std::to_string(Job.DeadlineMs);
  Job.Key = std::move(Key);
  return Status::ok();
}

/// The per-request `server` section (always last in the envelope, so
/// clients that byte-compare the deterministic prefix can cut at
/// `,"server":`).
struct ServerSection {
  bool Deduplicated = false;
  std::size_t QueueDepth = 0;
  double LatencyMs = 0.0;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

void writeServerSection(json::Writer &W, const ServerSection &S) {
  W.key("server");
  W.beginObject();
  W.key("deduplicated");
  W.value(S.Deduplicated);
  W.key("queue_depth");
  W.value(static_cast<std::uint64_t>(S.QueueDepth));
  W.key("latency_ms");
  W.value(S.LatencyMs);
  W.key("cache");
  W.beginObject();
  W.key("hit");
  W.value(S.Hits);
  W.key("miss");
  W.value(S.Misses);
  W.key("evictions");
  W.value(S.Evictions);
  W.endObject();
  W.endObject();
}

/// Builds one complete response line. \p IdJson is the request id
/// re-serialized ("null" when absent), \p ReportJson the canonical
/// report ("" = null), \p ServeStatsJson an optional pre-serialized
/// `serve` object (the stats command; "" = omitted).
std::string buildEnvelope(const std::string &IdJson, int ExitCode,
                          const std::string &Error,
                          const std::string &ReportJson,
                          const std::string &ServeStatsJson,
                          const ServerSection &Server) {
  std::ostringstream OS;
  json::Writer W(OS, /*Compact=*/true);
  W.beginObject();
  W.key("schema");
  W.value(ServeSchema);
  W.key("id");
  W.rawValue(IdJson);
  W.key("status");
  W.value(statusForExit(ExitCode));
  W.key("exit_code");
  W.value(ExitCode);
  W.key("error");
  if (Error.empty())
    W.null();
  else
    W.value(Error);
  W.key("report");
  if (ReportJson.empty())
    W.null();
  else
    W.rawValue(ReportJson);
  if (!ServeStatsJson.empty()) {
    W.key("serve");
    W.rawValue(ServeStatsJson);
  }
  writeServerSection(W, Server);
  W.endObject();
  return OS.str();
}

/// Re-serializes a request id for the echo: numbers and strings pass
/// through, anything else (including absence) becomes null.
std::string idJsonOf(const JsonValue &Root) {
  const JsonValue *Id = Root.isObject() ? Root.find("id") : nullptr;
  if (!Id)
    return "null";
  if (Id->isNumber())
    return json::number(Id->number());
  if (Id->isString())
    return "\"" + json::escape(Id->string()) + "\"";
  return "null";
}

} // namespace

ServeEngine::ServeEngine(ServeOptions Options)
    : Opts(std::move(Options)), Pool(Opts.Threads),
      Tech(TechParams::cgo45nm()) {}

ServeEngine::~ServeEngine() { shutdown(); }

Status ServeEngine::start() {
  Cache.setCapacity(static_cast<std::size_t>(Opts.CacheCapacity));
  if (!Opts.CacheDir.empty()) {
    if (Status St = persist::createDirectories(Opts.CacheDir); !St.isOk())
      return St.withContext("creating cache directory");
    SnapPath = Opts.CacheDir + "/gpcache.snap";
    JournalPath = Opts.CacheDir + "/gpcache.journal";
    // The compacted snapshot first, then the journal of any process
    // that died before compacting — the same artifacts, in the same
    // order, as thistle-opt --cache-dir.
    Cache.loadFile(SnapPath, LoadStats);
    Cache.loadFile(JournalPath, LoadStats);
    if (Status St = Cache.attachJournal(JournalPath); !St.isOk())
      LoadStats.Problems.push_back("no checkpoint journal: " +
                                   St.toString());
    Persist = true;
  }
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    Started = true;
  }
  Solver = std::thread(&ServeEngine::solverLoop, this);
  return Status::ok();
}

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    if (!Started || Finished) {
      Finished = true;
      return;
    }
    Finished = true;
    Stop = true;
  }
  QueueCv.notify_all();
  if (Solver.joinable())
    Solver.join();
  // Final compaction: fold the journal into one atomic snapshot and
  // drop it. On failure the journal is kept — nothing is lost, the
  // next start replays it.
  if (Persist && Cache.compact(SnapPath, JournalPath).isOk()) {
    SnapshotWritten = true;
    ++Compactions;
  }
}

void ServeEngine::setHoldForTest(bool H) {
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    Hold = H;
  }
  QueueCv.notify_all();
}

std::size_t ServeEngine::queuedForTest() const {
  std::lock_guard<std::mutex> L(JobsMutex);
  return Queue.size();
}

ServeStats ServeEngine::stats() const {
  ServeStats S;
  S.Requests = Requests.load();
  S.Queries = Queries.load();
  S.Errors = Errors.load();
  S.Deduplicated = Deduplicated.load();
  S.Solves = Solves.load();
  S.CacheHits = Cache.hits();
  S.CacheMisses = Cache.misses();
  S.CacheEvictions = Cache.evictions();
  S.Compactions = Compactions.load();
  return S;
}

void ServeEngine::fillReport(RunReport &RR) const {
  ServeStats S = stats();
  RR.Serve.Present = true;
  RR.Serve.Requests = S.Requests;
  RR.Serve.Queries = S.Queries;
  RR.Serve.Errors = S.Errors;
  RR.Serve.Deduplicated = S.Deduplicated;
  RR.Serve.Solves = S.Solves;
  RR.Serve.CacheHits = S.CacheHits;
  RR.Serve.CacheMisses = S.CacheMisses;
  RR.Serve.CacheEvictions = S.CacheEvictions;
  RR.Serve.Compactions = S.Compactions;
  if (Persist) {
    RR.Persistence.Present = true;
    RR.Persistence.Directory = Opts.CacheDir;
    RR.Persistence.Capacity = Opts.CacheCapacity;
    RR.Persistence.LoadedFiles = LoadStats.FilesLoaded;
    RR.Persistence.LoadedEntries = LoadStats.EntriesLoaded;
    RR.Persistence.AppendFailures = Cache.journalAppendFailures();
    RR.Persistence.Evictions = Cache.evictions();
    RR.Persistence.DataLossDetected = LoadStats.DataLoss;
    RR.Persistence.Problems = LoadStats.Problems;
    RR.Persistence.SnapshotWritten = SnapshotWritten;
  }
}

void ServeEngine::solverLoop() {
  while (true) {
    std::shared_ptr<SolveJob> Job;
    {
      std::unique_lock<std::mutex> L(JobsMutex);
      QueueCv.wait(L, [&] {
        return (Stop || !Hold) && (Stop || !Queue.empty());
      });
      if (Queue.empty())
        return; // Stop with nothing queued: drained.
      Job = Queue.front();
      Queue.pop_front();
    }
    runJob(*Job);
    // Count before signaling so the totals are settled by the time any
    // waiter reads them off its response.
    std::uint64_t N = ++Solves;
    telemetry::count("thistle.serve.solves");
    {
      // Retire the in-flight entry before signaling: later identical
      // queries start a fresh job and replay from the (now hot) cache.
      std::lock_guard<std::mutex> L(JobsMutex);
      InFlight.erase(Job->Key);
    }
    {
      std::lock_guard<std::mutex> L(Job->M);
      Job->Done = true;
    }
    Job->Cv.notify_all();
    if (Persist && Opts.SnapshotEvery && N % Opts.SnapshotEvery == 0) {
      // Periodic compaction, from the solver thread so it never races a
      // journal append.
      if (Cache.compact(SnapPath, JournalPath).isOk()) {
        SnapshotWritten = true;
        ++Compactions;
      }
      if (Status St = Cache.attachJournal(JournalPath); !St.isOk())
        LoadStats.Problems.push_back("re-attaching journal: " +
                                     St.toString());
    }
  }
}

void ServeEngine::runJob(SolveJob &Job) {
  const std::uint64_t H0 = Cache.hits(), M0 = Cache.misses();
  const std::uint64_t E0 = Cache.evictions();

  ThistleOptions Opt;
  Opt.Mode = Job.Mode;
  Opt.Objective = Job.Objective;
  if (Job.Candidates)
    Opt.Rounding.NumCandidates = Job.Candidates;
  if (Job.DeadlineMs)
    Opt.Deadline = std::chrono::milliseconds(Job.DeadlineMs);

  RunReport RR;
  RR.Tool = "thistle-serve";
  RR.Mode = designModeName(Job.Mode);
  RR.Objective = objectiveName(Job.Objective);
  RR.Hierarchy = "classic3";
  RR.Threads = Pool.numWorkers();

  int Exit = 0;
  if (!Job.IsNetwork) {
    RR.Workload = Job.Layer.Name;
    Problem Prob = makeConvProblem(Job.Layer);
    LayerRunContext Run;
    Run.Cache = &Cache;
    Run.Pool = &Pool;
    ThistleResult R =
        optimizeLayer(Prob, Job.Arch, Tech, Opt, Run, Job.AreaBudget);
    if (!R.InputStatus.isOk()) {
      Job.Error = R.InputStatus.toString();
      Exit = 2;
    } else {
      RR.HasSweep = true;
      RR.SweepTaskNoun = "pair";
      RR.Sweep = std::move(R.Report);
      if (!R.Found) {
        Exit = 3;
      } else {
        RR.setResult(R.Eval);
        Exit = RR.Sweep.clean() ? 0 : 1;
      }
    }
  } else {
    RR.Workload = "network:" + Job.NetworkName;
    NetworkOptions NO;
    NO.Layer = Opt;
    NO.Cache = &Cache;
    NO.Pool = &Pool;
    NetworkResult R =
        optimizeNetwork(Job.NetworkLayers, Job.Arch, Tech, NO,
                        Job.AreaBudget);
    if (!R.InputStatus.isOk()) {
      Job.Error = R.InputStatus.toString();
      Exit = 2;
    } else {
      fillNetworkReport(R, /*CacheEnabled=*/true, RR);
      if (R.LayersFound == 0) {
        Exit = 3;
      } else {
        Exit = RR.Sweep.clean() ? 0 : 1;
        if (!R.Found)
          Exit = 1;
      }
    }
  }

  RR.ExitCode = Exit; // The envelope and its report agree, as in thistle-opt.
  if (Exit != 2)
    Job.CanonicalReport = RR.toCanonicalJson();
  Job.ExitCode = Exit;
  Job.DHits = Cache.hits() - H0;
  Job.DMisses = Cache.misses() - M0;
  Job.DEvict = Cache.evictions() - E0;
}

std::string ServeEngine::handleLine(const std::string &Line) {
  const auto T0 = std::chrono::steady_clock::now();
  ++Requests;
  telemetry::count("thistle.serve.requests");
  auto latency = [&T0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };
  auto errorOut = [&](const std::string &IdJson, const std::string &Msg) {
    ++Errors;
    telemetry::count("thistle.serve.errors");
    ServerSection S;
    S.LatencyMs = latency();
    return buildEnvelope(IdJson, 2, Msg, "", "", S);
  };

  Expected<JsonValue> Parsed = json::parseJson(Line);
  if (!Parsed)
    return errorOut("null", Parsed.status().toString());
  const JsonValue &Root = Parsed.value();
  const std::string IdJson = idJsonOf(Root);
  if (!Root.isObject())
    return errorOut(IdJson, "request must be a JSON object");

  // Admin commands: small, never queued, answered inline.
  if (const JsonValue *Cmd = Root.find("cmd")) {
    if (!Cmd->isString())
      return errorOut(IdJson, "\"cmd\" wants a string");
    ServerSection S;
    if (Cmd->string() == "ping") {
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", "", S);
    }
    if (Cmd->string() == "stats") {
      ServeStats St = stats();
      std::ostringstream OS;
      json::Writer W(OS, /*Compact=*/true);
      W.beginObject();
      W.key("requests");
      W.value(St.Requests);
      W.key("queries");
      W.value(St.Queries);
      W.key("errors");
      W.value(St.Errors);
      W.key("deduplicated");
      W.value(St.Deduplicated);
      W.key("solves");
      W.value(St.Solves);
      W.key("cache_hits");
      W.value(St.CacheHits);
      W.key("cache_misses");
      W.value(St.CacheMisses);
      W.key("cache_evictions");
      W.value(St.CacheEvictions);
      W.key("compactions");
      W.value(St.Compactions);
      W.endObject();
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", OS.str(), S);
    }
    if (Cmd->string() == "shutdown") {
      ShutdownFlag.store(true);
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", "", S);
    }
    return errorOut(IdJson, "unknown cmd '" + Cmd->string() + "'");
  }

  // Solve queries must name the protocol version they speak.
  const JsonValue *Schema = Root.find("schema");
  if (!Schema || !Schema->isString() || Schema->string() != ServeSchema)
    return errorOut(IdJson, std::string("\"schema\" must be \"") +
                                ServeSchema + "\"");
  const JsonValue *Query = Root.find("query");
  if (!Query)
    return errorOut(IdJson, "request needs a \"query\" (or a \"cmd\")");
  for (const auto &[K, V] : Root.members()) {
    (void)V;
    if (K != "schema" && K != "id" && K != "query")
      return errorOut(IdJson, "unknown request field '" + K + "'");
  }

  auto Fresh = std::make_shared<SolveJob>();
  if (Status St = parseQuery(*Query, Tech, *Fresh); !St.isOk())
    return errorOut(IdJson, St.toString());
  ++Queries;
  telemetry::count("thistle.serve.queries");

  // Admission: join an identical in-flight job or enqueue a new one.
  std::shared_ptr<SolveJob> Job;
  bool Created = false;
  std::size_t Depth = 0;
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    if (Stop)
      Job = nullptr;
    else {
      Depth = Queue.size();
      auto It = InFlight.find(Fresh->Key);
      if (It != InFlight.end()) {
        Job = It->second;
      } else {
        Job = Fresh;
        InFlight.emplace(Job->Key, Job);
        Queue.push_back(Job);
        Created = true;
      }
    }
  }
  if (!Job)
    return errorOut(IdJson, "server is shutting down");
  if (Created) {
    QueueCv.notify_all();
  } else {
    ++Deduplicated;
    telemetry::count("thistle.serve.dedup");
  }
  telemetry::observe("thistle.serve.queue_depth",
                     static_cast<double>(Depth));

  {
    std::unique_lock<std::mutex> L(Job->M);
    Job->Cv.wait(L, [&] { return Job->Done; });
  }

  ServerSection S;
  S.Deduplicated = !Created;
  S.QueueDepth = Depth;
  if (Created) {
    // Joiners report zeros so the per-request cache counters sum to the
    // process totals (the stats-vs-report consistency contract).
    S.Hits = Job->DHits;
    S.Misses = Job->DMisses;
    S.Evictions = Job->DEvict;
  }
  S.LatencyMs = latency();
  telemetry::observe("thistle.serve.latency_ms", S.LatencyMs);
  if (Job->ExitCode == 2)
    ++Errors;
  return buildEnvelope(IdJson, Job->ExitCode, Job->Error,
                       Job->CanonicalReport, "", S);
}
