//===- tests/ServeEngineTest.cpp - ServeEngine + JSON parser tests --------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
//
// The serving contracts of docs/SERVING.md, below the socket layer:
// handleLine() responses for good, bad, and degraded requests; the
// byte-identity of a query's report across cold cache, hot cache, a
// disk round-trip and racing identical requests (which must collapse
// onto one solve); and the line-JSON parser the protocol rests on.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Json.h"
#include "thistle/ServeEngine.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace thistle;

namespace {

//===----------------------------------------------------------------------===//
// Json parser
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsAndStructure) {
  Expected<json::JsonValue> V =
      json::parseJson("{\"a\":[1,2.5,-3],\"b\":{\"c\":true,\"d\":null},"
                      "\"e\":\"x\\ny\"}");
  ASSERT_TRUE(V);
  const json::JsonValue *A = V.value().find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_EQ(A->array()[0].number(), 1.0);
  EXPECT_EQ(A->array()[1].number(), 2.5);
  EXPECT_EQ(A->array()[2].number(), -3.0);
  const json::JsonValue *B = V.value().find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->find("c")->boolean());
  EXPECT_TRUE(B->find("d")->isNull());
  EXPECT_EQ(V.value().find("e")->string(), "x\ny");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::parseJson(""));
  EXPECT_FALSE(json::parseJson("{"));
  EXPECT_FALSE(json::parseJson("{\"a\":}"));
  EXPECT_FALSE(json::parseJson("[1,]"));
  EXPECT_FALSE(json::parseJson("01"));
  EXPECT_FALSE(json::parseJson("nul"));
  EXPECT_FALSE(json::parseJson("{} trailing"));
  EXPECT_FALSE(json::parseJson("\"unterminated"));
}

TEST(Json, ExactIntegerExtraction) {
  Expected<json::JsonValue> V = json::parseJson("[7, 7.5, -1, 1e3]");
  ASSERT_TRUE(V);
  std::uint64_t N = 0;
  EXPECT_TRUE(V.value().array()[0].asUint(N));
  EXPECT_EQ(N, 7u);
  EXPECT_FALSE(V.value().array()[1].asUint(N)); // Not an integer.
  EXPECT_FALSE(V.value().array()[2].asUint(N)); // Negative.
  EXPECT_TRUE(V.value().array()[3].asUint(N));  // 1e3 is exactly 1000.
  EXPECT_EQ(N, 1000u);
}

TEST(Json, DepthBounded) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  EXPECT_FALSE(json::parseJson(Deep));
}

//===----------------------------------------------------------------------===//
// ServeEngine
//===----------------------------------------------------------------------===//

/// A tiny query so tests solve in well under a second.
const char *LayerQuery =
    "{\"schema\":\"thistle-serve/1\",\"id\":1,\"query\":{\"workload\":"
    "{\"layer\":[16,8,14,14,3,3]}}}";

/// Extracts the deterministic prefix of a response: everything before
/// the per-request `server` section.
std::string deterministicPrefix(const std::string &Resp) {
  std::size_t Pos = Resp.rfind(",\"server\":");
  EXPECT_NE(Pos, std::string::npos) << Resp;
  return Resp.substr(0, Pos) + "}";
}

/// Pulls a "key":value scalar out of the response's server section
/// (good enough for counters in a test).
std::uint64_t serverCacheCounter(const std::string &Resp,
                                 const std::string &Key) {
  std::size_t Server = Resp.rfind("\"server\":");
  EXPECT_NE(Server, std::string::npos);
  std::size_t Pos = Resp.find("\"" + Key + "\":", Server);
  EXPECT_NE(Pos, std::string::npos);
  return std::strtoull(Resp.c_str() + Pos + Key.size() + 3, nullptr, 10);
}

/// The run report a response embeds carries the envelope's exit code.
void expectReportExitCodeMatches(const std::string &Resp) {
  Expected<json::JsonValue> V = json::parseJson(Resp);
  ASSERT_TRUE(V) << Resp;
  const json::JsonValue *Envelope = V.value().find("exit_code");
  const json::JsonValue *Report = V.value().find("report");
  ASSERT_NE(Envelope, nullptr) << Resp;
  ASSERT_NE(Report, nullptr) << Resp;
  ASSERT_NE(Report->find("exit_code"), nullptr) << Resp;
  EXPECT_EQ(Report->find("exit_code")->number(), Envelope->number()) << Resp;
}

TEST(ServeEngine, AnswersPingAndRejectsGarbage) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());

  std::string Pong = Engine.handleLine("{\"cmd\":\"ping\",\"id\":\"p\"}");
  EXPECT_NE(Pong.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(Pong.find("\"id\":\"p\""), std::string::npos);

  // Malformed JSON and malformed requests get error envelopes — the
  // connection-level contract is "never crash, never disconnect".
  for (const char *Bad :
       {"not json at all", "[1,2,3]", "{\"schema\":\"bogus/9\"}",
        "{\"schema\":\"thistle-serve/1\"}",
        "{\"schema\":\"thistle-serve/1\",\"query\":{}}",
        "{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
        "{\"layer\":[0,0,0,0,0,0]}}}",
        "{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
        "{\"resnet\":99}}}",
        "{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
        "{\"layer\":[16,8,14,14,3,3]},\"deadline\":5}}"}) {
    std::string Resp = Engine.handleLine(Bad);
    EXPECT_NE(Resp.find("\"status\":\"invalid\""), std::string::npos)
        << Bad << " -> " << Resp;
    EXPECT_NE(Resp.find("\"exit_code\":2"), std::string::npos) << Bad;
    EXPECT_NE(Resp.find("\"report\":null"), std::string::npos) << Bad;
  }

  ServeStats S = Engine.stats();
  EXPECT_EQ(S.Requests, 9u);
  EXPECT_EQ(S.Errors, 8u);
  EXPECT_EQ(S.Queries, 0u); // None of the errors was admitted.
  Engine.shutdown();
}

TEST(ServeEngine, ColdHotAndReloadedAreByteIdentical) {
  std::string Dir = ::testing::TempDir() + "/serve-reload";
  std::remove((Dir + "/gpcache.snap").c_str());
  std::remove((Dir + "/gpcache.journal").c_str());

  std::string Cold, Hot;
  {
    ServeOptions SO;
    SO.CacheDir = Dir;
    ServeEngine Engine{SO};
    ASSERT_TRUE(Engine.start().isOk());
    Cold = Engine.handleLine(LayerQuery);
    Hot = Engine.handleLine(LayerQuery);
    Engine.shutdown();
  }
  EXPECT_NE(Cold.find("\"status\":\"ok\""), std::string::npos) << Cold;
  EXPECT_EQ(deterministicPrefix(Cold), deterministicPrefix(Hot));
  // The hot answer replayed from the cache: no misses.
  EXPECT_GT(serverCacheCounter(Cold, "miss"), 0u);
  EXPECT_EQ(serverCacheCounter(Hot, "miss"), 0u);
  EXPECT_GT(serverCacheCounter(Hot, "hit"), 0u);

  // A fresh engine over the same directory replays from disk.
  {
    ServeOptions SO;
    SO.CacheDir = Dir;
    ServeEngine Engine{SO};
    ASSERT_TRUE(Engine.start().isOk());
    std::string Reloaded = Engine.handleLine(LayerQuery);
    EXPECT_EQ(deterministicPrefix(Cold), deterministicPrefix(Reloaded));
    EXPECT_EQ(serverCacheCounter(Reloaded, "miss"), 0u);
    Engine.shutdown();
  }
}

TEST(ServeEngine, AnswerDoesNotDependOnEarlierQueries) {
  // ResNet-18 layer 2 on two-word register files: no design, every pair
  // certified infeasible. The answer is a pure function of the query,
  // so an engine that answered another query first must return the same
  // bytes as a fresh one.
  const char *TinyRegs =
      "{\"schema\":\"thistle-serve/1\",\"id\":2,\"query\":{\"workload\":"
      "{\"resnet\":2},\"arch\":{\"pes\":168,\"regs\":2,"
      "\"sram_words\":65536}}}";
  std::string Fresh, After;
  {
    ServeEngine Engine{ServeOptions{}};
    ASSERT_TRUE(Engine.start().isOk());
    Fresh = Engine.handleLine(TinyRegs);
    Engine.shutdown();
  }
  {
    ServeEngine Engine{ServeOptions{}};
    ASSERT_TRUE(Engine.start().isOk());
    std::string First = Engine.handleLine(LayerQuery);
    EXPECT_NE(First.find("\"status\":\"ok\""), std::string::npos) << First;
    After = Engine.handleLine(TinyRegs);
    Engine.shutdown();
  }
  EXPECT_NE(Fresh.find("\"exit_code\":3"), std::string::npos) << Fresh;
  EXPECT_NE(Fresh.find("\"attempts\":"), std::string::npos) << Fresh;
  EXPECT_EQ(deterministicPrefix(Fresh), deterministicPrefix(After));
}

TEST(ServeEngine, ConcurrentIdenticalQueriesDedupToOneSolve) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());

  // Hold the solver so every request is admitted while the first job
  // is still in flight — the dedup join is then deterministic, not a
  // race the test might lose.
  Engine.setHoldForTest(true);
  constexpr int N = 8;
  std::vector<std::string> Responses(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I] { Responses[I] = Engine.handleLine(LayerQuery); });
  // Wait until every request has been admitted (one creator queued,
  // N-1 joins recorded) before releasing the solver, so no request can
  // arrive late and start a second solve.
  while (Engine.queuedForTest() < 1 ||
         Engine.stats().Deduplicated < static_cast<std::uint64_t>(N - 1))
    std::this_thread::yield();
  Engine.setHoldForTest(false);
  for (std::thread &T : Threads)
    T.join();

  ServeStats S = Engine.stats();
  EXPECT_EQ(S.Queries, static_cast<std::uint64_t>(N));
  EXPECT_EQ(S.Solves, 1u);
  EXPECT_EQ(S.Deduplicated, static_cast<std::uint64_t>(N - 1));
  std::uint64_t CounterSum = 0;
  for (const std::string &R : Responses) {
    EXPECT_EQ(deterministicPrefix(R), deterministicPrefix(Responses[0]));
    CounterSum += serverCacheCounter(R, "miss");
  }
  // Exactly one response (the creator's) carries the solve's cache
  // traffic; joiners report zeros, so the sum matches the totals.
  EXPECT_EQ(CounterSum, S.CacheMisses);
  Engine.shutdown();
}

TEST(ServeEngine, ExpiredDeadlineDegradesInsteadOfCrashing) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  // A 1ms budget expires before (or just after) the sweep starts: the
  // response must come back degraded or no-design, never crash — and
  // never poison the cache for an unlimited rerun of the same layer.
  std::string Resp = Engine.handleLine(
      "{\"schema\":\"thistle-serve/1\",\"id\":7,\"query\":{\"workload\":"
      "{\"layer\":[16,8,14,14,3,3]},\"deadline_ms\":1}}");
  bool Degraded =
      Resp.find("\"status\":\"degraded\"") != std::string::npos ||
      Resp.find("\"status\":\"no-design\"") != std::string::npos ||
      Resp.find("\"status\":\"ok\"") != std::string::npos;
  EXPECT_TRUE(Degraded) << Resp;
  expectReportExitCodeMatches(Resp);

  // The unlimited query is a different dedup/cache story: it must
  // still produce the full clean answer.
  std::string Full = Engine.handleLine(LayerQuery);
  EXPECT_NE(Full.find("\"status\":\"ok\""), std::string::npos) << Full;
  EXPECT_NE(Full.find("\"deadline_expired\":false"), std::string::npos);
  Engine.shutdown();
}

#if THISTLE_FAULT_INJECTION_ENABLED
TEST(ServeEngine, DegradedAndNoDesignReportsCarryTheirExitCode) {
  // Failed pairs make the answer degraded (exit 1), or leave no design
  // at all (exit 3); the embedded report used to say 0 either way.
  const std::pair<std::int64_t, const char *> Cases[] = {
      {/*pair*/ 0, "\"status\":\"degraded\",\"exit_code\":1"},
      {fault::AnyKey, "\"status\":\"no-design\",\"exit_code\":3"}};
  for (const auto &[Key, Status] : Cases) {
    ServeEngine Engine{ServeOptions{}};
    ASSERT_TRUE(Engine.start().isOk());
    fault::arm("thistle.pair", Key);
    std::string Resp = Engine.handleLine(LayerQuery);
    fault::disarmAll();
    EXPECT_NE(Resp.find(Status), std::string::npos) << Resp;
    expectReportExitCodeMatches(Resp);
    Engine.shutdown();
  }
}
#endif // THISTLE_FAULT_INJECTION_ENABLED

TEST(ServeEngine, ShutdownReportMatchesStats) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  Engine.handleLine(LayerQuery);
  Engine.handleLine(LayerQuery);
  Engine.handleLine("garbage");
  Engine.shutdown();

  ServeStats S = Engine.stats();
  RunReport RR;
  Engine.fillReport(RR);
  EXPECT_TRUE(RR.Serve.Present);
  EXPECT_EQ(RR.Serve.Requests, S.Requests);
  EXPECT_EQ(RR.Serve.Queries, 2u);
  EXPECT_EQ(RR.Serve.Errors, 1u);
  // Both queries ran a solver job; the second replayed from the exact
  // tier inside its job (hits > 0, misses unchanged).
  EXPECT_EQ(RR.Serve.Solves, 2u);
  EXPECT_GT(RR.Serve.CacheHits, 0u);
  EXPECT_EQ(RR.Serve.CacheHits, S.CacheHits);
  EXPECT_EQ(RR.Serve.CacheMisses, S.CacheMisses);
  EXPECT_FALSE(RR.Persistence.Present); // No cache directory given.

  // The serve section shows up in the serialized report.
  EXPECT_NE(RR.toJson().find("\"serve\""), std::string::npos);
}

TEST(ServeEngine, ObjectFormLayerParsesGeneralConvModifiers) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());

  // Array and object forms of the same dense layer share a dedup key;
  // the depthwise/transposed/valid-padding variants must not.
  const char *Forms[] = {
      "{\"schema\":\"thistle-serve/1\",\"id\":1,\"query\":{\"workload\":"
      "{\"layer\":{\"dims\":[8,8,10,10,3,3]}}}}",
      "{\"schema\":\"thistle-serve/1\",\"id\":2,\"query\":{\"workload\":"
      "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"groups\":8}}}}",
      "{\"schema\":\"thistle-serve/1\",\"id\":3,\"query\":{\"workload\":"
      "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"transposed\":true}}}}",
      "{\"schema\":\"thistle-serve/1\",\"id\":4,\"query\":{\"workload\":"
      "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"padding\":\"valid\"}}}}"};
  for (const char *Q : Forms) {
    std::string Resp = Engine.handleLine(Q);
    EXPECT_NE(Resp.find("\"status\":\"ok\""), std::string::npos)
        << Q << " -> " << Resp;
  }
  // Four distinct workloads -> four solver jobs, no false sharing.
  EXPECT_EQ(Engine.stats().Solves, 4u);

  // The plain array form replays the object-form dense solve from the
  // exact cache tier: same workload, same key.
  std::uint64_t HitsBefore = Engine.stats().CacheHits;
  std::string Arr = Engine.handleLine(
      "{\"schema\":\"thistle-serve/1\",\"id\":5,\"query\":{\"workload\":"
      "{\"layer\":[8,8,10,10,3,3]}}}");
  EXPECT_NE(Arr.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_GT(Engine.stats().CacheHits, HitsBefore);
  Engine.shutdown();
}

TEST(ServeEngine, GeneralConvValidationUsesTheErrorEnvelope) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  struct Case {
    const char *Query;
    const char *Needle;
  } Cases[] = {
      // 8 channels are not divisible into 3 groups.
      {"{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
       "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"groups\":3}}}}",
       "divisible"},
      // Dilation 0 in the long array form.
      {"{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
       "{\"layer\":[8,8,10,10,3,3,1,0]}}}",
       "positive"},
      // Unknown padding token.
      {"{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
       "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"padding\":\"diagonal\"}}}}",
       "padding"},
      // Unknown field in the layer object (strict parsing).
      {"{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
       "{\"layer\":{\"dims\":[8,8,10,10,3,3],\"dilated\":true}}}}",
       "layer"}};
  for (const Case &C : Cases) {
    std::string Resp = Engine.handleLine(C.Query);
    EXPECT_NE(Resp.find("\"status\":\"invalid\""), std::string::npos)
        << C.Query << " -> " << Resp;
    EXPECT_NE(Resp.find("\"exit_code\":2"), std::string::npos) << C.Query;
    EXPECT_NE(Resp.find(C.Needle), std::string::npos) << Resp;
  }
  EXPECT_EQ(Engine.stats().Queries, 0u); // None admitted.
  Engine.shutdown();
}

TEST(ServeEngine, OutOfRangeNumbersAreInvalidAndTheEngineKeepsServing) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  // MAC counts that wrap a 64-bit integer, a dimension of 2^64 that does
  // not fit the wire integer at all, and fields past the CLI flag ranges
  // (candidates 2^32 + 2 must not wrap to 2).
  for (const char *Query :
       {"\"workload\":{\"layer\":[1000000000000,1000000,56,56,3,3]}",
        "\"workload\":{\"layer\":[9223372036854775806,64,56,56,3,3]}",
        "\"workload\":{\"layer\":[18446744073709551616,8,14,14,3,3]}",
        "\"workload\":{\"resnet\":2},\"candidates\":4294967298",
        "\"workload\":{\"resnet\":2},\"deadline_ms\":2147483648",
        "\"workload\":{\"resnet\":2},\"mode\":\"codesign\","
        "\"area_budget\":1e12"}) {
    std::string Resp = Engine.handleLine(
        std::string("{\"schema\":\"thistle-serve/1\",\"query\":{") +
        Query + "}}");
    EXPECT_NE(Resp.find("\"status\":\"invalid\""), std::string::npos)
        << Query << " -> " << Resp;
  }
  EXPECT_EQ(Engine.stats().Queries, 0u);
  std::string Ok = Engine.handleLine(LayerQuery);
  EXPECT_NE(Ok.find("\"status\":\"ok\""), std::string::npos) << Ok;
  Engine.shutdown();
}

TEST(ServeEngine, NewNetworkNamesAreAdmitted) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  // A 1ms deadline keeps these from running the full sweeps; the point
  // is that the names parse (degraded/no-design/ok — never invalid).
  for (const char *Net : {"mobilenetv2", "dcgan"}) {
    std::string Resp = Engine.handleLine(
        std::string("{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
                    "{\"network\":\"") +
        Net + "\"},\"deadline_ms\":1}}");
    EXPECT_EQ(Resp.find("\"status\":\"invalid\""), std::string::npos)
        << Net << " -> " << Resp;
  }
  std::string Bad = Engine.handleLine(
      "{\"schema\":\"thistle-serve/1\",\"query\":{\"workload\":"
      "{\"network\":\"vgg\"}}}");
  EXPECT_NE(Bad.find("\"status\":\"invalid\""), std::string::npos) << Bad;
  Engine.shutdown();
}

TEST(ServeEngine, ShutdownCommandOnlySetsTheFlag) {
  ServeEngine Engine{ServeOptions{}};
  ASSERT_TRUE(Engine.start().isOk());
  EXPECT_FALSE(Engine.shutdownRequested());
  std::string Ack = Engine.handleLine("{\"cmd\":\"shutdown\"}");
  EXPECT_NE(Ack.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_TRUE(Engine.shutdownRequested());
  // The engine still answers until the daemon actually drains it.
  EXPECT_NE(Engine.handleLine("{\"cmd\":\"ping\"}").find("\"ok\""),
            std::string::npos);
  Engine.shutdown();
}

} // namespace
