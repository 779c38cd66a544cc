#include "sqlint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "source.h"

namespace sq::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixture helpers: build a Tree in memory from (path, contents) pairs so each
// pass can be exercised against small positive/exempted snippets.

Tree MakeTree(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Tree tree;
  for (const auto& [path, contents] : files) {
    if (path == "README.md") {
      tree.files.push_back(ScanPlainText(path, contents));
    } else {
      tree.files.push_back(ScanSource(path, contents));
    }
  }
  return tree;
}

std::vector<Finding> RunPass(void (*pass)(const Tree&,
                                          std::vector<Finding>*),
                             const Tree& tree) {
  std::vector<Finding> findings;
  pass(tree, &findings);
  return findings;
}

// ---------------------------------------------------------------------------
// Scanner

TEST(Scanner, SplitsCodeAndComments) {
  const SourceFile f = ScanSource("src/a.cc",
                                  "int x = 1;  // trailing note\n"
                                  "/* lead */ int y = 2;\n"
                                  "/* span\n"
                                  "   ning */ int z = 3;\n"
                                  "const char* s = \"// not a comment\";\n");
  ASSERT_EQ(f.lines.size(), 5u);
  EXPECT_EQ(f.lines[0].code, "int x = 1;  ");
  EXPECT_EQ(f.lines[0].comment, " trailing note");
  EXPECT_EQ(f.lines[1].code, " int y = 2;");
  EXPECT_EQ(f.lines[1].comment, " lead ");
  EXPECT_EQ(f.lines[2].comment, " span");
  EXPECT_EQ(f.lines[3].code, " int z = 3;");
  EXPECT_EQ(f.lines[4].code, "const char* s = \"// not a comment\";");
  EXPECT_TRUE(f.lines[4].comment.empty());
}

TEST(Scanner, EscapedQuotesStayInStringState) {
  const SourceFile f =
      ScanSource("src/a.cc", "auto s = \"a \\\" b // c\"; // real\n");
  ASSERT_EQ(f.lines.size(), 1u);
  EXPECT_EQ(f.lines[0].comment, " real");
}

TEST(Scanner, HasTokenRespectsIdentifierBoundaries) {
  EXPECT_TRUE(HasToken("std::unordered_map<int, int> m;", "unordered_map"));
  EXPECT_FALSE(HasToken("my_unordered_map_wrapper m;", "unordered_map"));
  EXPECT_TRUE(HasToken("rand()", "rand"));
  EXPECT_FALSE(HasToken("operand()", "rand"));
}

TEST(Exemptions, ParseAndMatch) {
  std::string rule;
  std::string reason;
  ASSERT_TRUE(
      ParseExemption(" sq-lint: unordered-ok(lookup only)", &rule, &reason));
  EXPECT_EQ(rule, "unordered-ok");
  EXPECT_EQ(reason, "lookup only");

  ASSERT_TRUE(ParseExemption(" sq-lint: unordered-ok()", &rule, &reason));
  EXPECT_TRUE(reason.empty());  // empty reason = malformed

  const SourceFile f = ScanSource(
      "src/a.cc",
      "// sq-lint: unordered-ok(probe order follows left input)\n"
      "std::unordered_map<K, V> index;\n"
      "std::unordered_map<K, V> other;  // sq-lint: unordered-ok(same line)\n"
      "std::unordered_map<K, V> naked;\n");
  EXPECT_TRUE(HasExemption(f, 2, "unordered"));
  EXPECT_TRUE(HasExemption(f, 3, "unordered"));
  EXPECT_FALSE(HasExemption(f, 4, "unordered"));
  EXPECT_FALSE(HasExemption(f, 2, "wallclock"));  // rule must match
}

TEST(Exemptions, GrammarCheckFlagsUnknownRuleAndMissingReason) {
  const Tree tree = MakeTree({{"src/a.cc",
                               "int a;  // sq-lint: unordered-ok()\n"
                               "int b;  // sq-lint: bogus-ok(why)\n"
                               "int c;  // sq-lint: unordered-ok(fine)\n"}});
  std::vector<Finding> findings;
  CheckExemptionGrammar(tree, &findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

// ---------------------------------------------------------------------------
// Pass 1: determinism

TEST(Determinism, FlagsUnorderedInResultLayersOnly) {
  const Tree tree = MakeTree(
      {{"src/sql/x.cc", "std::unordered_map<int, int> m;\n"},
       {"src/common/y.cc", "std::unordered_map<int, int> fine;\n"}});
  const auto findings = RunPass(PassDeterminism, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/sql/x.cc");
  EXPECT_EQ(findings[0].pass, "determinism");
}

TEST(Determinism, ExemptionSuppresses) {
  const Tree tree = MakeTree(
      {{"src/query/x.cc",
        "// sq-lint: unordered-ok(lookup only, never iterated)\n"
        "std::unordered_map<int, int> m;\n"}});
  EXPECT_TRUE(RunPass(PassDeterminism, tree).empty());
}

TEST(Determinism, FlagsWallClockAndRand) {
  const Tree tree = MakeTree(
      {{"src/net/x.cc",
        "auto t = std::chrono::system_clock::now();\n"
        "int r = rand();\n"
        "std::mt19937 gen(seed);  // sq-lint: rand-ok(seed from request)\n"}});
  const auto findings = RunPass(PassDeterminism, tree);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(Determinism, StringsAndCommentsDoNotTrip) {
  const Tree tree = MakeTree(
      {{"src/storage/x.cc",
        "// unordered_map would be wrong here\n"
        "const char* kDoc = \"unordered_map rand system_clock\";\n"}});
  // The doc-string line mentions the tokens inside a string literal; the
  // lexical scan keeps literals in the code channel, so an exemption is the
  // documented escape hatch for this rare shape.
  EXPECT_EQ(RunPass(PassDeterminism, tree).size(), 3u);
}

// ---------------------------------------------------------------------------
// Pass 2: wire exhaustiveness

const char kWireH[] =
    "enum class MsgType : uint8_t {\n"
    "  kHello = 1,\n"
    "  kError = 2,\n"
    "};\n";

const char kWireCcComplete[] =
    "bool IsKnownMsgType(MsgType t) {\n"
    "  switch (t) {\n"
    "    case MsgType::kHello:\n"
    "    case MsgType::kError:\n"
    "      return true;\n"
    "  }\n"
    "  return false;\n"
    "}\n"
    "const char* MsgTypeToString(MsgType t) {\n"
    "  switch (t) {\n"
    "    case MsgType::kHello: return \"Hello\";\n"
    "    case MsgType::kError: return \"Error\";\n"
    "  }\n"
    "  return \"?\";\n"
    "}\n";

const char kNetUser[] =
    "void Send() { Encode(MsgType::kHello); Encode(MsgType::kError); }\n";

const char kNetTestComplete[] =
    "// sqlint-golden-corpus-begin\n"
    "GoldenFrame(MsgType::kHello, \"...\");\n"
    "GoldenFrame(MsgType::kError, \"...\");\n"
    "// sqlint-golden-corpus-end\n"
    "// sqlint-rpc-metrics-begin\n"
    "ExpectPerTypeRpcCounters(\"Hello\");\n"
    "ExpectPerTypeRpcCounters(\"Error\");\n"
    "// sqlint-rpc-metrics-end\n";

TEST(Wire, CompleteFixtureIsClean) {
  const Tree tree = MakeTree({{"src/net/wire.h", kWireH},
                              {"src/net/wire.cc", kWireCcComplete},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestComplete}});
  EXPECT_TRUE(RunPass(PassWire, tree).empty());
}

TEST(Wire, MissingToStringEntryIsFlagged) {
  const char kWireCcNoErrorString[] =
      "bool IsKnownMsgType(MsgType t) {\n"
      "  switch (t) {\n"
      "    case MsgType::kHello:\n"
      "    case MsgType::kError:\n"
      "      return true;\n"
      "  }\n"
      "  return false;\n"
      "}\n"
      "const char* MsgTypeToString(MsgType t) {\n"
      "  switch (t) {\n"
      "    case MsgType::kHello: return \"Hello\";\n"
      "  }\n"
      "  return \"?\";\n"
      "}\n";
  const Tree tree = MakeTree({{"src/net/wire.h", kWireH},
                              {"src/net/wire.cc", kWireCcNoErrorString},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestComplete}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kError"), std::string::npos);
  EXPECT_NE(findings[0].message.find("MsgTypeToString"), std::string::npos);
}

TEST(Wire, MissingGoldenCorpusEntryIsFlagged) {
  const char kNetTestMissingError[] =
      "// sqlint-golden-corpus-begin\n"
      "GoldenFrame(MsgType::kHello, \"...\");\n"
      "// sqlint-golden-corpus-end\n"
      "// sqlint-rpc-metrics-begin\n"
      "ExpectPerTypeRpcCounters(\"Hello\");\n"
      "ExpectPerTypeRpcCounters(\"Error\");\n"
      "// sqlint-rpc-metrics-end\n";
  const Tree tree = MakeTree({{"src/net/wire.h", kWireH},
                              {"src/net/wire.cc", kWireCcComplete},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestMissingError}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("golden-frame"), std::string::npos);
}

TEST(Wire, MissingRpcMetricsCoverageIsFlagged) {
  // kError is in the golden corpus but absent from the rpc-metrics coverage
  // block: the new-message-type-without-telemetry failure mode.
  const char kNetTestNoErrorMetrics[] =
      "// sqlint-golden-corpus-begin\n"
      "GoldenFrame(MsgType::kHello, \"...\");\n"
      "GoldenFrame(MsgType::kError, \"...\");\n"
      "// sqlint-golden-corpus-end\n"
      "// sqlint-rpc-metrics-begin\n"
      "ExpectPerTypeRpcCounters(\"Hello\");\n"
      "// sqlint-rpc-metrics-end\n";
  const Tree tree = MakeTree({{"src/net/wire.h", kWireH},
                              {"src/net/wire.cc", kWireCcComplete},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestNoErrorMetrics}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kError"), std::string::npos);
  EXPECT_NE(findings[0].message.find("RPC-metrics"), std::string::npos);
}

TEST(Wire, MissingRpcMetricsMarkersAreFlagged) {
  const char kNetTestNoMarkers[] =
      "// sqlint-golden-corpus-begin\n"
      "GoldenFrame(MsgType::kHello, \"...\");\n"
      "GoldenFrame(MsgType::kError, \"...\");\n"
      "// sqlint-golden-corpus-end\n";
  const Tree tree = MakeTree({{"src/net/wire.h", kWireH},
                              {"src/net/wire.cc", kWireCcComplete},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestNoMarkers}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("sqlint-rpc-metrics-begin"),
            std::string::npos);
}

TEST(Wire, UnreferencedMsgTypeIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/net/wire.h", kWireH},
       {"src/net/wire.cc", kWireCcComplete},
       {"src/net/client.cc",
        "void Send() { Encode(MsgType::kHello); }\n"},  // never kError
       {"tests/net_test.cc", kNetTestComplete}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no encode/decode site"),
            std::string::npos);
}

TEST(Wire, RetiredIdReuseIsFlagged) {
  // A retired request id and a retired reply id, from a list that spans
  // lines.
  for (const std::string id : {"2", "65"}) {
    const std::string wire_h =
        "inline constexpr std::array<uint8_t, 4> kRetiredMsgTypes = {\n"
        "    7, 2,\n"
        "    65, 66};\n"
        "enum class MsgType : uint8_t {\n"
        "  kHello = 1,\n"
        "  kError = " + id + ",\n"
        "};\n";
    const Tree tree = MakeTree({{"src/net/wire.h", wire_h},
                                {"src/net/wire.cc", kWireCcComplete},
                                {"src/net/client.cc", kNetUser},
                                {"tests/net_test.cc", kNetTestComplete}});
    const auto findings = RunPass(PassWire, tree);
    ASSERT_EQ(findings.size(), 1u) << id;
    EXPECT_NE(findings[0].message.find("kError"), std::string::npos);
    EXPECT_NE(findings[0].message.find("retired id " + id), std::string::npos);
  }
}

TEST(Wire, RetiredIdsNotInUseAreClean) {
  const char kWireHRetiredElsewhere[] =
      "inline constexpr std::array<uint8_t, 2> kRetiredMsgTypes = {3, 66};\n"
      "enum class MsgType : uint8_t {\n"
      "  kHello = 1,\n"
      "  kError = 2,\n"
      "};\n";
  const Tree tree = MakeTree({{"src/net/wire.h", kWireHRetiredElsewhere},
                              {"src/net/wire.cc", kWireCcComplete},
                              {"src/net/client.cc", kNetUser},
                              {"tests/net_test.cc", kNetTestComplete}});
  EXPECT_TRUE(RunPass(PassWire, tree).empty());
}

// Both fixture types have values below 64, so both are request types the
// node's Dispatch must serve.
TEST(Wire, DispatchedRequestTypesAreClean) {
  const Tree tree = MakeTree(
      {{"src/net/wire.h", kWireH},
       {"src/net/wire.cc", kWireCcComplete},
       {"src/net/client.cc", kNetUser},
       {"src/net/node_server.cc",
        "Result<std::string> NodeServer::Dispatch(const Frame& request) {\n"
        "  switch (request.type) {\n"
        "    case MsgType::kHello:\n"
        "      return Hello();\n"
        "    case MsgType::kError:\n"
        "      return Error();\n"
        "  }\n"
        "}\n"},
       {"tests/net_test.cc", kNetTestComplete}});
  EXPECT_TRUE(RunPass(PassWire, tree).empty());
}

TEST(Wire, UndispatchedRequestTypeIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/net/wire.h", kWireH},
       {"src/net/wire.cc", kWireCcComplete},
       {"src/net/client.cc", kNetUser},
       {"src/net/node_server.cc",
        "Result<std::string> NodeServer::Dispatch(const Frame& request) {\n"
        "  switch (request.type) {\n"
        "    case MsgType::kHello:\n"
        "      *reply_type = MsgType::kError;\n"
        "      return Hello();\n"
        "  }\n"
        "}\n"},
       {"tests/net_test.cc", kNetTestComplete}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kError"), std::string::npos);
  EXPECT_NE(findings[0].message.find("NodeServer::Dispatch"),
            std::string::npos);
}

TEST(Wire, RecordTypeNeedsEncodeAndDecodeSites) {
  const Tree tree = MakeTree(
      {{"src/storage/snapshot_log.cc",
        "enum RecordType : uint8_t {\n"
        "  kDeltaRecord = 1,\n"
        "  kCommitRecord = 2,\n"
        "};\n"
        "void Write() { Put(kDeltaRecord); Put(kCommitRecord); }\n"
        "void Read() { if (t == kDeltaRecord) {} }\n"}});
  const auto findings = RunPass(PassWire, tree);
  ASSERT_EQ(findings.size(), 1u);  // kCommitRecord has only the encode site
  EXPECT_NE(findings[0].message.find("kCommitRecord"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass 3: lock discipline

TEST(Locks, RankedMutexWithGuardedFieldsIsClean) {
  const Tree tree = MakeTree(
      {{"src/state/x.h",
        "class Registry {\n"
        " public:\n"
        "  void Add();\n"
        "  int Size() const { return 0; }\n"
        " private:\n"
        "  mutable sq::Mutex mu_{lockrank::kStateRegistry, \"registry\"};\n"
        "  std::vector<int> items_ SQ_GUARDED_BY(mu_);\n"
        "  std::atomic<int> hits_{0};\n"
        "  const size_t capacity_ = 8;\n"
        "  static constexpr int kMax = 4;\n"
        "};\n"}});
  EXPECT_TRUE(RunPass(PassLocks, tree).empty());
}

TEST(Locks, UnrankedMutexIsFlagged) {
  const Tree tree = MakeTree({{"src/state/x.h",
                               "class Registry {\n"
                               "  sq::Mutex mu_;\n"
                               "};\n"}});
  const auto findings = RunPass(PassLocks, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("lockrank"), std::string::npos);
}

TEST(Locks, UnrankedExemptionSuppresses) {
  const Tree tree = MakeTree(
      {{"src/state/x.h",
        "class Registry {\n"
        "  // sq-lint: unranked-ok(rank injected via constructor)\n"
        "  sq::Mutex mu_;\n"
        "};\n"}});
  EXPECT_TRUE(RunPass(PassLocks, tree).empty());
}

TEST(Locks, UnguardedSiblingFieldIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/state/x.h",
        "class Registry {\n"
        "  sq::Mutex mu_{lockrank::kLeaf, \"r\"};\n"
        "  std::vector<int> items_;\n"
        "};\n"}});
  const auto findings = RunPass(PassLocks, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("items_"), std::string::npos);
}

TEST(Locks, ClassWithoutMutexIsNotHeldToGuards) {
  const Tree tree = MakeTree({{"src/state/x.h",
                               "struct Row {\n"
                               "  std::string key;\n"
                               "  std::vector<int> values;\n"
                               "};\n"}});
  EXPECT_TRUE(RunPass(PassLocks, tree).empty());
}

TEST(Locks, InlineBodiesAndNestedTypesDoNotConfuseMembers) {
  const Tree tree = MakeTree(
      {{"src/state/x.h",
        "class Registry {\n"
        " public:\n"
        "  int Size() const {\n"
        "    int total = 0;\n"
        "    for (auto& e : entries_) { total += e; }\n"
        "    return total;\n"
        "  }\n"
        "  struct Entry {\n"
        "    int weight;\n"
        "  };\n"
        " private:\n"
        "  sq::Mutex mu_{lockrank::kLeaf, \"r\"};\n"
        "  std::vector<int> entries_ SQ_GUARDED_BY(mu_);\n"
        "};\n"}});
  EXPECT_TRUE(RunPass(PassLocks, tree).empty());
}

TEST(Locks, RankTableCrossCheck) {
  const std::string mutex_h =
      "namespace lockrank {\n"
      "inline constexpr int kUnranked = -1;\n"
      "inline constexpr int kKvGrid = 400;\n"
      "inline constexpr int kLeaf = 900;\n"
      "}  // namespace lockrank\n";
  const std::string readme_good =
      "| Rank | Constant |\n"
      "|---|---|\n"
      "| 400 | `kKvGrid` |\n"
      "| 900 | `kLeaf` |\n";
  EXPECT_TRUE(RunPass(PassLocks, MakeTree({{"src/common/mutex.h", mutex_h},
                                           {"README.md", readme_good}}))
                  .empty());

  const std::string readme_stale =
      "| Rank | Constant |\n"
      "|---|---|\n"
      "| 410 | `kKvGrid` |\n"
      "| 900 | `kGone` |\n";
  const auto findings = RunPass(
      PassLocks, MakeTree({{"src/common/mutex.h", mutex_h},
                           {"README.md", readme_stale}}));
  ASSERT_EQ(findings.size(), 3u);  // kKvGrid mismatch, kLeaf missing, kGone
}

// ---------------------------------------------------------------------------
// Pass 4: status discipline

TEST(Status, DiscardedCallNeedsRationale) {
  const Tree tree = MakeTree(
      {{"src/net/x.cc",
        "void F() {\n"
        "  (void)conn->Close();\n"
        "  // best effort; the socket is going away either way\n"
        "  (void)conn->Flush();\n"
        "  (void)unused_param;\n"
        "  (void)0;\n"
        "}\n"}});
  const auto findings = RunPass(PassStatus, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(Status, ContiguousDiscardBlockSharesOneRationale) {
  const Tree tree = MakeTree(
      {{"src/net/x.cc",
        "void F() {\n"
        "  // teardown is best-effort\n"
        "  (void)a.Close();\n"
        "  (void)b.Close();\n"
        "  (void)c.Close();\n"
        "}\n"}});
  EXPECT_TRUE(RunPass(PassStatus, tree).empty());
}

TEST(Status, MultiLineDiscardStatement) {
  const Tree tree = MakeTree(
      {{"src/storage/x.cc",
        "void F() {\n"
        "  (void)WriteRecord(\n"
        "      payload);\n"
        "}\n"}});
  const auto findings = RunPass(PassStatus, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

// ---------------------------------------------------------------------------
// Pass 5: metric registry

const char kRegistry[] =
    "namespace sq::metric_names {\n"
    "\n"
    "/// counter — records dequeued into operator instances\n"
    "inline constexpr char kRecordsIn[] = \"dataflow.records_in\";\n"
    "\n"
    "/// gauge — live operator instances\n"
    "inline constexpr char kOperators[] = \"dataflow.operators\";\n"
    "\n"
    "}  // namespace sq::metric_names\n";

const char kRegistryReadme[] =
    "| `dataflow.records_in` | counter | records dequeued |\n"
    "| `dataflow.operators` | gauge | live operator instances |\n";

TEST(Metrics, RegisteredAndUsedIsClean) {
  const Tree tree = MakeTree(
      {{"src/common/metric_names.h", kRegistry},
       {"src/dataflow/x.cc",
        "void F() { metrics.GetCounter(metric_names::kRecordsIn).Add(1); }\n"
        "void G() { metrics.GetGauge(metric_names::kOperators).Set(2); }\n"},
       {"README.md", kRegistryReadme}});
  EXPECT_TRUE(RunPass(PassMetrics, tree).empty());
}

TEST(Metrics, InlineLiteralIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/common/metric_names.h", kRegistry},
       {"src/dataflow/x.cc",
        "void F() { metrics.GetCounter(metric_names::kRecordsIn).Add(1); }\n"
        "void G() { metrics.GetGauge(metric_names::kOperators).Set(2); }\n"
        "void H() { metrics.GetCounter(\"rogue.name\").Add(1); }\n"},
       {"README.md", kRegistryReadme}});
  const auto findings = RunPass(PassMetrics, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("metric_names.h"), std::string::npos);
}

TEST(Metrics, UnusedRegistryEntryIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/common/metric_names.h", kRegistry},
       {"src/dataflow/x.cc",
        "void F() { metrics.GetCounter(metric_names::kRecordsIn).Add(1); }\n"},
       {"README.md", kRegistryReadme}});
  const auto findings = RunPass(PassMetrics, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kOperators"), std::string::npos);
}

TEST(Metrics, MissingReadmeRowIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/common/metric_names.h", kRegistry},
       {"src/dataflow/x.cc",
        "void F() { metrics.GetCounter(metric_names::kRecordsIn).Add(1); }\n"
        "void G() { metrics.GetGauge(metric_names::kOperators).Set(2); }\n"},
       {"README.md",
        "| `dataflow.records_in` | counter | records dequeued |\n"}});
  const auto findings = RunPass(PassMetrics, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("dataflow.operators"),
            std::string::npos);
}

TEST(Metrics, MissingDocCommentIsFlagged) {
  const Tree tree = MakeTree(
      {{"src/common/metric_names.h",
        "inline constexpr char kBare[] = \"a.b\";\n"},
       {"src/sql/x.cc",
        "void F() { metrics.GetCounter(metric_names::kBare).Add(1); }\n"},
       {"README.md", "| `a.b` | ? | ? |\n"}});
  const auto findings = RunPass(PassMetrics, tree);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("doc comment"), std::string::npos);
}

TEST(Metrics, DumpTableRendersRegistry) {
  const Tree tree = MakeTree({{"src/common/metric_names.h", kRegistry}});
  const std::string table = DumpMetricsTable(tree);
  EXPECT_NE(table.find("| `dataflow.records_in` | counter | records "
                       "dequeued into operator instances |"),
            std::string::npos);
  EXPECT_NE(table.find("| `dataflow.operators` | gauge |"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Seeded-violation self-test: plant one violation per pass in a scratch tree
// on disk and assert RunSqlint reports it with exit code 1. This proves the
// end-to-end binary (LoadTree + pass + reporting) catches each class of
// violation — a pass silently going blind fails this test.

class SeededViolationTest : public ::testing::Test {
 protected:
  fs::path MakeRoot(const std::string& name) {
    const fs::path root = fs::path(::testing::TempDir()) / "sqlint_seed" /
                          name;
    fs::remove_all(root);
    fs::create_directories(root / "src");
    return root;
  }

  static void WriteFile(const fs::path& path, const std::string& contents) {
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }

  static int Run(const fs::path& root, const std::string& pass,
                 std::string* output) {
    std::ostringstream out;
    const int rc = RunSqlint(root, {pass}, out);
    *output = out.str();
    return rc;
  }
};

TEST_F(SeededViolationTest, DeterminismPassFailsTheBuild) {
  const fs::path root = MakeRoot("determinism");
  WriteFile(root / "src/sql/exec.cc",
            "std::unordered_map<int, int> merged;\n");
  std::string output;
  EXPECT_EQ(Run(root, "determinism", &output), 1);
  EXPECT_NE(output.find("[determinism]"), std::string::npos);
}

TEST_F(SeededViolationTest, WirePassFailsTheBuild) {
  const fs::path root = MakeRoot("wire");
  WriteFile(root / "src/net/wire.h",
            "enum class MsgType : uint8_t {\n"
            "  kHello = 1,\n"
            "};\n");
  WriteFile(root / "src/net/wire.cc",
            "bool IsKnownMsgType(MsgType t) {\n"
            "  return t == MsgType::kHello;\n"
            "}\n"
            "const char* MsgTypeToString(MsgType t) {\n"
            "  return \"?\";\n"  // kHello entry deliberately missing
            "}\n");
  WriteFile(root / "src/net/client.cc",
            "void Send() { Encode(MsgType::kHello); }\n");
  std::string output;
  EXPECT_EQ(Run(root, "wire", &output), 1);
  EXPECT_NE(output.find("[wire]"), std::string::npos);
  EXPECT_NE(output.find("MsgTypeToString"), std::string::npos);
}

TEST_F(SeededViolationTest, LocksPassFailsTheBuild) {
  const fs::path root = MakeRoot("locks");
  WriteFile(root / "src/kv/grid.h",
            "class Grid {\n"
            "  sq::Mutex mu_;\n"  // no lockrank
            "};\n");
  std::string output;
  EXPECT_EQ(Run(root, "locks", &output), 1);
  EXPECT_NE(output.find("[locks]"), std::string::npos);
}

TEST_F(SeededViolationTest, StatusPassFailsTheBuild) {
  const fs::path root = MakeRoot("status");
  WriteFile(root / "src/net/conn.cc",
            "void Teardown() {\n"
            "  (void)socket.Close();\n"  // no rationale comment
            "}\n");
  std::string output;
  EXPECT_EQ(Run(root, "status", &output), 1);
  EXPECT_NE(output.find("[status]"), std::string::npos);
}

TEST_F(SeededViolationTest, MetricsPassFailsTheBuild) {
  const fs::path root = MakeRoot("metrics");
  WriteFile(root / "src/sql/exec.cc",
            "void F() { metrics.GetCounter(\"sneaky.name\").Add(1); }\n");
  std::string output;
  EXPECT_EQ(Run(root, "metrics", &output), 1);
  EXPECT_NE(output.find("[metrics]"), std::string::npos);
}

TEST_F(SeededViolationTest, CleanTreeExitsZero) {
  const fs::path root = MakeRoot("clean");
  WriteFile(root / "src/common/ok.h", "inline int One() { return 1; }\n");
  std::ostringstream out;
  EXPECT_EQ(RunSqlint(root, {}, out), 0);
  EXPECT_NE(out.str().find("clean"), std::string::npos);
}

TEST_F(SeededViolationTest, UnknownPassIsUsageError) {
  const fs::path root = MakeRoot("usage");
  WriteFile(root / "src/common/ok.h", "inline int One() { return 1; }\n");
  std::ostringstream out;
  EXPECT_EQ(RunSqlint(root, {"bogus"}, out), 2);
}

// The repo itself must stay lint-clean; the `sqlint` ctest enforces that,
// and this smoke check keeps the unit binary honest about the real tree
// shape (wire.h, mutex.h, metric_names.h all present and parseable).
TEST(RealTree, LoadsAndFindsAnchorFiles) {
  const Tree tree = LoadTree(SQLINT_REPO_ROOT);
  ASSERT_FALSE(tree.files.empty());
  EXPECT_NE(tree.Find("src/net/wire.h"), nullptr);
  EXPECT_NE(tree.Find("src/common/mutex.h"), nullptr);
  EXPECT_NE(tree.Find("src/common/metric_names.h"), nullptr);
  EXPECT_NE(tree.Find("tests/net_test.cc"), nullptr);
  EXPECT_NE(tree.Find("README.md"), nullptr);
}

}  // namespace
}  // namespace sq::lint
