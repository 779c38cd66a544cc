#include "sqlint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

namespace sq::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// Collapses every whitespace run to a single space.
std::string CollapseWs(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_ws = true;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!in_ws) out.push_back(' ');
      in_ws = true;
    } else {
      out.push_back(c);
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::vector<std::string> IdentTokens(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : s) {
    if (IsIdentChar(c)) {
      current.push_back(c);
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

bool ContainsAnyToken(std::string_view s,
                      std::initializer_list<std::string_view> tokens) {
  for (std::string_view t : tokens) {
    if (HasToken(s, t)) return true;
  }
  return false;
}

void Add(std::vector<Finding>* findings, const SourceFile& file, size_t line,
         std::string pass, std::string message) {
  findings->push_back(
      Finding{file.path, line, std::move(pass), std::move(message)});
}

bool InLayer(std::string_view path,
             std::initializer_list<std::string_view> layers) {
  for (std::string_view layer : layers) {
    if (StartsWith(path, layer)) return true;
  }
  return false;
}

bool IsPreprocessor(std::string_view code) {
  const std::string t = Trim(code);
  return !t.empty() && t[0] == '#';
}

}  // namespace

const SourceFile* Tree::Find(std::string_view rel_path) const {
  for (const SourceFile& f : files) {
    if (f.path == rel_path) return &f;
  }
  return nullptr;
}

Tree LoadTree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  Tree tree;
  tree.root = root;

  const fs::path src = root / "src";
  std::error_code ec;
  if (fs::is_directory(src, ec)) {
    for (auto it = fs::recursive_directory_iterator(src, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::string contents;
      if (!ReadFileToString(it->path(), &contents)) continue;
      const std::string rel =
          fs::relative(it->path(), root).generic_string();
      tree.files.push_back(ScanSource(rel, contents));
    }
  }
  // Deterministic finding order regardless of directory iteration order.
  std::sort(tree.files.begin(), tree.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  std::string contents;
  if (ReadFileToString(root / "tests" / "net_test.cc", &contents)) {
    tree.files.push_back(ScanSource("tests/net_test.cc", contents));
  }
  if (ReadFileToString(root / "README.md", &contents)) {
    tree.files.push_back(ScanPlainText("README.md", contents));
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Exemption grammar

namespace {

const std::set<std::string>& KnownExemptionRules() {
  static const std::set<std::string> kRules = {
      "unordered", "wallclock", "rand",        "unranked",
      "unguarded", "discard",   "metric-name",
  };
  return kRules;
}

}  // namespace

void CheckExemptionGrammar(const Tree& tree, std::vector<Finding>* findings) {
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& comment = file.lines[i].comment;
      if (comment.find("sq-lint") == std::string::npos) continue;
      std::string rule;
      std::string reason;
      if (!ParseExemption(comment, &rule, &reason)) {
        Add(findings, file, i + 1, "exemption",
            "malformed sq-lint marker (expected 'sq-lint: <rule>-ok(reason)')");
        continue;
      }
      const std::string suffix = "-ok";
      if (rule.size() <= suffix.size() ||
          rule.substr(rule.size() - suffix.size()) != suffix) {
        Add(findings, file, i + 1, "exemption",
            "sq-lint rule '" + rule + "' must end in -ok");
        continue;
      }
      const std::string base = rule.substr(0, rule.size() - suffix.size());
      if (KnownExemptionRules().count(base) == 0) {
        Add(findings, file, i + 1, "exemption",
            "unknown sq-lint rule '" + base + "'");
      }
      if (reason.empty()) {
        Add(findings, file, i + 1, "exemption",
            "sq-lint exemption needs a non-empty reason: '" + rule +
                "(<why>)'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 1: determinism

void PassDeterminism(const Tree& tree, std::vector<Finding>* findings) {
  const std::initializer_list<std::string_view> kLayers = {
      "src/sql/", "src/query/", "src/net/", "src/storage/"};
  for (const SourceFile& file : tree.files) {
    if (!InLayer(file.path, kLayers)) continue;
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      if (IsPreprocessor(code)) continue;
      const size_t line = i + 1;
      if (ContainsAnyToken(code, {"unordered_map", "unordered_set"}) &&
          !HasExemption(file, line, "unordered")) {
        Add(findings, file, line, "determinism",
            "unordered container in a result-producing layer: iteration "
            "order can leak into merged/serialized output; sort before "
            "emission or exempt with // sq-lint: unordered-ok(reason)");
      }
      if (ContainsAnyToken(code, {"system_clock", "gettimeofday"}) &&
          !HasExemption(file, line, "wallclock")) {
        Add(findings, file, line, "determinism",
            "wall-clock read in a result-producing layer; thread the "
            "timestamp through the request (QueryOptions / "
            "local_timestamp_micros) or exempt with "
            "// sq-lint: wallclock-ok(reason)");
      }
      if (ContainsAnyToken(code,
                           {"rand", "srand", "random_device", "mt19937",
                            "drand48"}) &&
          !HasExemption(file, line, "rand")) {
        Add(findings, file, line, "determinism",
            "nondeterministic random source in a result-producing layer; "
            "use a seeded sq::Rng owned by the caller or exempt with "
            "// sq-lint: rand-ok(reason)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: wire/serde exhaustiveness

namespace {

/// Enumerators of the first `enum <needle>` block in `file`, with the block's
/// line range [begin, end] (1-based, inclusive).
struct EnumBlock {
  std::vector<std::string> enumerators;
  /// Explicit `= <n>` value of each enumerator, or -1 when it has none.
  std::vector<long> values;
  size_t begin = 0;
  size_t end = 0;
};

std::optional<EnumBlock> ParseEnum(const SourceFile& file,
                                   std::string_view head) {
  EnumBlock block;
  bool in_block = false;
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (!in_block) {
      if (code.find(head) != std::string::npos) {
        in_block = true;
        block.begin = i + 1;
      }
      continue;
    }
    if (code.find("};") != std::string::npos) {
      block.end = i + 1;
      return block;
    }
    // One enumerator per line (the project style): the first identifier of
    // the form k<Upper>... on the line.
    for (const std::string& token : IdentTokens(code)) {
      if (token.size() >= 2 && token[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(token[1])) != 0) {
        block.enumerators.push_back(token);
        const size_t eq = code.find('=', code.find(token) + token.size());
        block.values.push_back(
            eq == std::string::npos ? -1
                                    : std::strtol(code.c_str() + eq + 1,
                                                  nullptr, 0));
        break;
      }
    }
  }
  return std::nullopt;
}

/// [begin, end] line range of the function whose signature contains
/// `signature`; the body ends at the first subsequent line that is exactly
/// "}" (column 0, the project's formatting).
std::optional<std::pair<size_t, size_t>> FindFunctionRegion(
    const SourceFile& file, std::string_view signature) {
  for (size_t i = 0; i < file.lines.size(); ++i) {
    if (file.lines[i].code.find(signature) == std::string::npos) continue;
    for (size_t j = i + 1; j < file.lines.size(); ++j) {
      if (Trim(file.lines[j].code) == "}" && file.lines[j].code[0] == '}') {
        return std::make_pair(i + 1, j + 1);
      }
    }
    return std::nullopt;
  }
  return std::nullopt;
}

bool RegionHasToken(const SourceFile& file, std::pair<size_t, size_t> region,
                    std::string_view token, bool needs_string_literal) {
  for (size_t line = region.first; line <= region.second; ++line) {
    const std::string_view code = file.CodeAt(line);
    if (!HasToken(code, token)) continue;
    if (!needs_string_literal || code.find('"') != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

void PassWire(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* wire_h = tree.Find("src/net/wire.h");
  const SourceFile* wire_cc = tree.Find("src/net/wire.cc");
  if (wire_h != nullptr && wire_cc != nullptr) {
    const auto msg_types = ParseEnum(*wire_h, "enum class MsgType");
    if (!msg_types.has_value() || msg_types->enumerators.empty()) {
      Add(findings, *wire_h, 1, "wire",
          "could not parse 'enum class MsgType' block");
    } else {
      const auto known = FindFunctionRegion(*wire_cc, "IsKnownMsgType(");
      const auto to_string = FindFunctionRegion(*wire_cc, "MsgTypeToString(");
      if (!known.has_value()) {
        Add(findings, *wire_cc, 1, "wire",
            "could not locate IsKnownMsgType() in wire.cc");
      }
      if (!to_string.has_value()) {
        Add(findings, *wire_cc, 1, "wire",
            "could not locate MsgTypeToString() in wire.cc");
      }

      // Request types (values below 64) are served by NodeServer::Dispatch;
      // one without a case there only fails at runtime, as "not a request
      // type".
      const SourceFile* server_cc = tree.Find("src/net/node_server.cc");
      std::optional<std::pair<size_t, size_t>> dispatch;
      if (server_cc != nullptr) {
        dispatch = FindFunctionRegion(*server_cc, "NodeServer::Dispatch(");
        if (!dispatch.has_value()) {
          Add(findings, *server_cc, 1, "wire",
              "could not locate NodeServer::Dispatch() in node_server.cc");
        }
      }

      const SourceFile* net_test = tree.Find("tests/net_test.cc");
      std::pair<size_t, size_t> corpus{0, 0};
      std::pair<size_t, size_t> rpc_metrics{0, 0};
      if (net_test != nullptr) {
        for (size_t i = 0; i < net_test->lines.size(); ++i) {
          const std::string& comment = net_test->lines[i].comment;
          if (comment.find("sqlint-golden-corpus-begin") !=
              std::string::npos) {
            corpus.first = i + 1;
          } else if (comment.find("sqlint-golden-corpus-end") !=
                     std::string::npos) {
            corpus.second = i + 1;
          } else if (comment.find("sqlint-rpc-metrics-begin") !=
                     std::string::npos) {
            rpc_metrics.first = i + 1;
          } else if (comment.find("sqlint-rpc-metrics-end") !=
                     std::string::npos) {
            rpc_metrics.second = i + 1;
          }
        }
        if (corpus.first == 0 || corpus.second == 0) {
          Add(findings, *net_test, 1, "wire",
              "golden-frame corpus markers (sqlint-golden-corpus-begin/end) "
              "missing from tests/net_test.cc");
        }
        if (rpc_metrics.first == 0 || rpc_metrics.second == 0) {
          Add(findings, *net_test, 1, "wire",
              "per-type RPC-metrics coverage markers "
              "(sqlint-rpc-metrics-begin/end) missing from "
              "tests/net_test.cc");
        }
      }

      for (size_t i = 0; i < msg_types->enumerators.size(); ++i) {
        const std::string& e = msg_types->enumerators[i];
        const long value = msg_types->values[i];
        if (dispatch.has_value() && value >= 0 && value < 64) {
          bool dispatched = false;
          for (size_t line = dispatch->first; line <= dispatch->second;
               ++line) {
            const std::string_view code = server_cc->CodeAt(line);
            if (HasToken(code, "case") && HasToken(code, e)) {
              dispatched = true;
              break;
            }
          }
          if (!dispatched) {
            Add(findings, *wire_h, msg_types->begin, "wire",
                "request MsgType::" + e + " has no case in "
                "NodeServer::Dispatch(): nodes answer it \"not a request "
                "type\"");
          }
        }
        if (known.has_value() &&
            !RegionHasToken(*wire_cc, *known, e, false)) {
          Add(findings, *wire_h, msg_types->begin, "wire",
              "MsgType::" + e + " missing from IsKnownMsgType(): frames of "
              "this type will be rejected as corrupt");
        }
        if (to_string.has_value() &&
            !RegionHasToken(*wire_cc, *to_string, e, true)) {
          Add(findings, *wire_h, msg_types->begin, "wire",
              "MsgType::" + e + " has no MsgTypeToString() entry");
        }
        bool used = false;
        const std::string qualified = "MsgType::" + e;
        for (const SourceFile& file : tree.files) {
          if (!StartsWith(file.path, "src/net/") ||
              file.path == "src/net/wire.h" ||
              file.path == "src/net/wire.cc") {
            continue;
          }
          for (const SourceLine& l : file.lines) {
            if (l.code.find(qualified) != std::string::npos) {
              used = true;
              break;
            }
          }
          if (used) break;
        }
        if (!used) {
          Add(findings, *wire_h, msg_types->begin, "wire",
              "MsgType::" + e + " has no encode/decode site outside the "
              "codec (src/net/*.cc never references it)");
        }
        if (net_test != nullptr && corpus.first != 0 && corpus.second != 0) {
          bool in_corpus = false;
          for (size_t line = corpus.first; line <= corpus.second; ++line) {
            if (HasToken(net_test->CodeAt(line), e)) {
              in_corpus = true;
              break;
            }
          }
          if (!in_corpus) {
            Add(findings, *net_test, corpus.first, "wire",
                "MsgType::" + e + " has no golden-frame corpus entry "
                "(wire-format drift would go unnoticed)");
          }
        }
        // Per-type RPC metrics: the name MsgTypeToString() returns is the
        // suffix of the net.client.rpcs.* / net.server.rpcs.* counters, and
        // the coverage test between the rpc-metrics markers must list it —
        // otherwise a new message type ships without per-type telemetry.
        if (net_test != nullptr && to_string.has_value() &&
            rpc_metrics.first != 0 && rpc_metrics.second != 0) {
          std::string wire_name;
          for (size_t line = to_string->first; line <= to_string->second;
               ++line) {
            const std::string_view code = wire_cc->CodeAt(line);
            if (!HasToken(code, e)) continue;
            const size_t open = code.find('"');
            const size_t close = open == std::string_view::npos
                                     ? std::string_view::npos
                                     : code.find('"', open + 1);
            if (open != std::string_view::npos &&
                close != std::string_view::npos) {
              wire_name = std::string(code.substr(open + 1, close - open - 1));
            }
            break;
          }
          if (!wire_name.empty()) {
            const std::string quoted = "\"" + wire_name + "\"";
            bool covered = false;
            for (size_t line = rpc_metrics.first; line <= rpc_metrics.second;
                 ++line) {
              if (net_test->CodeAt(line).find(quoted) !=
                  std::string_view::npos) {
                covered = true;
                break;
              }
            }
            if (!covered) {
              Add(findings, *net_test, rpc_metrics.first, "wire",
                  "MsgType::" + e + " (" + quoted + ") is missing from the "
                  "per-type RPC-metrics coverage test (a new message type "
                  "must register net.client.rpcs.* / net.server.rpcs.* "
                  "counters)");
            }
          }
        }
      }
    }
  }

  // Serde record types of the durable snapshot log: every type needs both an
  // encode site and a decode/dispatch site in the log implementation.
  const SourceFile* log_cc = tree.Find("src/storage/snapshot_log.cc");
  if (log_cc != nullptr) {
    const auto records = ParseEnum(*log_cc, "enum RecordType");
    if (records.has_value()) {
      for (const std::string& e : records->enumerators) {
        size_t references = 0;
        for (size_t i = 0; i < log_cc->lines.size(); ++i) {
          const size_t line = i + 1;
          if (line >= records->begin && line <= records->end) continue;
          if (HasToken(log_cc->lines[i].code, e)) ++references;
        }
        if (references < 2) {
          Add(findings, *log_cc, records->begin, "wire",
              "RecordType " + e + " needs both an encode site and a "
              "decode/dispatch site in snapshot_log.cc (found " +
                  std::to_string(references) + " reference(s))");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 3: lock-annotation completeness

namespace {

struct Member {
  std::string stmt;  // collapsed whitespace, trailing ';' stripped
  size_t line = 0;   // first line of the statement
};

struct ClassScope {
  bool is_class = false;
  std::vector<Member> members;
  std::string pending;       // statement accumulator
  size_t pending_line = 0;   // first line of the accumulating statement
  bool after_brace = false;  // just closed a nested brace at member depth
};

/// True if `stmt` (collapsed) declares an sq::Mutex/SharedMutex member;
/// `*has_rank` reports whether the declaration names a lockrank constant.
bool IsMutexMember(const std::string& stmt, bool* has_rank) {
  std::string s = stmt;
  for (std::string_view prefix :
       {"mutable ", "sq::", "mutable sq::"}) {
    if (StartsWith(s, prefix)) s = s.substr(prefix.size());
  }
  if (!StartsWith(s, "Mutex ") && !StartsWith(s, "SharedMutex ")) {
    return false;
  }
  const std::vector<std::string> tokens = IdentTokens(s);
  if (tokens.size() < 2) return false;
  *has_rank = s.find("lockrank::") != std::string::npos;
  return true;
}

/// Strips template argument lists so parentheses inside std::function<...>
/// and friends do not read as function declarators.
std::string StripTemplateArgs(const std::string& s) {
  std::string out;
  int depth = 0;
  for (char c : s) {
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth > 0) --depth;
    } else if (depth == 0) {
      out.push_back(c);
    }
  }
  return out;
}

/// Analyzes one member statement of a mutex-holding class; returns the
/// member name if the field needs an SQ_GUARDED_BY (or exemption).
std::optional<std::string> UnguardedFieldName(const std::string& stmt) {
  std::string s = stmt;
  // Members that carry a guard annotation are what the pass wants.
  if (s.find("SQ_GUARDED_BY") != std::string::npos ||
      s.find("SQ_PT_GUARDED_BY") != std::string::npos) {
    return std::nullopt;
  }
  // Skip non-field statements and fields that synchronize themselves.
  static const std::vector<std::string> kSkipLeading = {
      "using",    "typedef", "friend",  "static", "constexpr", "enum",
      "class",    "struct",  "union",   "template", "explicit", "virtual",
      "operator", "inline",  "public",  "private",  "protected",
  };
  const std::vector<std::string> raw_tokens = IdentTokens(s);
  if (raw_tokens.empty()) return std::nullopt;
  for (const std::string& skip : kSkipLeading) {
    if (raw_tokens.front() == skip) return std::nullopt;
  }
  if (ContainsAnyToken(s, {"Mutex", "SharedMutex", "CondVar", "atomic",
                           "Counter", "Gauge", "Histogram", "const",
                           "constexpr"})) {
    // Mutexes/condvars are the synchronization itself; atomics synchronize
    // themselves; Counter/Gauge/Histogram handles are internally
    // synchronized; const members are immutable after construction.
    return std::nullopt;
  }
  // Cut initializers and array extents, then reject function declarators.
  for (char cut : {'=', '{', '['}) {
    const size_t pos = s.find(cut);
    if (pos != std::string::npos) s = s.substr(0, pos);
  }
  s = StripTemplateArgs(s);
  if (s.find('(') != std::string::npos) return std::nullopt;
  const std::vector<std::string> tokens = IdentTokens(s);
  if (tokens.size() < 2) return std::nullopt;
  return tokens.back();
}

void AnalyzeClassMembers(const SourceFile& file, const ClassScope& scope,
                         std::vector<Finding>* findings) {
  bool has_mutex = false;
  for (const Member& m : scope.members) {
    bool has_rank = false;
    if (IsMutexMember(m.stmt, &has_rank)) {
      has_mutex = true;
      if (!has_rank && !HasExemption(file, m.line, "unranked")) {
        Add(findings, file, m.line, "locks",
            "mutex member without a lockrank:: constant; rank it or exempt "
            "with // sq-lint: unranked-ok(reason)");
      }
    }
  }
  if (!has_mutex) return;
  for (const Member& m : scope.members) {
    bool ignored = false;
    if (IsMutexMember(m.stmt, &ignored)) continue;
    const std::optional<std::string> field = UnguardedFieldName(m.stmt);
    if (!field.has_value()) continue;
    if (HasExemption(file, m.line, "unguarded")) continue;
    Add(findings, file, m.line, "locks",
        "field '" + *field + "' of a mutex-holding class is neither "
        "SQ_GUARDED_BY nor exempted "
        "(// sq-lint: unguarded-ok(reason))");
  }
}

ClassScope* DeepestClass(std::vector<ClassScope>* stack) {
  for (auto it = stack->rbegin(); it != stack->rend(); ++it) {
    if (it->is_class) return &*it;
  }
  return nullptr;
}

void AnalyzeFileClasses(const SourceFile& file,
                        std::vector<Finding>* findings) {
  std::vector<ClassScope> stack;
  bool pending_class = false;  // saw class/struct/union, '{' not yet seen
  bool pending_enum = false;   // saw enum (so a following 'class' is scoped)
  char prev_sig = '\0';        // last non-ws char before the current token

  for (size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& raw = file.lines[i].code;
    if (IsPreprocessor(raw)) continue;
    std::string ident;
    for (size_t p = 0; p <= raw.size(); ++p) {
      const char c = p < raw.size() ? raw[p] : '\n';
      if (IsIdentChar(c)) {
        ident.push_back(c);
      } else if (!ident.empty()) {
        if (ident == "enum") pending_enum = true;
        if ((ident == "class" || ident == "struct" || ident == "union") &&
            !pending_enum && prev_sig != '<' && prev_sig != ',') {
          // prev_sig guards against `template <class T, class U>`.
          pending_class = true;
        }
        prev_sig = ident.back();
        ident.clear();
      }

      // Characters are routed to the deepest class on the stack; ';' only
      // terminates a member statement at that class's own depth (inside a
      // nested function body or brace-init it is ordinary content).
      ClassScope* cls = DeepestClass(&stack);
      const bool at_class_depth = !stack.empty() && stack.back().is_class;
      auto append_to_cls = [&](char ch) {
        if (cls == nullptr) return;
        if (cls->pending_line == 0 &&
            std::isspace(static_cast<unsigned char>(ch)) == 0) {
          cls->pending_line = i + 1;
        }
        cls->pending.push_back(ch);
      };

      if (IsIdentChar(c)) {
        append_to_cls(c);
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) == 0 && c != '{' &&
          c != '}') {
        prev_sig = c;
      }

      if (c == '{') {
        // The brace belongs to the member statement (brace-init, nested
        // class) as far as the enclosing class is concerned.
        append_to_cls(c);
        ClassScope scope;
        scope.is_class = pending_class;
        stack.push_back(scope);
        pending_class = false;
        pending_enum = false;
        continue;
      }
      if (c == '}') {
        if (!stack.empty()) {
          ClassScope closed = std::move(stack.back());
          stack.pop_back();
          if (closed.is_class) AnalyzeClassMembers(file, closed, findings);
          cls = DeepestClass(&stack);
          if (cls != nullptr) {
            cls->pending.push_back(c);
            // Only the scope directly under a class decides inline-body vs
            // brace-init (the after-brace ';' peek below).
            if (!stack.empty() && stack.back().is_class) {
              stack.back().after_brace = true;
            }
          }
        }
        continue;
      }
      if (cls != nullptr && at_class_depth && cls->after_brace) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
          continue;  // keep waiting for the deciding character
        }
        if (c == ';') {
          cls->after_brace = false;  // brace-init / nested type: keep stmt
        } else {
          // A nested brace not followed by ';' was an inline function
          // body: discard it and start a fresh statement here.
          cls->pending.clear();
          cls->pending_line = i + 1;
          cls->after_brace = false;
        }
      }
      if (cls != nullptr) {
        if (c == ';' && at_class_depth) {
          std::string stmt = CollapseWs(cls->pending);
          // Strip access labels glued to the front of the statement.
          for (std::string_view label :
               {"public :", "private :", "protected :", "public:",
                "private:", "protected:"}) {
            while (StartsWith(stmt, label)) {
              stmt = Trim(stmt.substr(label.size()));
            }
          }
          if (!stmt.empty()) {
            cls->members.push_back(Member{stmt, cls->pending_line});
          }
          cls->pending.clear();
          cls->pending_line = 0;
        } else if (c != '\n') {
          append_to_cls(c);
        }
      }
      if (c == ';') {
        pending_class = false;
        pending_enum = false;
      }
    }
    // Newline separates tokens across lines in the accumulator.
    ClassScope* cls = DeepestClass(&stack);
    if (cls != nullptr && !cls->pending.empty()) {
      cls->pending.push_back(' ');
    }
  }
}

void CheckRankTable(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* mutex_h = tree.Find("src/common/mutex.h");
  const SourceFile* readme = tree.Find("README.md");
  if (mutex_h == nullptr || readme == nullptr) return;

  std::map<std::string, long> ranks;
  std::map<std::string, size_t> rank_lines;
  for (size_t i = 0; i < mutex_h->lines.size(); ++i) {
    const std::string& code = mutex_h->lines[i].code;
    const size_t pos = code.find("inline constexpr int k");
    if (pos == std::string::npos) continue;
    const size_t name_begin = code.find('k', pos);
    size_t name_end = name_begin;
    while (name_end < code.size() && IsIdentChar(code[name_end])) ++name_end;
    const std::string name = code.substr(name_begin, name_end - name_begin);
    const size_t eq = code.find('=', name_end);
    if (eq == std::string::npos) continue;
    ranks[name] = std::strtol(code.c_str() + eq + 1, nullptr, 10);
    rank_lines[name] = i + 1;
  }
  if (ranks.empty()) return;

  // The README rank table: one `| <rank> | `kConstant` | ... |` row per
  // constant. Collect the table rows and the constants they mention.
  std::map<std::string, std::pair<long, size_t>> readme_rows;
  for (size_t i = 0; i < readme->lines.size(); ++i) {
    const std::string& line = readme->lines[i].code;
    if (line.empty() || line[0] != '|') continue;
    if (line.find("`k") == std::string::npos) continue;
    long value = 0;
    bool has_value = false;
    for (size_t p = 1; p < line.size(); ++p) {
      if (std::isdigit(static_cast<unsigned char>(line[p])) != 0) {
        value = std::strtol(line.c_str() + p, nullptr, 10);
        has_value = true;
        break;
      }
      if (line[p] != ' ' && line[p] != '|') break;
    }
    if (!has_value) continue;
    for (const std::string& token : IdentTokens(line)) {
      if (token.size() >= 2 && token[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(token[1])) != 0) {
        readme_rows[token] = {value, i + 1};
      }
    }
  }
  if (readme_rows.empty()) return;  // no rank table in this README

  for (const auto& [name, value] : ranks) {
    if (name == "kUnranked") continue;
    const auto it = readme_rows.find(name);
    if (it == readme_rows.end()) {
      Add(findings, *mutex_h, rank_lines[name], "locks",
          "lockrank::" + name + " is missing from the README rank table");
    } else if (it->second.first != value) {
      Add(findings, *readme, it->second.second, "locks",
          "README rank table lists " + name + " as " +
              std::to_string(it->second.first) + " but mutex.h says " +
              std::to_string(value));
    }
  }
  for (const auto& [name, row] : readme_rows) {
    if (ranks.count(name) == 0) {
      Add(findings, *readme, row.second, "locks",
          "README rank table mentions " + name +
              " which does not exist in common/mutex.h");
    }
  }
}

}  // namespace

void PassLocks(const Tree& tree, std::vector<Finding>* findings) {
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    // The lock wrappers themselves: raw std primitives live here by design.
    if (file.path == "src/common/mutex.h" ||
        file.path == "src/common/mutex.cc" ||
        file.path == "src/common/thread_annotations.h") {
      continue;
    }
    AnalyzeFileClasses(file, findings);
  }
  CheckRankTable(tree, findings);
}

// ---------------------------------------------------------------------------
// Pass 4: status discipline

void PassStatus(const Tree& tree, std::vector<Finding>* findings) {
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    // First line of every `(void)<call>` discard statement in the file.
    std::vector<size_t> discard_lines;
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      size_t pos = 0;
      while ((pos = code.find("(void)", pos)) != std::string::npos) {
        pos += 6;
        // Join lines until the statement's ';' (bounded; a cast used in a
        // longer expression is treated as a discard too).
        std::string expr = code.substr(pos);
        size_t j = i;
        while (expr.find(';') == std::string::npos &&
               j + 1 < file.lines.size() && j < i + 10) {
          ++j;
          expr += ' ';
          expr += file.lines[j].code;
        }
        const size_t semi = expr.find(';');
        if (semi != std::string::npos) expr = expr.substr(0, semi);
        // Strip macro-continuation backslashes before classifying.
        std::string cleaned;
        for (char c : expr) {
          if (c != '\\') cleaned.push_back(c);
        }
        const std::string t = Trim(cleaned);
        const bool zero_literal = !t.empty() && t[0] == '0';
        bool bare_identifier = !t.empty() && !zero_literal;
        for (char c : t) {
          if (!IsIdentChar(c)) {
            bare_identifier = false;
            break;
          }
        }
        if (!t.empty() && !zero_literal && !bare_identifier) {
          discard_lines.push_back(i + 1);
        }
      }
    }
    // A discard needs a rationale comment on its line or the line above; a
    // contiguous block of discards shares the comment above the block.
    std::map<size_t, bool> justified;
    for (size_t line : discard_lines) {
      bool ok = !Trim(file.CommentAt(line)).empty() ||
                !Trim(file.CommentAt(line - 1)).empty();
      if (!ok && justified.count(line - 1) != 0) ok = justified[line - 1];
      justified[line] = ok;
      if (!ok) {
        Add(findings, file, line, "status",
            "(void)-discarded call without a rationale comment (say why "
            "dropping this Status/Result/value is safe)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 5: metric-name registry

namespace {

struct MetricEntry {
  std::string constant;
  std::string value;
  std::string kind;
  std::string description;
  size_t line = 0;
};

std::vector<MetricEntry> ParseMetricRegistry(const SourceFile& registry,
                                             std::vector<Finding>* findings) {
  std::vector<MetricEntry> entries;
  for (size_t i = 0; i < registry.lines.size(); ++i) {
    const std::string& code = registry.lines[i].code;
    const size_t decl = code.find("inline constexpr char k");
    if (decl == std::string::npos) continue;
    MetricEntry entry;
    entry.line = i + 1;
    const size_t name_begin = code.find("char k", decl) + 5;
    size_t name_end = name_begin;
    while (name_end < code.size() && IsIdentChar(code[name_end])) ++name_end;
    entry.constant = code.substr(name_begin, name_end - name_begin);
    // The value literal may sit on this or the following line.
    for (size_t j = i; j < std::min(i + 2, registry.lines.size()); ++j) {
      const std::string& value_code = registry.lines[j].code;
      const size_t open = value_code.find('"');
      if (open == std::string::npos) continue;
      const size_t close = value_code.find('"', open + 1);
      if (close == std::string::npos) continue;
      entry.value = value_code.substr(open + 1, close - open - 1);
      break;
    }
    // Doc comment: the /// block directly above, whose first word is the
    // metric kind.
    std::string doc;
    for (size_t j = i; j > 0; --j) {
      const std::string& comment = registry.lines[j - 1].comment;
      if (Trim(registry.lines[j - 1].code).empty() && !Trim(comment).empty()) {
        // `/// kind — desc` leaves the third slash in the comment channel;
        // strip it per line so continuations join cleanly.
        std::string piece = Trim(comment);
        while (!piece.empty() &&
               (piece[0] == '/' || piece[0] == '<' || piece[0] == ' ')) {
          piece = piece.substr(1);
        }
        doc = piece + (doc.empty() ? "" : " " + doc);
      } else {
        break;
      }
    }
    const size_t dash = doc.find(" — ");
    if (dash != std::string::npos) {
      entry.kind = Trim(doc.substr(0, dash));
      entry.description = Trim(doc.substr(dash + std::string(" — ").size()));
    }
    if (findings != nullptr) {
      if (entry.value.empty()) {
        Add(findings, registry, entry.line, "metrics",
            entry.constant + " has no string value");
      }
      if (entry.kind != "counter" && entry.kind != "gauge" &&
          entry.kind != "histogram") {
        Add(findings, registry, entry.line, "metrics",
            entry.constant + " needs a doc comment of the form "
            "'/// <counter|gauge|histogram> — <description>'");
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

void PassMetrics(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* registry = tree.Find("src/common/metric_names.h");
  std::vector<MetricEntry> entries;
  if (registry != nullptr) {
    entries = ParseMetricRegistry(*registry, findings);
    std::map<std::string, size_t> by_value;
    for (const MetricEntry& e : entries) {
      if (!e.value.empty()) {
        const auto [it, inserted] = by_value.emplace(e.value, e.line);
        if (!inserted) {
          Add(findings, *registry, e.line, "metrics",
              "duplicate metric name \"" + e.value + "\" (also line " +
                  std::to_string(it->second) + ")");
        }
        bool well_formed = e.value.find('.') != std::string::npos;
        for (char c : e.value) {
          if (std::islower(static_cast<unsigned char>(c)) == 0 &&
              std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' &&
              c != '_') {
            well_formed = false;
          }
        }
        if (!well_formed) {
          Add(findings, *registry, e.line, "metrics",
              "metric name \"" + e.value +
                  "\" is not a dotted lowercase path");
        }
      }
      // Every registered name must be used somewhere, or the registry rots.
      bool used = false;
      for (const SourceFile& file : tree.files) {
        if (!StartsWith(file.path, "src/") ||
            file.path == "src/common/metric_names.h") {
          continue;
        }
        for (const SourceLine& l : file.lines) {
          if (HasToken(l.code, e.constant)) {
            used = true;
            break;
          }
        }
        if (used) break;
      }
      if (!used) {
        Add(findings, *registry, e.line, "metrics",
            e.constant + " is registered but never used in src/");
      }
      // The README metrics table is regenerated from this registry
      // (sqlint --dump-metrics); a missing row means stale docs.
      const SourceFile* readme = tree.Find("README.md");
      if (readme != nullptr && !e.value.empty()) {
        bool documented = false;
        for (const SourceLine& l : readme->lines) {
          if (l.code.find(e.value) != std::string::npos) {
            documented = true;
            break;
          }
        }
        if (!documented) {
          Add(findings, *registry, e.line, "metrics",
              "\"" + e.value + "\" is missing from the README metrics "
              "table (regenerate with sqlint --dump-metrics)");
        }
      }
    }
  }

  // Call sites: metric lookups must name a registry constant.
  for (const SourceFile& file : tree.files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (file.path == "src/common/metric_names.h" ||
        file.path == "src/common/metrics.h" ||
        file.path == "src/common/metrics.cc") {
      continue;
    }
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      for (std::string_view getter :
           {"GetCounter(", "GetGauge(", "GetHistogram("}) {
        size_t pos = 0;
        while ((pos = code.find(getter, pos)) != std::string::npos) {
          const bool is_call =
              pos > 0 && (code[pos - 1] == '.' || code[pos - 1] == '>');
          const size_t arg_begin = pos + getter.size();
          pos = arg_begin;
          if (!is_call) continue;
          // The argument may start on the next line.
          std::string arg = code.substr(arg_begin);
          if (Trim(arg).empty() && i + 1 < file.lines.size()) {
            arg = file.lines[i + 1].code;
          }
          const std::string t = Trim(arg);
          const size_t line = i + 1;
          if (!t.empty() && t[0] == '"') {
            if (!HasExemption(file, line, "metric-name")) {
              Add(findings, file, line, "metrics",
                  "inline metric-name literal; add it to "
                  "common/metric_names.h and use the constant");
            }
          } else if (t.find("metric_names::") == std::string::npos) {
            if (!HasExemption(file, line, "metric-name")) {
              Add(findings, file, line, "metrics",
                  "metric lookup does not name a metric_names:: constant");
            }
          }
        }
      }
    }
  }
}

std::string DumpMetricsTable(const Tree& tree) {
  const SourceFile* registry = tree.Find("src/common/metric_names.h");
  std::ostringstream out;
  out << "| Metric | Kind | Meaning |\n|---|---|---|\n";
  if (registry == nullptr) return out.str();
  for (const MetricEntry& e : ParseMetricRegistry(*registry, nullptr)) {
    out << "| `" << e.value << "` | " << e.kind << " | " << e.description
        << " |\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Driver

const std::set<std::string>& AllPassNames() {
  static const std::set<std::string> kNames = {
      "determinism", "wire", "locks", "status", "metrics"};
  return kNames;
}

int RunSqlint(const std::filesystem::path& root,
              const std::set<std::string>& passes, std::ostream& out) {
  const Tree tree = LoadTree(root);
  if (tree.files.empty()) {
    out << "sqlint: no sources found under " << root.string()
        << "/src (wrong --root?)\n";
    return 2;
  }
  for (const std::string& pass : passes) {
    if (AllPassNames().count(pass) == 0) {
      out << "sqlint: unknown pass '" << pass << "'\n";
      return 2;
    }
  }
  const auto enabled = [&passes](const char* name) {
    return passes.empty() || passes.count(name) != 0;
  };

  std::vector<Finding> findings;
  CheckExemptionGrammar(tree, &findings);
  if (enabled("determinism")) PassDeterminism(tree, &findings);
  if (enabled("wire")) PassWire(tree, &findings);
  if (enabled("locks")) PassLocks(tree, &findings);
  if (enabled("status")) PassStatus(tree, &findings);
  if (enabled("metrics")) PassMetrics(tree, &findings);

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.pass << "] " << f.message
        << "\n";
  }
  if (findings.empty()) {
    out << "sqlint: clean (" << tree.files.size() << " files)\n";
    return 0;
  }
  out << "sqlint: " << findings.size() << " finding(s)\n";
  return 1;
}

}  // namespace sq::lint
