// Corpus-driven differential conformance harness.
//
// Each case in tests/conformance/cases/ is a triple of files
//   <name>.xq        — the query
//   <name>.xml       — the input document
//   <name>.expected  — the golden result (byte-exact, no trailing newline)
// or, for error-path cases,
//   <name>.error     — a substring the execution error must contain
//                      (replaces <name>.expected; the document is malformed
//                      or otherwise unprocessable).
//
// The runner executes every case under all four engine configurations
// (streaming+GC — the paper's GCX —, streaming without GC, materialized
// projection, naive DOM) and asserts
//   1. byte-identical output against the golden file (Theorem 1, as a
//      reviewable fixture set instead of an in-process fuzz check) — or,
//      for error cases, a failing status carrying the expected text in
//      every configuration, and
//   2. the Sec. 3 safety requirements whenever GC is active: role balance
//      (every assigned role removed again) and a drained buffer (nothing
//      left but the virtual root).
//
// The multi-query path is exercised on the same corpus: cases sharing a
// byte-identical document are executed as one batch through the
// MultiQueryEngine (one shared scan), and every query of the batch must
// still match its individual golden byte-for-byte, under all four
// configurations, with the scan counters proving a single input pass.
//
// The corpus directory is found through GCX_CONFORMANCE_DIR (set by CTest);
// when run by hand, the usual source-tree locations are probed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/multi_engine.h"
#include "test_sources.h"
#include "xml/scanner.h"

namespace gcx {
namespace {

namespace fs = std::filesystem;

std::string CorpusDir() {
  const char* env = std::getenv("GCX_CONFORMANCE_DIR");
  if (env != nullptr) return env;
  for (const char* candidate :
       {"tests/conformance/cases", "../tests/conformance/cases",
        "../../tests/conformance/cases", "conformance/cases"}) {
    if (fs::is_directory(candidate)) return candidate;
  }
  return "tests/conformance/cases";
}

// No gtest assertions here: this runs at test-registration time (the corpus
// feeds INSTANTIATE_TEST_SUITE_P). A missing file yields readable = false and
// the instantiated test fails with a clear message.
std::string ReadFileIfAny(const fs::path& path, bool* readable) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    *readable = false;
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Case {
  std::string name;
  std::string query;
  std::string document;
  std::string expected;
  std::string expected_error;  ///< non-empty: execution must fail with this
  bool is_error = false;
  bool complete = true;  ///< all required files were readable
};

std::vector<Case> LoadCorpus() {
  std::vector<Case> cases;
  fs::path dir = CorpusDir();
  if (!fs::is_directory(dir)) return cases;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".xq") continue;
    Case c;
    c.name = entry.path().stem().string();
    c.query = ReadFileIfAny(entry.path(), &c.complete);
    c.document = ReadFileIfAny(
        fs::path(entry.path()).replace_extension(".xml"), &c.complete);
    fs::path error_path = fs::path(entry.path()).replace_extension(".error");
    if (fs::exists(error_path)) {
      c.is_error = true;
      c.expected_error = ReadFileIfAny(error_path, &c.complete);
      // Trailing newline in the fixture is editor convenience, not payload.
      while (!c.expected_error.empty() && c.expected_error.back() == '\n') {
        c.expected_error.pop_back();
      }
    } else {
      c.expected = ReadFileIfAny(
          fs::path(entry.path()).replace_extension(".expected"), &c.complete);
    }
    cases.push_back(std::move(c));
  }
  std::sort(cases.begin(), cases.end(),
            [](const Case& a, const Case& b) { return a.name < b.name; });
  return cases;
}

/// Per-case option overrides. The err_oversized_token_* family exists to
/// pin the scanner's token-cap error text, so those cases run with a
/// 16 KiB cap (their fixtures hold ~20 KB tokens); everything else keeps
/// the engine defaults (cap off).
EngineOptions CaseOptions(const Case& c, const EngineOptions& base) {
  EngineOptions options = base;
  if (c.name.rfind("err_oversized_token", 0) == 0) {
    options.scanner.max_token_bytes = 16384;
  }
  return options;
}

class ConformanceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ConformanceTest, AllConfigsMatchGolden) {
  const Case& c = GetParam();
  ASSERT_TRUE(c.complete)
      << c.name << ": missing .xq/.xml/.expected(.error) file in "
      << CorpusDir();
  // The four configurations of the paper's Table 1 column set, shared with
  // the benchmark harness.
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    auto compiled =
        CompiledQuery::Compile(c.query, CaseOptions(c, config.options));
    ASSERT_TRUE(compiled.ok())
        << c.name << " [" << config.name
        << "]: " << compiled.status().ToString();
    Engine engine;
    std::ostringstream out;
    auto stats = engine.Execute(*compiled, c.document, &out);

    if (c.is_error) {
      ASSERT_FALSE(stats.ok())
          << c.name << " [" << config.name
          << "]: expected a failing execution, got output: " << out.str();
      EXPECT_NE(stats.status().ToString().find(c.expected_error),
                std::string::npos)
          << c.name << " [" << config.name << "]: error '"
          << stats.status().ToString() << "' does not contain '"
          << c.expected_error << "'";
      continue;
    }

    ASSERT_TRUE(stats.ok())
        << c.name << " [" << config.name << "]: " << stats.status().ToString();
    EXPECT_EQ(out.str(), c.expected)
        << c.name << " [" << config.name << "]: output diverges from golden";
    EXPECT_EQ(stats->scan_passes, 1u) << c.name;

    if (config.options.mode == EngineMode::kStreaming &&
        config.options.enable_gc) {
      // Sec. 3 safety requirements for the full GCX configuration.
      EXPECT_EQ(stats->buffer.roles_assigned, stats->buffer.roles_removed)
          << c.name << ": role imbalance";
      EXPECT_EQ(stats->live_roles_final, 0u) << c.name;
      EXPECT_EQ(stats->buffer_nodes_final, 1u)
          << c.name << ": buffer not drained to the virtual root";
    }
  }
}

// --- chunk-boundary regression: 1-byte reads over the whole corpus ----------

/// ByteSource returning one byte per Read: every token in the corpus gets
/// split across buffer boundaries.
class OneByteSource : public ByteSource {
 public:
  explicit OneByteSource(std::string data) : data_(std::move(data)) {}
  ReadResult Read(char* buffer, size_t capacity) override {
    if (capacity == 0 || pos_ >= data_.size()) return ReadResult::Eof();
    buffer[0] = data_[pos_++];
    return ReadResult::Ok(1);
  }

 private:
  std::string data_;
  size_t pos_ = 0;
};

TEST_P(ConformanceTest, OneByteReadsMatchGolden) {
  const Case& c = GetParam();
  ASSERT_TRUE(c.complete) << c.name;
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    auto compiled =
        CompiledQuery::Compile(c.query, CaseOptions(c, config.options));
    ASSERT_TRUE(compiled.ok()) << c.name;
    Engine engine;
    std::ostringstream out;
    auto stats = engine.Execute(
        *compiled, std::make_unique<OneByteSource>(c.document), &out);
    if (c.is_error) {
      ASSERT_FALSE(stats.ok()) << c.name << " [" << config.name << "]";
      EXPECT_NE(stats.status().ToString().find(c.expected_error),
                std::string::npos)
          << c.name << " [" << config.name << "]";
      continue;
    }
    ASSERT_TRUE(stats.ok())
        << c.name << " [" << config.name << "]: " << stats.status().ToString();
    EXPECT_EQ(out.str(), c.expected)
        << c.name << " [" << config.name
        << "]: output diverges from golden under 1-byte reads";
  }
}

// --- would-block injection: the async-source differential sweep -------------
//
// Same idea as OneByteSource, one level up: the shared
// WouldBlockEveryNSource shim (tests/test_sources.h) reports kWouldBlock
// between every read of N bytes (and before EOF), so every token
// additionally suspends and resumes through the scanner's rewind
// machinery. Outputs must stay byte-identical to the blocking path for
// the solo engine (all four configs) and the batched engine.

TEST_P(ConformanceTest, WouldBlockReadsMatchGolden) {
  const Case& c = GetParam();
  ASSERT_TRUE(c.complete) << c.name;
  // 1 and 7 split every token; 15/16/17 and 63/64/65 straddle the SIMD
  // kernels' 16-byte (SSE2/NEON) and 32/64-byte (AVX2, unrolled) block
  // edges, so a resume landing mid-block is exercised at every alignment.
  for (size_t n : {size_t{1}, size_t{7}, size_t{15}, size_t{16}, size_t{17},
                   size_t{63}, size_t{64}, size_t{65}}) {
    for (const NamedEngineConfig& config : StandardEngineConfigs()) {
      auto compiled =
        CompiledQuery::Compile(c.query, CaseOptions(c, config.options));
      ASSERT_TRUE(compiled.ok()) << c.name;
      Engine engine;
      std::ostringstream out;
      auto stats = engine.Execute(
          *compiled, std::make_unique<WouldBlockEveryNSource>(c.document, n),
          &out);
      if (c.is_error) {
        ASSERT_FALSE(stats.ok()) << c.name << " [" << config.name << "] n=" << n;
        EXPECT_NE(stats.status().ToString().find(c.expected_error),
                  std::string::npos)
            << c.name << " [" << config.name << "] n=" << n;
        continue;
      }
      ASSERT_TRUE(stats.ok()) << c.name << " [" << config.name << "] n=" << n
                              << ": " << stats.status().ToString();
      EXPECT_EQ(out.str(), c.expected)
          << c.name << " [" << config.name
          << "]: output diverges from golden under would-block reads (n=" << n
          << ")";
    }
  }
}

// --- backend differential: forced-scalar vs CPU-dispatched kernels ----------
//
// The SIMD scan backends (xml/simd_scan.h) promise observational equivalence
// with the scalar reference: byte-identical events, identical stats, and
// identical error text (including the err_oversized_token_* and
// err_truncated_* families, whose failing byte and line must not move when
// blocks replace per-byte scanning). These tests drive the whole corpus
// through both and compare everything.

/// Serializes one full scan — event kinds, names, text payloads, line
/// numbers, final counters, and the terminating status — into a single
/// comparable string. Stalls (would-block) are retried transparently but
/// counted, so the suspension pattern itself is part of the trace.
std::string ScanTrace(const std::string& document, ScannerOptions options,
                      bool force_scalar, size_t stall_every = 0) {
  options.force_scalar = force_scalar;
  std::unique_ptr<ByteSource> source =
      stall_every == 0
          ? std::unique_ptr<ByteSource>(std::make_unique<StringSource>(document))
          : std::make_unique<WouldBlockEveryNSource>(document, stall_every);
  XmlScanner scanner(std::move(source), options);
  std::ostringstream trace;
  while (true) {
    XmlEvent event;
    Status s = scanner.Next(&event);
    if (IsWouldBlock(s)) continue;  // shim is ready again immediately
    if (!s.ok()) {
      trace << "!" << s.ToString();
      break;
    }
    trace << "@" << scanner.line() << " ";
    switch (event.kind) {
      case XmlEvent::Kind::kStartElement:
        trace << "<" << event.name() << " ";
        break;
      case XmlEvent::Kind::kEndElement:
        trace << ">" << event.name() << " ";
        break;
      case XmlEvent::Kind::kText:
        trace << "'" << event.text << "' ";
        break;
      case XmlEvent::Kind::kEndOfDocument:
        break;
    }
    if (event.kind == XmlEvent::Kind::kEndOfDocument) break;
  }
  trace << "|bytes=" << scanner.bytes_consumed()
        << "|stalls=" << scanner.stalls() << "|line=" << scanner.line();
  return trace.str();
}

TEST_P(ConformanceTest, ForcedScalarScanTraceMatchesDispatched) {
  const Case& c = GetParam();
  ASSERT_TRUE(c.complete) << c.name;
  ScannerOptions options = CaseOptions(c, {}).scanner;
  // Blocking reads, plus stall injection at the SSE2 and AVX2 block widths:
  // every mid-block checkpoint/rewind must replay to the same trace.
  for (size_t stall : {size_t{0}, size_t{16}, size_t{32}}) {
    EXPECT_EQ(ScanTrace(c.document, options, /*force_scalar=*/true, stall),
              ScanTrace(c.document, options, /*force_scalar=*/false, stall))
        << c.name << ": scan trace diverges between backends (stall_every="
        << stall << ")";
  }
}

TEST_P(ConformanceTest, ForcedScalarEngineRunMatchesDispatched) {
  const Case& c = GetParam();
  ASSERT_TRUE(c.complete) << c.name;
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    EngineOptions scalar_options = CaseOptions(c, config.options);
    scalar_options.scanner.force_scalar = true;
    auto compiled_simd =
        CompiledQuery::Compile(c.query, CaseOptions(c, config.options));
    auto compiled_scalar = CompiledQuery::Compile(c.query, scalar_options);
    ASSERT_TRUE(compiled_simd.ok() && compiled_scalar.ok()) << c.name;
    Engine engine;
    std::ostringstream out_simd, out_scalar;
    auto stats_simd = engine.Execute(*compiled_simd, c.document, &out_simd);
    auto stats_scalar =
        engine.Execute(*compiled_scalar, c.document, &out_scalar);
    ASSERT_EQ(stats_simd.ok(), stats_scalar.ok())
        << c.name << " [" << config.name << "]";
    if (!stats_simd.ok()) {
      EXPECT_EQ(stats_simd.status().ToString(),
                stats_scalar.status().ToString())
          << c.name << " [" << config.name
          << "]: error text diverges between backends";
      continue;
    }
    EXPECT_EQ(out_simd.str(), out_scalar.str())
        << c.name << " [" << config.name
        << "]: output diverges between backends";
    EXPECT_EQ(stats_simd->input_bytes, stats_scalar->input_bytes) << c.name;
    EXPECT_EQ(stats_simd->output_bytes, stats_scalar->output_bytes) << c.name;
    EXPECT_EQ(stats_simd->events_delivered, stats_scalar->events_delivered)
        << c.name << " [" << config.name << "]";
    EXPECT_EQ(stats_simd->peak_bytes, stats_scalar->peak_bytes)
        << c.name << " [" << config.name << "]";
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.name;
  std::replace_if(
      name.begin(), name.end(), [](char c) { return !std::isalnum(c); }, '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ConformanceTest,
                         ::testing::ValuesIn(LoadCorpus()), CaseName);

// --- multi-query batched execution over the same corpus ---------------------

/// Cases sharing a byte-identical document, batched through one shared scan.
struct DocumentGroup {
  std::string document;
  std::vector<Case> cases;
};

std::vector<DocumentGroup> GroupByDocument() {
  std::map<std::string, DocumentGroup> groups;
  for (Case& c : LoadCorpus()) {
    if (!c.complete || c.is_error) continue;
    DocumentGroup& group = groups[c.document];
    group.document = c.document;
    group.cases.push_back(std::move(c));
  }
  std::vector<DocumentGroup> out;
  for (auto& [doc, group] : groups) out.push_back(std::move(group));
  return out;
}

TEST(ConformanceMultiQuery, BatchedCorpusMatchesGoldensUnderAllConfigs) {
  std::vector<DocumentGroup> groups = GroupByDocument();
  ASSERT_FALSE(groups.empty());
  // The corpus must contain genuinely shared documents, or the batched
  // path would only ever see single-query groups.
  size_t multi_groups = 0;
  for (const DocumentGroup& group : groups) {
    if (group.cases.size() >= 2) ++multi_groups;
  }
  EXPECT_GE(multi_groups, 2u)
      << "corpus should contain at least two documents shared by several "
         "cases";

  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    for (const DocumentGroup& group : groups) {
      std::vector<CompiledQuery> compiled;
      compiled.reserve(group.cases.size());
      for (const Case& c : group.cases) {
        auto one = CompiledQuery::Compile(c.query, config.options);
        ASSERT_TRUE(one.ok()) << c.name << " [" << config.name
                              << "]: " << one.status().ToString();
        compiled.push_back(std::move(one).value());
      }
      std::vector<const CompiledQuery*> batch;
      std::vector<std::ostringstream> buffers(compiled.size());
      std::vector<std::ostream*> outs;
      for (size_t i = 0; i < compiled.size(); ++i) {
        batch.push_back(&compiled[i]);
        outs.push_back(&buffers[i]);
      }

      MultiQueryEngine engine;
      auto stats = engine.Execute(batch, group.document, outs);
      ASSERT_TRUE(stats.ok())
          << group.cases.front().name << "+ [" << config.name
          << "]: " << stats.status().ToString();

      for (size_t i = 0; i < group.cases.size(); ++i) {
        EXPECT_EQ(buffers[i].str(), group.cases[i].expected)
            << group.cases[i].name << " [" << config.name
            << "]: batched output diverges from golden (batch of "
            << group.cases.size() << ")";
      }

      // One shared pass over the raw input; no query paid a private scan.
      EXPECT_EQ(stats->shared.scan_passes, 1u);
      EXPECT_LE(stats->shared.bytes_scanned, group.document.size());
      ASSERT_EQ(stats->per_query.size(), group.cases.size());
      for (size_t i = 0; i < stats->per_query.size(); ++i) {
        EXPECT_EQ(stats->per_query[i].scan_passes, 0u);
        if (config.options.mode == EngineMode::kStreaming &&
            config.options.enable_gc) {
          // Sec. 3 safety requirements hold per batched query.
          EXPECT_EQ(stats->per_query[i].live_roles_final, 0u)
              << group.cases[i].name;
        }
      }
    }
  }
}

TEST(ConformanceMultiQuery, BatchedWouldBlockReadsMatchGoldens) {
  // The batched engine's shared scan suspends and resumes through
  // SharedScanDemux::PumpOne; outputs must stay byte-identical to the
  // blocking path under stall injection, for every engine configuration.
  std::vector<DocumentGroup> groups = GroupByDocument();
  ASSERT_FALSE(groups.empty());
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{64}}) {
    for (const NamedEngineConfig& config : StandardEngineConfigs()) {
      for (const DocumentGroup& group : groups) {
        if (group.cases.size() < 2) continue;  // solo covered above
        std::vector<CompiledQuery> compiled;
        for (const Case& c : group.cases) {
          auto one = CompiledQuery::Compile(c.query, config.options);
          ASSERT_TRUE(one.ok()) << c.name;
          compiled.push_back(std::move(one).value());
        }
        std::vector<const CompiledQuery*> batch;
        std::vector<std::ostringstream> buffers(compiled.size());
        std::vector<std::ostream*> outs;
        for (size_t i = 0; i < compiled.size(); ++i) {
          batch.push_back(&compiled[i]);
          outs.push_back(&buffers[i]);
        }
        MultiQueryEngine engine;
        auto stats = engine.Execute(
            batch,
            std::make_unique<WouldBlockEveryNSource>(group.document, n), outs);
        ASSERT_TRUE(stats.ok())
            << group.cases.front().name << "+ [" << config.name
            << "] n=" << n << ": " << stats.status().ToString();
        for (size_t i = 0; i < group.cases.size(); ++i) {
          EXPECT_EQ(buffers[i].str(), group.cases[i].expected)
              << group.cases[i].name << " [" << config.name
              << "]: batched output diverges under would-block reads (n=" << n
              << ")";
        }
      }
    }
  }
}

TEST(ConformanceMultiQuery, ResumableRunMatchesExecuteUnderWouldBlock) {
  // Execute (evaluator-driven pulls) and the pump-while-ready MultiQueryRun
  // share one batch pipeline: under stall injection, Step must report
  // kStalled (never block), and both drivers must agree on every output and
  // per-query buffer figure, for every group size and engine configuration.
  // From two queries on, the queries behind the head pin the replay log
  // either way, so its peaks must agree too; a one-query Execute trims as
  // it replays while the resumable run retains the log until it evaluates.
  std::vector<DocumentGroup> groups = GroupByDocument();
  ASSERT_FALSE(groups.empty());
  size_t stalled_steps = 0;
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    for (const DocumentGroup& group : groups) {
      std::vector<CompiledQuery> compiled;
      for (const Case& c : group.cases) {
        auto one = CompiledQuery::Compile(c.query, config.options);
        ASSERT_TRUE(one.ok()) << c.name;
        compiled.push_back(std::move(one).value());
      }
      std::vector<const CompiledQuery*> batch;
      std::vector<std::ostringstream> executed(compiled.size());
      std::vector<std::ostringstream> stepped(compiled.size());
      std::vector<std::ostream*> executed_outs;
      std::vector<std::ostream*> stepped_outs;
      for (size_t i = 0; i < compiled.size(); ++i) {
        batch.push_back(&compiled[i]);
        executed_outs.push_back(&executed[i]);
        stepped_outs.push_back(&stepped[i]);
      }
      const std::string label =
          group.cases.front().name + "+ [" + config.name + "]";

      MultiQueryEngine engine;
      auto want = engine.Execute(
          batch, std::make_unique<WouldBlockEveryNSource>(group.document, 7),
          executed_outs);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();

      MultiQueryRun run(
          batch, std::make_unique<WouldBlockEveryNSource>(group.document, 7),
          stepped_outs);
      while (true) {
        MultiQueryRun::State state = run.Step();
        if (state == MultiQueryRun::State::kStalled) {
          ++stalled_steps;  // shim is ready again on the next read
          continue;
        }
        ASSERT_EQ(state, MultiQueryRun::State::kDone)
            << label << ": " << run.status().ToString();
        break;
      }
      auto got = run.TakeStats();
      ASSERT_TRUE(got.ok());

      EXPECT_EQ(got->shared.scan_passes, 1u);
      ASSERT_EQ(got->per_query.size(), group.cases.size());
      ASSERT_EQ(want->per_query.size(), group.cases.size());
      for (size_t i = 0; i < group.cases.size(); ++i) {
        const std::string& name = group.cases[i].name;
        EXPECT_EQ(stepped[i].str(), group.cases[i].expected)
            << name << " [" << config.name
            << "]: MultiQueryRun output diverges";
        EXPECT_EQ(stepped[i].str(), executed[i].str()) << name;
        EXPECT_EQ(got->per_query[i].peak_bytes, want->per_query[i].peak_bytes)
            << name << " [" << config.name << "]";
        EXPECT_EQ(got->per_query[i].live_roles_final,
                  want->per_query[i].live_roles_final)
            << name << " [" << config.name << "]";
      }
      if (group.cases.size() >= 2) {
        EXPECT_EQ(got->shared.replay_log_peak, want->shared.replay_log_peak)
            << label;
        EXPECT_EQ(got->shared.replay_arena_peak_bytes,
                  want->shared.replay_arena_peak_bytes)
            << label;
      }
    }
  }
  EXPECT_GT(stalled_steps, 0u) << "the shim should have forced stalls";
}

TEST(ConformanceMultiQuery, ErrorCasesFailTheBatchWithTheExpectedText) {
  for (const Case& c : LoadCorpus()) {
    if (!c.is_error || !c.complete) continue;
    // Batch the case with itself: the shared scan must surface the same
    // error text the solo run produces.
    auto compiled = CompiledQuery::Compile(c.query, CaseOptions(c, {}));
    ASSERT_TRUE(compiled.ok()) << c.name;
    std::ostringstream o1, o2;
    MultiQueryEngine engine;
    auto stats =
        engine.Execute({&*compiled, &*compiled}, c.document, {&o1, &o2});
    ASSERT_FALSE(stats.ok()) << c.name;
    EXPECT_NE(stats.status().ToString().find(c.expected_error),
              std::string::npos)
        << c.name << ": '" << stats.status().ToString()
        << "' does not contain '" << c.expected_error << "'";
  }
}

// --- sharded execution over the same corpus ---------------------------------
//
// The parallel sharded scan (core/shard.h) must be observationally
// indistinguishable from the single scan on every corpus case: identical
// bytes out, identical error text for malformed documents, under every
// engine configuration and shard count — including when every shard's
// source additionally injects would-block stalls. Shard counts of 1
// (planner declines, pure fallback), 2 and 8 cover the degenerate,
// typical and over-split shapes.

ShardOptions CorpusShardOptions(size_t shards) {
  ShardOptions options;
  options.shards = shards;
  options.min_shard_bytes = 1;  // corpus documents are tiny
  return options;
}

TEST(ConformanceSharded, ShardedCorpusMatchesGoldensUnderAllConfigs) {
  std::vector<Case> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  size_t actually_sharded = 0;
  size_t locally_evaluated = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const NamedEngineConfig& config : StandardEngineConfigs()) {
      for (const Case& c : corpus) {
        if (!c.complete) continue;
        auto compiled =
        CompiledQuery::Compile(c.query, CaseOptions(c, config.options));
        ASSERT_TRUE(compiled.ok()) << c.name;
        MultiQueryEngine engine;
        std::ostringstream out;
        auto stats = engine.ExecuteSharded({&*compiled}, c.document, {&out},
                                           CorpusShardOptions(shards));
        if (c.is_error) {
          ASSERT_FALSE(stats.ok())
              << c.name << " [" << config.name << "] shards=" << shards;
          EXPECT_NE(stats.status().ToString().find(c.expected_error),
                    std::string::npos)
              << c.name << " [" << config.name << "] shards=" << shards
              << ": error '" << stats.status().ToString()
              << "' does not contain '" << c.expected_error << "'";
          continue;
        }
        ASSERT_TRUE(stats.ok()) << c.name << " [" << config.name
                                << "] shards=" << shards << ": "
                                << stats.status().ToString();
        EXPECT_EQ(out.str(), c.expected)
            << c.name << " [" << config.name << "] shards=" << shards
            << ": sharded output diverges from golden";
        if (stats->shared.shards > 0) ++actually_sharded;
        locally_evaluated += stats->shared.shard_local_queries;
      }
    }
  }
  // The sweep must not be vacuous: some corpus documents have to be big
  // enough (with the 1-byte floor) to really split.
  EXPECT_GT(actually_sharded, 0u)
      << "no corpus case was actually sharded — the sweep only tested the "
         "fallback path";
  // ... and some corpus queries must be provably shard-independent, so the
  // worker-side evaluation path is really exercised against goldens.
  EXPECT_GT(locally_evaluated, 0u)
      << "no corpus query took the shard-local evaluation path — the sweep "
         "only tested merge-and-replay";
}

TEST(ConformanceSharded, ShardedStallInjectedSourcesMatchGoldens) {
  // Every shard scans its composite byte stream through a would-block
  // injector: workers absorb the stalls via readiness waits, outputs stay
  // byte-identical.
  std::vector<Case> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  ShardOptions options = CorpusShardOptions(2);
  options.wrap_source = [](std::string data) {
    return std::make_unique<WouldBlockEveryNSource>(std::move(data), 7);
  };
  for (const Case& c : corpus) {
    if (!c.complete || c.is_error) continue;
    auto compiled = CompiledQuery::Compile(c.query, {});
    ASSERT_TRUE(compiled.ok()) << c.name;
    MultiQueryEngine engine;
    std::ostringstream out;
    auto stats =
        engine.ExecuteSharded({&*compiled}, c.document, {&out}, options);
    ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
    EXPECT_EQ(out.str(), c.expected)
        << c.name << ": sharded output diverges under would-block shards";
  }
}

TEST(ConformanceSharded, BatchedShardedGroupsMatchGoldens) {
  // Document groups as in the multi-query sweep, but over the sharded
  // executor: every query of the batch must still match its golden.
  std::vector<DocumentGroup> groups = GroupByDocument();
  ASSERT_FALSE(groups.empty());
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    for (const DocumentGroup& group : groups) {
      if (group.cases.size() < 2) continue;
      std::vector<CompiledQuery> compiled;
      for (const Case& c : group.cases) {
        auto one = CompiledQuery::Compile(c.query, config.options);
        ASSERT_TRUE(one.ok()) << c.name;
        compiled.push_back(std::move(one).value());
      }
      std::vector<const CompiledQuery*> batch;
      std::vector<std::ostringstream> buffers(compiled.size());
      std::vector<std::ostream*> outs;
      for (size_t i = 0; i < compiled.size(); ++i) {
        batch.push_back(&compiled[i]);
        outs.push_back(&buffers[i]);
      }
      MultiQueryEngine engine;
      auto stats = engine.ExecuteSharded(batch, group.document, outs,
                                         CorpusShardOptions(4));
      ASSERT_TRUE(stats.ok()) << group.cases.front().name << "+ ["
                              << config.name
                              << "]: " << stats.status().ToString();
      EXPECT_EQ(stats->shared.scan_passes, 1u);
      for (size_t i = 0; i < group.cases.size(); ++i) {
        EXPECT_EQ(buffers[i].str(), group.cases[i].expected)
            << group.cases[i].name << " [" << config.name
            << "]: sharded batch output diverges from golden";
      }
    }
  }
}

// The acceptance floor: the corpus must not silently shrink.
TEST(ConformanceCorpus, HasAtLeast65Cases) {
  EXPECT_GE(LoadCorpus().size(), 65u)
      << "conformance corpus in " << CorpusDir() << " is too small";
}

TEST(ConformanceCorpus, HasTruncationAndOversizedTokenFamilies) {
  size_t truncated = 0;
  size_t oversized = 0;
  for (const Case& c : LoadCorpus()) {
    if (c.name.rfind("err_truncated_", 0) == 0) ++truncated;
    if (c.name.rfind("err_oversized_token_", 0) == 0) ++oversized;
  }
  EXPECT_GE(truncated, 3u) << "truncated-input error cases must stay";
  EXPECT_GE(oversized, 2u) << "token-cap error cases must stay";
}

TEST(ConformanceCorpus, HasErrorPathCases) {
  size_t errors = 0;
  for (const Case& c : LoadCorpus()) {
    if (c.is_error) ++errors;
  }
  EXPECT_GE(errors, 4u) << "corpus should keep malformed-input coverage";
}

TEST(ConformanceCorpus, HasAggregateEdgeCases) {
  size_t empty = 0;
  size_t nonnumeric = 0;
  for (const Case& c : LoadCorpus()) {
    if (c.name.rfind("agg_empty_", 0) == 0) ++empty;
    if (c.name.rfind("agg_nonnumeric_", 0) == 0) ++nonnumeric;
  }
  EXPECT_GE(empty, 2u) << "empty-binding aggregate cases must stay";
  EXPECT_GE(nonnumeric, 2u) << "non-numeric sum cases must stay";
}

}  // namespace
}  // namespace gcx
