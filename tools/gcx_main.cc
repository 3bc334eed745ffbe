// gcx — streaming XQuery processor (command-line front end).
//
// Usage:
//   gcx [options] <query.xq|-q QUERY> [input.xml]
//   gcx -q a.xq -q b.xq [-q ...] input.xml      (multi-query batch)
//
// Reads the query from a file (or inline via -q), evaluates it over the
// input document (file or stdin) in streaming mode with active garbage
// collection, and writes the result to stdout. With several -q flags the
// queries are executed as one batch sharing a single document scan
// (MultiQueryEngine); each query's result is printed in submission order.
//
// Options:
//   -q QUERY          a query: a file path, or inline query text when no
//                     such file exists; repeatable (batch execution)
//   -o FILE           write the result to FILE instead of stdout
//   --explain         print the static analysis (variable tree, roles,
//                     projection tree, rewritten query) and exit
//   --stats           print execution statistics to stderr
//   --cache-stats     print compiled-query cache counters to stderr
//                     (repeated -q texts compile once per process)
//   --admission       route a multi-query run through the admission
//                     controller (grouping + batch limits) instead of one
//                     hand-built batch
//   --admission-batch=N    admission: max queries per batch (default 16)
//   --admission-memory=N   admission: replay-log budget in events (0 = off)
//   --admission-adaptive   admission: self-tune the effective batch cap
//                     (and shard count) from observed stall/memory pressure
//   --admission-arena-budget=N  admission: replay-arena byte budget for the
//                     adaptive memory-pressure signal (implies adaptive)
//   --shards=N        scan a stored document on N parallel shards
//                     (core/shard.h); the input is materialized, split at
//                     subtree boundaries and scanned on a worker pool,
//                     with output byte-identical to the single scan.
//                     Applies to the direct path and (for in-memory
//                     documents) to --admission; falls back to one scan
//                     when the document is too small to split
//   --follow          open the input path as a non-blocking stream (FIFO,
//                     character device): the engine consumes bytes as the
//                     writer produces them instead of requiring a regular
//                     file
//   --input-fd=N      read the document from the already-open descriptor N
//                     (non-blocking; e.g. a pipe inherited from a parent)
//   --metrics-json=FILE  dump one JSON snapshot of the process-wide metrics
//                     registry (scanner/projector/buffer/cache/admission/
//                     shard families) after the run; FILE '-' = stdout
//   --deadline-ms=N   wall-clock deadline for the whole run; a run (even
//                     one parked on a stalled stream) terminates with a
//                     typed deadline error shortly after N ms
//   --max-arena-bytes=N   cap on live replay/buffer arena bytes; exceeding
//                     it fails (or, under --admission, degrades) the run
//   --max-output-bytes=N  cap on total result bytes written
//
// Exit codes: 0 success; 1 runtime error; 2 usage error; 3 compile error;
// 4 deadline exceeded or a resource budget tripped (including queries shed
// by admission degradation).
//   --trace           dump the buffer after every input token (Fig. 2 style)
//   --mode=MODE       streaming (default) | project | dom
//   --no-gc           disable signOff execution and purging
//   --no-aggregate    disable aggregate roles (Sec. 6)
//   --no-redundant    disable redundant-role elimination (Sec. 6)
//   --no-early        disable early updates (Sec. 6)
//   --keep-ws         keep whitespace-only text nodes
//   --drop-attributes discard attributes instead of converting them to
//                     subelements

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "core/admission.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "core/query_cache.h"
#include "core/shard.h"
#include "xml/fd_source.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [options] <query.xq|-q QUERY> [input.xml]\n"
               "run '"
            << argv0 << " --help' for options\n";
  return 2;
}

void Help(const char* argv0) {
  std::cout
      << "gcx — streaming XQuery processor with active garbage collection\n"
         "\n"
         "usage: "
      << argv0
      << " [options] <query.xq|-q QUERY> [input.xml]\n"
         "\n"
         "With no input file (or '-'), the document is read from stdin.\n"
         "\n"
         "options:\n"
         "  -q QUERY          query file path or inline query text;\n"
         "                    repeatable — N queries share one document scan\n"
         "  -o FILE           write result to FILE\n"
         "  --explain         print static analysis and exit\n"
         "  --project-only    emit the projected document, don't evaluate\n"
         "  --stats           print execution statistics to stderr\n"
         "  --cache-stats     print compiled-query cache counters to stderr\n"
         "  --admission       route a multi-query run through the admission\n"
         "                    controller (grouping + batch limits)\n"
         "  --admission-batch=N   admission: max queries per batch\n"
         "  --admission-memory=N  admission: replay-log budget in events\n"
         "  --admission-adaptive  admission: self-tune batch cap / shards\n"
         "  --admission-arena-budget=N  adaptive replay-arena byte budget\n"
         "  --metrics-json=FILE   dump a metrics snapshot (JSON) after the\n"
         "                    run; '-' writes it to stdout\n"
         "  --deadline-ms=N   wall-clock deadline for the run (exit 4)\n"
         "  --max-arena-bytes=N   cap live replay/buffer arena bytes\n"
         "  --max-output-bytes=N  cap total result bytes written\n"
         "  --shards=N        parallel sharded scan of a stored document\n"
         "  --follow          stream the input path (FIFO/device) as the\n"
         "                    writer produces it\n"
         "  --input-fd=N      read the document from open descriptor N\n"
         "  --trace           dump the buffer after every input token\n"
         "  --mode=MODE       streaming (default) | project | dom\n"
         "  --no-gc           disable active garbage collection\n"
         "  --no-aggregate    disable aggregate roles\n"
         "  --no-redundant    disable redundant-role elimination\n"
         "  --no-early        disable early updates\n"
         "  --keep-ws         keep whitespace-only text\n"
         "  --drop-attributes discard attributes\n";
}

bool ReadFile(const std::string& path, std::string* out) {
  // Directories open successfully and read as empty on Linux, which would
  // surface as a baffling empty-query parse error; reject them up front.
  // (Only directories: FIFOs from process substitution and character
  // devices like /dev/stdin are legitimate query sources.)
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  *out = buffer.str();
  return true;
}

/// Re-openable file source for the admission path (a document may be
/// scanned once per batch); owns its stream, unlike IstreamSource.
class OwningFileSource : public gcx::ByteSource {
 public:
  explicit OwningFileSource(const std::string& path)
      : in_(path, std::ios::binary) {}
  ReadResult Read(char* buffer, size_t capacity) override {
    in_.read(buffer, static_cast<std::streamsize>(capacity));
    size_t n = static_cast<size_t>(in_.gcount());
    return n > 0 ? ReadResult::Ok(n) : ReadResult::Eof();
  }

 private:
  std::ifstream in_;
};

/// Streambuf forwarding to a shared target, emitting one '\n' separator
/// before the first forwarded byte. Batched queries evaluate strictly in
/// submission order, so giving query i>0 such a wrapper streams the batch
/// output with solo formatting (result, newline, result, ...) and no
/// per-query buffering.
class SeparatedBuf : public std::streambuf {
 public:
  SeparatedBuf(std::ostream* target, bool separator_first)
      : target_(target), pending_separator_(separator_first) {}

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return c;
    EmitSeparator();
    target_->put(static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n > 0) EmitSeparator();
    target_->write(s, n);
    return n;
  }

 private:
  void EmitSeparator() {
    if (pending_separator_) {
      target_->put('\n');
      pending_separator_ = false;
    }
  }
  std::ostream* target_;
  bool pending_separator_;
};

}  // namespace

/// One -q submission: its text plus where it came from (for diagnostics).
struct QuerySpec {
  std::string text;
  std::string label;  ///< file path, or "inline query #k"
};

int main(int argc, char** argv) {
  // Result emission goes through the buffered XmlWriter in large blocks;
  // don't pay C-stdio synchronization on top when that block lands on cout.
  std::ios::sync_with_stdio(false);
  gcx::EngineOptions options;
  std::vector<QuerySpec> query_specs;
  std::string query_path;
  std::string input_path;
  std::string output_path;
  bool explain = false;
  bool project_only = false;
  bool stats_flag = false;
  bool cache_stats_flag = false;
  bool admission_flag = false;
  size_t admission_batch = 16;
  uint64_t admission_memory = 0;
  bool admission_adaptive = false;
  uint64_t admission_arena_budget = 0;
  std::string metrics_json_path;
  gcx::RunBudget budget;
  size_t shards = 1;
  bool follow = false;
  int input_fd = -1;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Help(argv[0]);
      return 0;
    } else if (arg == "-q" || arg == "--query") {
      if (++i >= argc) return Usage(argv[0]);
      // A -q argument names a query file when one exists; otherwise it is
      // inline query text. An argument that *looks* like a file path (inline
      // queries always start with '<') but cannot be read is reported as
      // such instead of being parsed as a query — a typo'd path would
      // otherwise surface as a baffling parse error on the filename.
      std::string value = argv[i];
      std::string text;
      size_t first = value.find_first_not_of(" \t\r\n");
      bool looks_inline = first != std::string::npos && value[first] == '<';
      if (ReadFile(value, &text)) {
        query_specs.push_back({text, value});
      } else if (looks_inline) {
        query_specs.push_back(
            {value, "inline query #" + std::to_string(query_specs.size() + 1)});
      } else {
        std::cerr << "cannot read query file '" << value << "'\n";
        return 1;
      }
    } else if (arg == "-o") {
      if (++i >= argc) return Usage(argv[0]);
      output_path = argv[i];
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--project-only") {
      project_only = true;
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--cache-stats") {
      cache_stats_flag = true;
    } else if (arg == "--admission") {
      admission_flag = true;
    } else if (arg.rfind("--admission-batch=", 0) == 0) {
      admission_flag = true;
      long v = std::atol(arg.c_str() + std::strlen("--admission-batch="));
      if (v < 1) {
        std::cerr << "--admission-batch needs a positive count\n";
        return 2;
      }
      admission_batch = static_cast<size_t>(v);
    } else if (arg.rfind("--admission-memory=", 0) == 0) {
      admission_flag = true;
      long long v = std::atoll(arg.c_str() + std::strlen("--admission-memory="));
      if (v < 0) {
        std::cerr << "--admission-memory needs a non-negative event count\n";
        return 2;
      }
      admission_memory = static_cast<uint64_t>(v);
    } else if (arg == "--admission-adaptive") {
      admission_flag = true;
      admission_adaptive = true;
    } else if (arg.rfind("--admission-arena-budget=", 0) == 0) {
      admission_flag = true;
      admission_adaptive = true;
      long long v =
          std::atoll(arg.c_str() + std::strlen("--admission-arena-budget="));
      if (v < 0) {
        std::cerr << "--admission-arena-budget needs a non-negative byte "
                     "count\n";
        return 2;
      }
      admission_arena_budget = static_cast<uint64_t>(v);
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_path = arg.substr(std::strlen("--metrics-json="));
      if (metrics_json_path.empty()) {
        std::cerr << "--metrics-json needs a file path or '-'\n";
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      long long v = std::atoll(arg.c_str() + std::strlen("--deadline-ms="));
      if (v < 0) {
        std::cerr << "--deadline-ms needs a non-negative millisecond count\n";
        return 2;
      }
      budget.deadline_ms = static_cast<uint64_t>(v);
    } else if (arg.rfind("--max-arena-bytes=", 0) == 0) {
      long long v = std::atoll(arg.c_str() + std::strlen("--max-arena-bytes="));
      if (v < 0) {
        std::cerr << "--max-arena-bytes needs a non-negative byte count\n";
        return 2;
      }
      budget.max_arena_bytes = static_cast<uint64_t>(v);
    } else if (arg.rfind("--max-output-bytes=", 0) == 0) {
      long long v =
          std::atoll(arg.c_str() + std::strlen("--max-output-bytes="));
      if (v < 0) {
        std::cerr << "--max-output-bytes needs a non-negative byte count\n";
        return 2;
      }
      budget.max_output_bytes = static_cast<uint64_t>(v);
    } else if (arg.rfind("--shards=", 0) == 0) {
      long v = std::atol(arg.c_str() + std::strlen("--shards="));
      if (v < 1) {
        std::cerr << "--shards needs a positive count\n";
        return 2;
      }
      shards = static_cast<size_t>(v);
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg.rfind("--input-fd=", 0) == 0) {
      // strtol + endptr, not atol: a misparse here would silently select
      // descriptor 0 and read the terminal instead of failing.
      const char* value = arg.c_str() + std::strlen("--input-fd=");
      char* end = nullptr;
      long v = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || v < 0) {
        std::cerr << "--input-fd needs a non-negative descriptor\n";
        return 2;
      }
      input_fd = static_cast<int>(v);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--no-gc") {
      options.enable_gc = false;
    } else if (arg == "--no-aggregate") {
      options.aggregate_roles = false;
    } else if (arg == "--no-redundant") {
      options.eliminate_redundant_roles = false;
    } else if (arg == "--no-early") {
      options.early_updates = false;
    } else if (arg == "--keep-ws") {
      options.scanner.skip_whitespace_text = false;
    } else if (arg == "--drop-attributes") {
      options.scanner.attribute_mode =
          gcx::ScannerOptions::AttributeMode::kDiscard;
    } else if (arg.rfind("--mode=", 0) == 0) {
      std::string mode = arg.substr(7);
      if (mode == "streaming") {
        options.mode = gcx::EngineMode::kStreaming;
      } else if (mode == "project") {
        options.mode = gcx::EngineMode::kMaterializedProjection;
      } else if (mode == "dom") {
        options.mode = gcx::EngineMode::kNaiveDom;
      } else {
        std::cerr << "unknown mode '" << mode << "'\n";
        return 2;
      }
    } else if (arg.rfind("-", 0) == 0 && arg != "-") {
      std::cerr << "unknown option '" << arg << "'\n";
      return Usage(argv[0]);
    } else if (query_specs.empty() && query_path.empty()) {
      query_path = arg;
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }

  if (query_specs.empty() && query_path.empty()) return Usage(argv[0]);
  if (!query_path.empty()) {
    std::string text;
    if (!ReadFile(query_path, &text)) {
      std::cerr << "cannot read query file '" << query_path << "'\n";
      return 1;
    }
    query_specs.insert(query_specs.begin(), {text, query_path});
  }

  // All compilations go through one process-local cache: repeated -q texts
  // (and formatting variants of the same query) compile exactly once.
  gcx::QueryCache cache;
  auto print_cache_stats = [&] {
    if (!cache_stats_flag) return;
    gcx::QueryCacheStats s = cache.stats();
    std::cerr << "cache: lookups=" << s.lookups << " hits=" << s.hits
              << " canonical_hits=" << s.canonical_hits
              << " misses=" << s.misses << " compiles=" << s.compiles
              << " errors=" << s.compile_errors
              << " negative_hits=" << s.negative_hits
              << " negative_entries=" << s.negative_entries
              << " coalesced=" << s.coalesced
              << " evictions=" << s.evictions << " entries=" << s.entries
              << " capacity=" << s.capacity
              << " bytes=" << s.bytes_resident
              << " max_bytes=" << s.max_bytes << "\n";
  };
  // One cumulative snapshot of the process-wide registry, written after the
  // run (every engine path and the cache/admission collectors publish into
  // it). Returns false on an unwritable target.
  auto dump_metrics = [&]() -> bool {
    if (metrics_json_path.empty()) return true;
    std::string json = gcx::MetricsRegistry::Global().SnapshotJson();
    if (metrics_json_path == "-") {
      std::cout << json;
      return true;
    }
    std::ofstream file(metrics_json_path,
                       std::ios::binary | std::ios::trunc);
    if (!file) {
      std::cerr << "cannot write metrics file '" << metrics_json_path
                << "'\n";
      return false;
    }
    file << json;
    return true;
  };
  // Runtime-failure exit: budget trips (deadline/resource) get their own
  // exit code so callers can tell a shed/timed-out run from a hard error.
  // Metrics are still dumped — a tripped run's robustness.* counters are
  // exactly what a monitoring caller wants to see.
  auto fail_exit = [&](const gcx::Status& status) -> int {
    std::cerr << "error: " << status.ToString() << "\n";
    print_cache_stats();
    dump_metrics();
    return gcx::IsBudgetError(status) ? 4 : 1;
  };

  // Compile everything before running anything: a malformed query fails the
  // whole invocation cleanly — no query of the batch has produced output
  // yet, and the diagnostic names the offending submission. The admission
  // path skips this loop (Submit compiles through the same cache and is
  // rejected before Run executes anything), so --cache-stats reflects one
  // lookup per submission there.
  std::vector<gcx::CompiledQuery> compiled_queries;
  if (!admission_flag || explain) {
    for (size_t i = 0; i < query_specs.size(); ++i) {
      auto compiled = cache.GetOrCompile(query_specs[i].text, options);
      if (!compiled.ok()) {
        std::cerr << "compile error in query " << (i + 1) << " of "
                  << query_specs.size() << " (" << query_specs[i].label
                  << "): " << compiled.status().ToString() << "\n";
        print_cache_stats();
        return 3;
      }
      compiled_queries.push_back(std::move(compiled).value());
    }
  }
  if (explain) {
    for (const gcx::CompiledQuery& compiled : compiled_queries) {
      std::cout << compiled.Explain();
    }
    return 0;
  }

  // Input source: open descriptor, non-blocking stream (--follow), file
  // (streamed) or stdin.
  std::unique_ptr<gcx::ByteSource> source;
  std::ifstream input_file;
  if (input_fd >= 0) {
    if (!input_path.empty() && input_path != "-") {
      std::cerr << "--input-fd and an input file are mutually exclusive\n";
      return 2;
    }
    source = std::make_unique<gcx::FdSource>(input_fd);
  } else if (follow) {
    if (input_path.empty() || input_path == "-") {
      std::cerr << "--follow needs an input path (FIFO or device)\n";
      return 2;
    }
    auto opened = gcx::FdSource::Open(input_path);
    if (!opened.ok()) {
      std::cerr << opened.status().ToString() << "\n";
      return 1;
    }
    source = std::move(opened).value();
  } else if (input_path.empty() || input_path == "-") {
    source = std::make_unique<gcx::IstreamSource>(&std::cin);
  } else {
    input_file.open(input_path, std::ios::binary);
    if (!input_file) {
      std::cerr << "cannot read input file '" << input_path << "'\n";
      return 1;
    }
    source = std::make_unique<gcx::IstreamSource>(&input_file);
  }

  std::ofstream output_file;
  std::ostream* out = &std::cout;
  if (!output_path.empty()) {
    output_file.open(output_path, std::ios::binary);
    if (!output_file) {
      std::cerr << "cannot write output file '" << output_path << "'\n";
      return 1;
    }
    out = &output_file;
  }

  gcx::Engine engine;
  if (trace) {
    engine.set_trace([](const gcx::XmlEvent& event,
                        const gcx::BufferTree& buffer,
                        const gcx::SymbolTable& tags) {
      std::cerr << "-- ";
      switch (event.kind) {
        case gcx::XmlEvent::Kind::kStartElement:
          std::cerr << "<" << event.name() << ">";
          break;
        case gcx::XmlEvent::Kind::kEndElement:
          std::cerr << "</" << event.name() << ">";
          break;
        case gcx::XmlEvent::Kind::kText:
          std::cerr << "text(" << event.text.size() << " bytes)";
          break;
        case gcx::XmlEvent::Kind::kEndOfDocument:
          std::cerr << "end-of-document";
          break;
      }
      std::cerr << "\n" << buffer.Dump(tags);
    });
  }

  if (admission_flag) {
    // Admission path: requests go through the admission controller, which
    // groups them into batches under the configured limits. One document,
    // one option set → one group; the controller still enforces the
    // batch-size/memory cuts a server deployment would see.
    if (project_only || trace) {
      std::cerr << "--project-only/--trace are single-query options\n";
      return 2;
    }
    gcx::AdmissionLimits limits;
    limits.max_batch_queries = admission_batch;
    limits.max_replay_log_events = admission_memory;
    limits.shards = shards;
    limits.adaptive = admission_adaptive;
    limits.adaptive_arena_budget_bytes = admission_arena_budget;
    limits.budget = budget;
    gcx::AdmissionController controller(&cache, limits);
    std::error_code ec;
    if (follow || input_fd >= 0) {
      // Streamed input: hand the single open source to the first batch (the
      // scheduler parks it across stalls); a stream cannot be re-scanned,
      // so a second batch over it fails cleanly.
      auto shared = std::make_shared<std::unique_ptr<gcx::ByteSource>>(
          std::move(source));
      controller.RegisterDocumentAsync(
          "doc", [shared]() -> gcx::Result<std::unique_ptr<gcx::ByteSource>> {
            if (*shared == nullptr) {
              return gcx::IoError(
                  "streamed input (--follow/--input-fd) supports one batch; "
                  "raise --admission-batch or use a regular file");
            }
            return std::move(*shared);
          });
    } else if (!input_path.empty() && input_path != "-" && shards <= 1 &&
               std::filesystem::is_regular_file(input_path, ec)) {
      // Regular file: re-open per batch (a group may need several scans).
      std::string path = input_path;
      controller.RegisterDocument("doc", [path] {
        return std::make_unique<OwningFileSource>(path);
      });
    } else {
      // stdin and other non-regular inputs cannot be re-opened per batch:
      // materialize the already-open source once. With --shards a regular
      // file is materialized too — the sharded scan path needs the stored
      // bytes, not a re-openable stream.
      std::string document;
      gcx::Status drained = gcx::ReadAll(source.get(), &document);
      if (!drained.ok()) {
        std::cerr << "error: " << drained.ToString() << "\n";
        return 1;
      }
      controller.RegisterDocument("doc", std::move(document));
    }

    std::vector<std::unique_ptr<SeparatedBuf>> bufs;
    std::vector<std::unique_ptr<std::ostream>> streams;
    for (size_t i = 0; i < query_specs.size(); ++i) {
      bufs.push_back(std::make_unique<SeparatedBuf>(out, i > 0));
      streams.push_back(std::make_unique<std::ostream>(bufs.back().get()));
      gcx::Status admitted = controller.Submit(query_specs[i].text, options,
                                               "doc", streams.back().get());
      if (!admitted.ok()) {
        std::cerr << "admission rejected query " << (i + 1) << " ("
                  << query_specs[i].label << "): " << admitted.ToString()
                  << "\n";
        print_cache_stats();
        return 1;
      }
    }
    auto run = controller.Run();
    if (!run.ok()) return fail_exit(run.status());
    *out << "\n";
    if (stats_flag) {
      gcx::AdmissionStats a = controller.stats();
      std::cerr << "admission: submitted=" << a.submitted
                << " admitted=" << a.admitted << " rejected=" << a.rejected
                << " batches=" << a.batches_formed << " solo=" << a.solo_runs
                << " sharded=" << a.sharded_runs
                << " splits_size=" << a.splits_by_size
                << " splits_memory=" << a.splits_by_memory
                << " replay_peak=" << a.replay_log_peak_observed
                << " est_events_per_query=" << a.events_per_query_estimate
                << " parked=" << a.batches_parked
                << " resumes=" << a.batch_resumes << "\n"
                << "run: queries=" << run->queries
                << " batches=" << run->batches
                << " scan_passes=" << run->scan_passes
                << " bytes_scanned=" << run->bytes_scanned
                << " replay_arena_peak=" << run->replay_arena_peak_bytes
                << " stalls=" << run->stalls << "\n";
      if (admission_adaptive) {
        std::cerr << "adaptive: batch_cap=" << a.adaptive_batch_cap
                  << " shards=" << a.adaptive_shards
                  << " increases=" << a.adaptive_increases
                  << " decreases_stalls=" << a.adaptive_decreases_by_stalls
                  << " decreases_memory=" << a.adaptive_decreases_by_memory
                  << " shard_decreases=" << a.adaptive_shard_decreases
                  << "\n";
      }
    }
    print_cache_stats();
    if (!dump_metrics()) return 1;
    if (run->queries_shed > 0) {
      // Degradation shed some queries rather than failing the run: the
      // surviving results were emitted, but the invocation as a whole did
      // not complete — report the first typed rejection and exit 4.
      std::cerr << "error: " << run->first_shed_error.ToString() << " ("
                << run->queries_shed << " of " << query_specs.size()
                << " queries shed)\n";
      return 4;
    }
    return 0;
  }

  if (compiled_queries.size() > 1 || shards > 1) {
    // Multi-query batch (one shared document scan, N results in order)
    // and/or sharded execution — --shards routes even a single query
    // through the batch engine's sharded path.
    if (project_only || trace) {
      std::cerr << "--project-only/--trace are single-query options\n";
      return 2;
    }
    std::vector<const gcx::CompiledQuery*> batch;
    for (const gcx::CompiledQuery& compiled : compiled_queries) {
      batch.push_back(&compiled);
    }
    gcx::MultiQueryEngine multi_engine;
    std::unique_ptr<gcx::RunGovernor> governor;
    if (budget.any()) {
      governor = std::make_unique<gcx::RunGovernor>(budget);
      multi_engine.set_governor(governor.get());
    }
    // Stream each result straight to `out`: query i>0's wrapper inserts the
    // newline separator before its first byte.
    std::vector<std::unique_ptr<SeparatedBuf>> bufs;
    std::vector<std::unique_ptr<std::ostream>> streams;
    std::vector<std::ostream*> outs;
    for (size_t i = 0; i < batch.size(); ++i) {
      bufs.push_back(std::make_unique<SeparatedBuf>(out, i > 0));
      streams.push_back(std::make_unique<std::ostream>(bufs.back().get()));
      outs.push_back(streams.back().get());
    }
    gcx::Result<gcx::MultiQueryStats> batch_stats =
        gcx::EvalError("unreachable");
    std::string document;
    if (shards > 1) {
      // Sharding needs the stored bytes: materialize, then fan the scan
      // out (ExecuteSharded falls back to one scan if the planner declines).
      gcx::Status drained = gcx::ReadAll(source.get(), &document);
      if (!drained.ok()) {
        std::cerr << "error: " << drained.ToString() << "\n";
        print_cache_stats();
        return 1;
      }
      gcx::ShardOptions shard_options;
      shard_options.shards = shards;
      batch_stats =
          multi_engine.ExecuteSharded(batch, document, outs, shard_options);
    } else {
      batch_stats = multi_engine.Execute(batch, std::move(source), outs);
    }
    if (!batch_stats.ok()) return fail_exit(batch_stats.status());
    *out << "\n";
    if (stats_flag) {
      const gcx::SharedScanStats& shared = batch_stats->shared;
      std::cerr << "queries:           " << batch.size() << "\n"
                << "scan passes:       " << shared.scan_passes << "\n"
                << "shards:            " << shared.shards << "\n"
                << "shard-local:       " << shared.shard_local_queries
                << " of " << batch.size() << " queries\n"
                << "bytes scanned:     " << shared.bytes_scanned << "\n"
                << "events scanned:    " << shared.events_scanned << "\n"
                << "events forwarded:  " << shared.events_forwarded << "\n"
                << "events skipped:    " << shared.events_shared_skipped
                << " (shared prefilter, " << shared.shared_subtrees_skipped
                << " subtrees)\n"
                << "events demuxed:    " << shared.events_demuxed << "\n"
                << "replay log peak:   " << shared.replay_log_peak
                << " events, " << shared.replay_arena_peak_bytes
                << " arena bytes\n"
                << "merged DFA states: " << shared.merged_dfa_states << "\n"
                << "projection paths:  " << batch_stats->projection.union_paths
                << " union / " << batch_stats->projection.shared_paths
                << " shared / " << batch_stats->projection.private_paths
                << " private\n";
      if (!batch_stats->per_shard_arena_peak_bytes.empty()) {
        std::cerr << "shard arena peaks:";
        for (uint64_t peak : batch_stats->per_shard_arena_peak_bytes) {
          std::cerr << " " << peak;
        }
        std::cerr << " bytes\n";
      }
      for (size_t i = 0; i < batch_stats->per_query.size(); ++i) {
        const gcx::ExecStats& q = batch_stats->per_query[i];
        std::cerr << "query " << i << ": events "
                  << q.events_delivered << ", peak buffer bytes "
                  << q.peak_bytes << ", output bytes " << q.output_bytes
                  << ", projected "
                  << (q.projector.elements_kept + q.projector.text_kept)
                  << " kept / "
                  << (q.projector.elements_skipped + q.projector.text_skipped)
                  << " skipped, wall " << q.wall_seconds << " s\n";
      }
    }
    print_cache_stats();
    if (!dump_metrics()) return 1;
    return 0;
  }

  std::unique_ptr<gcx::RunGovernor> governor;
  if (budget.any()) {
    governor = std::make_unique<gcx::RunGovernor>(budget);
    engine.set_governor(governor.get());
  }
  gcx::Result<gcx::ExecStats> stats = gcx::EvalError("unreachable");
  if (project_only) {
    // Materialize the whole input (projection needs a string view here).
    std::string document;
    gcx::Status drained = gcx::ReadAll(source.get(), &document);
    if (!drained.ok()) {
      std::cerr << "error: " << drained.ToString() << "\n";
      return 1;
    }
    stats = engine.Project(compiled_queries.front(), document, out);
  } else {
    stats = engine.Execute(compiled_queries.front(), std::move(source), out);
  }
  if (!stats.ok()) return fail_exit(stats.status());
  *out << "\n";

  if (stats_flag) {
    const gcx::ProjectorStats& p = stats->projector;
    std::cerr << "input bytes:       " << stats->input_bytes << "\n"
              << "output bytes:      " << stats->output_bytes << "\n"
              << "wall time:         " << stats->wall_seconds << " s\n"
              << "events read:       " << p.events_read << "\n"
              << "elements kept:     " << p.elements_kept << " of "
              << p.elements_read << " (" << p.elements_skipped
              << " skipped)\n"
              << "text kept:         " << p.text_kept << " (" << p.text_skipped
              << " skipped)\n"
              << "peak buffer bytes: " << stats->peak_bytes << "\n"
              << "peak buffer nodes: " << stats->buffer.nodes_peak << "\n"
              << "nodes buffered:    " << stats->buffer.nodes_created << "\n"
              << "nodes purged:      " << stats->buffer.nodes_purged << "\n"
              << "roles assigned:    " << stats->buffer.roles_assigned << "\n"
              << "roles removed:     " << stats->buffer.roles_removed << "\n"
              << "GC runs:           " << stats->buffer.gc_runs << "\n"
              << "text arena peak:   " << stats->buffer.text_arena_peak_bytes
              << " bytes\n"
              << "scanner stalls:    " << stats->stalls << "\n"
              << "DFA states:        " << stats->dfa_states << "\n";
  }
  print_cache_stats();
  if (!dump_metrics()) return 1;
  return 0;
}
