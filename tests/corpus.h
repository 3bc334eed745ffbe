// The conformance corpus loader, shared by every suite that sweeps it.
//
// Each case in tests/conformance/cases/ is a triple of files
//   <name>.xq        — the query
//   <name>.xml       — the input document
//   <name>.expected  — the golden result (byte-exact, no trailing newline)
// or, for error-path cases, <name>.error (a substring the execution error
// must contain) in place of <name>.expected.
//
// The directory is found through GCX_CONFORMANCE_DIR (set by CTest); when
// run by hand, the usual source-tree locations are probed.

#ifndef GCX_TESTS_CORPUS_H_
#define GCX_TESTS_CORPUS_H_

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace gcx {

inline std::string CorpusDir() {
  const char* env = std::getenv("GCX_CONFORMANCE_DIR");
  if (env != nullptr) return env;
  for (const char* candidate :
       {"tests/conformance/cases", "../tests/conformance/cases",
        "../../tests/conformance/cases", "conformance/cases"}) {
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return "tests/conformance/cases";
}

// No gtest assertions here: this runs at test-registration time (the corpus
// feeds INSTANTIATE_TEST_SUITE_P). A missing file yields readable = false and
// the test that uses the case fails with a clear message.
inline std::string ReadFileIfAny(const std::filesystem::path& path,
                                 bool* readable) {
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

/// Every case of the corpus, sorted by name.
inline std::vector<Case> LoadCorpus() {
  namespace fs = std::filesystem;
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
/// `base` (engine defaults: cap off).
inline EngineOptions CaseOptions(const Case& c,
                                 const EngineOptions& base = {}) {
  EngineOptions options = base;
  if (c.name.rfind("err_oversized_token", 0) == 0) {
    options.scanner.max_token_bytes = 16384;
  }
  return options;
}

}  // namespace gcx

#endif  // GCX_TESTS_CORPUS_H_
