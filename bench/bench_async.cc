// Async-source admission scheduling: the interleaving win when one of N
// documents is slow.
//
// Scenario: four document groups submitted to one AdmissionController. The
// FIRST-submitted group's document arrives over a pipe whose writer stalls
// (drip-feeds with sleeps); the other three are in-memory and always
// ready. Two schedules are compared on identical workloads:
//
//   serial       — one Run() per group, in submission order, through the
//                  same scheduler. The stalled group's Run() returns only
//                  once the slow writer is done, so the ready groups cannot
//                  finish before it.
//   interleaved  — every group submitted up front and one Run(): the
//                  stalled batch is parked on its ReadyFd and the ready
//                  groups run to completion meanwhile.
//
// The headline figure is fast_done_seconds — the time at which the LAST
// ready-group result was written — which the serial baseline cannot push
// below the slow writer's total stall time. Outputs of both schedules are
// verified byte-identical (abort on mismatch).
//
// GCX_BENCH_SCALE=N multiplies the document size.
// GCX_BENCH_JSON=path overrides where the results land
// (default: BENCH_async.json in the working directory).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "core/admission.h"
#include "core/query_cache.h"
#include "xml/fd_source.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// ostream stamping the wall-clock time of its first write (batch results
/// are written at evaluation time, so this is the query's completion time).
class TimedStream : public std::ostream {
 public:
  explicit TimedStream(Clock::time_point origin)
      : std::ostream(&buf_), buf_(origin) {}
  std::string str() const { return buf_.str(); }
  double done_seconds() const { return buf_.done_seconds; }

 private:
  struct Buf : std::stringbuf {
    explicit Buf(Clock::time_point origin) : origin(origin) {}
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      if (done_seconds < 0 && n > 0) done_seconds = Seconds(origin, Clock::now());
      return std::stringbuf::xsputn(s, n);
    }
    int_type overflow(int_type c) override {
      if (done_seconds < 0 && c != traits_type::eof()) {
        done_seconds = Seconds(origin, Clock::now());
      }
      return std::stringbuf::overflow(c);
    }
    Clock::time_point origin;
    double done_seconds = -1;
  };
  Buf buf_;
};

struct ScheduleResult {
  double fast_done_seconds = 0;  ///< last ready-group result written
  double slow_done_seconds = 0;  ///< stalled group's result written
  double total_seconds = 0;      ///< whole Run() wall clock
  uint64_t stalls = 0;
  std::vector<std::string> outputs;  ///< all query outputs, in order
};

constexpr int kSlowChunks = 5;
constexpr int kSlowStallMs = 25;

/// Runs the 4-group workload under one schedule. `fast_docs` are in-memory;
/// the slow doc drips through a pipe, kSlowChunks pieces with kSlowStallMs
/// sleeps in between. The slow group is always submitted FIRST; `serial`
/// runs each group on its own before the next is submitted.
ScheduleResult RunSchedule(bool serial, const std::string& slow_doc,
                           const std::vector<std::string>& fast_docs,
                           const std::vector<std::string>& queries) {
  using namespace gcx;
  QueryCache cache;
  AdmissionController controller(&cache);

  int fds[2];
  if (::pipe(fds) != 0) std::abort();
  auto source = std::make_shared<std::unique_ptr<ByteSource>>(
      std::make_unique<FdSource>(fds[0]));
  controller.RegisterDocumentAsync(
      "slow", [source]() -> Result<std::unique_ptr<ByteSource>> {
        if (*source == nullptr) return IoError("slow doc: single batch only");
        return std::move(*source);
      });
  std::vector<std::string> doc_ids{"slow"};
  for (size_t d = 0; d < fast_docs.size(); ++d) {
    doc_ids.push_back("fast" + std::to_string(d));
    controller.RegisterDocument(doc_ids.back(), fast_docs[d]);
  }

  Clock::time_point origin = Clock::now();
  std::vector<std::unique_ptr<TimedStream>> streams;
  auto submit_group = [&](const std::string& doc_id) {
    for (const std::string& q : queries) {
      streams.push_back(std::make_unique<TimedStream>(origin));
      if (!controller.Submit(q, {}, doc_id, streams.back().get()).ok()) {
        std::abort();
      }
    }
  };
  uint64_t stalls = 0;
  auto run_pending = [&] {
    auto run = controller.Run();
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      std::abort();
    }
    stalls += run->stalls;
  };

  std::thread writer([&] {
    size_t chunk = (slow_doc.size() + kSlowChunks - 1) / kSlowChunks;
    for (size_t off = 0; off < slow_doc.size(); off += chunk) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowStallMs));
      size_t n = std::min(chunk, slow_doc.size() - off);
      if (::write(fds[1], slow_doc.data() + off, n) !=
          static_cast<ssize_t>(n)) {
        std::abort();
      }
    }
    ::close(fds[1]);
  });
  if (serial) {
    for (const std::string& doc_id : doc_ids) {
      submit_group(doc_id);
      run_pending();
    }
  } else {
    for (const std::string& doc_id : doc_ids) submit_group(doc_id);
    run_pending();
  }
  writer.join();

  ScheduleResult result;
  result.total_seconds = Seconds(origin, Clock::now());
  result.stalls = stalls;
  size_t nq = queries.size();
  for (size_t i = 0; i < streams.size(); ++i) {
    double done = streams[i]->done_seconds();
    if (done < 0) std::abort();  // every query must have produced output
    if (i < nq) {
      result.slow_done_seconds = std::max(result.slow_done_seconds, done);
    } else {
      result.fast_done_seconds = std::max(result.fast_done_seconds, done);
    }
    result.outputs.push_back(streams[i]->str());
  }
  return result;
}

}  // namespace

int main() {
  using namespace gcx;
  using namespace gcx::bench;

  // One shared document content for all groups (different registrations =>
  // different groups), sized by the bench scale.
  std::string doc = GenerateXMark(XMarkOptions{0.5 * BenchScale(), 7});
  std::vector<std::string> fast_docs{doc, doc, doc};
  std::vector<std::string> queries;
  for (const NamedQuery& q : AllXMarkQueries()) {
    queries.push_back(std::string(q.text));
    if (queries.size() == 4) break;
  }

  std::printf("Async admission scheduling — 1 stalled + %zu ready groups\n",
              fast_docs.size());
  std::printf("document: %s, %zu queries per group, slow writer: %d × %d ms\n",
              HumanBytes(doc.size()).c_str(), queries.size(), kSlowChunks,
              kSlowStallMs);

  ScheduleResult serial = RunSchedule(true, doc, fast_docs, queries);
  ScheduleResult inter = RunSchedule(false, doc, fast_docs, queries);

  if (serial.outputs != inter.outputs) {
    std::fprintf(stderr, "OUTPUT MISMATCH between schedules\n");
    std::abort();  // benchmarks must not silently measure wrong results
  }

  double fast_speedup = inter.fast_done_seconds > 0
                            ? serial.fast_done_seconds / inter.fast_done_seconds
                            : 0;
  std::printf("%-12s | %-14s | %-14s | %-10s | %s\n", "schedule",
              "fast done", "slow done", "total", "stalls");
  std::printf("%-12s | %14s | %14s | %10s | %llu\n", "serial",
              HumanSeconds(serial.fast_done_seconds).c_str(),
              HumanSeconds(serial.slow_done_seconds).c_str(),
              HumanSeconds(serial.total_seconds).c_str(),
              static_cast<unsigned long long>(serial.stalls));
  std::printf("%-12s | %14s | %14s | %10s | %llu\n", "interleaved",
              HumanSeconds(inter.fast_done_seconds).c_str(),
              HumanSeconds(inter.slow_done_seconds).c_str(),
              HumanSeconds(inter.total_seconds).c_str(),
              static_cast<unsigned long long>(inter.stalls));
  std::printf("ready-batch completion speedup: %.1fx\n", fast_speedup);

  const char* json_env = std::getenv("GCX_BENCH_JSON");
  std::string path = json_env != nullptr ? json_env : "BENCH_async.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"document_bytes\": %zu,\n"
      "  \"queries_per_group\": %zu,\n"
      "  \"ready_groups\": %zu,\n"
      "  \"slow_writer\": {\"chunks\": %d, \"stall_ms\": %d},\n"
      "  \"serial\": {\"fast_done_seconds\": %.6f, \"slow_done_seconds\": "
      "%.6f, \"total_seconds\": %.6f, \"stalls\": %llu},\n"
      "  \"interleaved\": {\"fast_done_seconds\": %.6f, "
      "\"slow_done_seconds\": %.6f, \"total_seconds\": %.6f, \"stalls\": "
      "%llu},\n"
      "  \"fast_path_speedup\": %.3f,\n"
      "  \"outputs_identical\": true",
      doc.size(), queries.size(), fast_docs.size(), kSlowChunks, kSlowStallMs,
      serial.fast_done_seconds, serial.slow_done_seconds,
      serial.total_seconds,
      static_cast<unsigned long long>(serial.stalls),
      inter.fast_done_seconds, inter.slow_done_seconds, inter.total_seconds,
      static_cast<unsigned long long>(inter.stalls), fast_speedup);
  gcx::bench::WriteMetricsMember(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}
