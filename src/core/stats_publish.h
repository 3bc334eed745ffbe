// Builds the per-call stats structs (ExecStats, MultiQueryStats) and folds
// them into the process-wide metrics registry (common/metrics.h).
//
// The legacy structs stay the cheap per-call return values; these folds run
// once per completed run — a few dozen relaxed atomic adds — so the hot
// event loop never touches the registry. Every engine path (solo, batched,
// sharded, resumable) funnels through one of these two functions, which is
// what keeps the metric name families consistent across layers:
//
//   engine.*     per-evaluation counters (runs, output bytes, wall-time and
//                output-size histograms, peak DFA size)
//   scanner.*    raw input-side counters (bytes, events, would-block stalls)
//                — published only for stats that carry a real input pass
//                (scan_passes > 0 / the batch's shared scan), so per-query
//                rows inside a batch never double-count the one shared scan
//   projector.*  merged view of every projector that ran
//   buffer.*     buffer-tree counters and peaks, arena.text_peak_bytes
//   batch.*      shared-scan counters of batched runs (forwarded, demuxed,
//                replay log/arena peaks, merged-DFA size)
//   shard.*      sharded-execution counters (local vs replay queries,
//                per-shard arena peaks); plan declines and abort causes are
//                published at the decision sites in multi_engine.cc

#ifndef GCX_CORE_STATS_PUBLISH_H_
#define GCX_CORE_STATS_PUBLISH_H_

#include <chrono>

#include "common/metrics.h"
#include "core/engine.h"
#include "core/multi_engine.h"

namespace gcx {

/// Assembles one evaluation's ExecStats; every engine path fills them here.
/// `buffer`/`projector` are the query's streaming pipeline (null for DOM
/// evaluation, whose caller sets peak_bytes to the DOM size). `scanner` is a
/// private input pass (null inside a batch, whose one shared pass is
/// accounted in MultiQueryStats::shared): it sets scan_passes = 1,
/// input_bytes and stalls.
ExecStats MakeExecStats(std::chrono::steady_clock::time_point start,
                        uint64_t output_bytes,
                        const BufferTree* buffer = nullptr,
                        StreamProjector* projector = nullptr,
                        const XmlScanner* scanner = nullptr);

/// Publishes one evaluation's ExecStats under `sink` (typically
/// GlobalMetrics()). Solo runs carry scan_passes > 0 and contribute to
/// scanner.*; per-query stats inside a batch have scan_passes == 0 and
/// contribute only the evaluation-side families.
///
/// A non-empty `query_text` (the query's canonical text — see
/// CompiledQuery::canonical_text(), so textual variants of the same query
/// share one series) additionally records the run's wall time under
/// `query.<slug>.wall_ms`, a per-query latency histogram. The slug is the
/// sanitized text prefix plus a hash suffix; to keep the registry bounded,
/// at most 64 distinct slugs are admitted per process and later arrivals
/// fold into `query._other.wall_ms`.
void PublishExecStats(const ExecStats& stats, const MetricsSink& sink,
                      std::string_view query_text = {});

/// Publishes a batched run: the shared scan under scanner.* / batch.*, the
/// sharded-scan counters under shard.* (when stats.shared.shards > 0,
/// including per-shard arena peaks as shard.<i>.arena_peak_bytes), then
/// folds every per-query ExecStats via PublishExecStats. When `queries`
/// (index-aligned with stats.per_query) is given, each fold carries its
/// query's canonical text so the per-query latency histograms cover batched
/// runs too.
void PublishMultiQueryStats(const MultiQueryStats& stats,
                            const MetricsSink& sink,
                            const std::vector<const CompiledQuery*>* queries =
                                nullptr);

}  // namespace gcx

#endif  // GCX_CORE_STATS_PUBLISH_H_
