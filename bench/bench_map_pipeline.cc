// Experiment C1 / F3: map-construction latency.
//
// The paper's claim: through sampling (a few thousand tuples per map) and
// CLARA, Blaeu stays at interaction time regardless of table size. This
// bench sweeps the LOFAR table size and compares:
//   - sampled maps (sample_size = 2000, the paper's operating point)
//   - unsampled maps (the whole selection is clustered)
// The sampled latency should stay flat; the unsampled one grows.
// google-benchmark binary: run with --benchmark_filter=... to narrow.
//
// After the sweeps, one traced build at the operating point emits
//   BENCH_map_pipeline_stages.json     — per-stage latency breakdown
//   BENCH_map_pipeline_trace.json      — chrome://tracing-loadable span dump
//   BENCH_map_pipeline_threads.json    — wall clock at 1/2/4/N threads
//   BENCH_map_pipeline_navigation.json — cold vs. warm zoom sequence (the
//                                        map cache's interaction-time win)
//   BENCH_map_pipeline_regression.json — exact p50/p95 of the operating-point
//                                        build (total + per-stage); compared
//                                        against bench/baselines/ by
//                                        tools/check_bench_regression (CI gate)
//   BENCH_map_pipeline_categorical.json— the same regression block for the
//                                        categorical-heavy Hollywood point
//                                        (string-path wins show up here)
//   BENCH_map_pipeline_sweep.json      — the same block for a default
//                                        (k sweep) build on 1,199 rows
//   BENCH_map_pipeline_report.html     — self-contained HTML perf report
//   BENCH_map_pipeline_openmetrics.txt — Prometheus/OpenMetrics exposition
// so the dominant pipeline stage is known before optimizing anything and
// the parallel layer's speedup stays measured.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/json_writer.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/map_builder.h"
#include "core/navigation.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"

using namespace blaeu;

namespace {

/// Cache of generated tables so each size is generated once.
const workloads::Dataset& LofarCached(size_t rows) {
  static std::map<size_t, workloads::Dataset>* cache =
      new std::map<size_t, workloads::Dataset>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    workloads::LofarSpec spec;
    spec.rows = rows;
    it = cache->emplace(rows, workloads::MakeLofar(spec)).first;
  }
  return it->second;
}

/// Cache of generated Hollywood tables (the categorical-heavy bench point:
/// genre/studio/title strings plus a small-domain year column).
const workloads::Dataset& HollywoodCached(size_t rows) {
  static std::map<size_t, workloads::Dataset>* cache =
      new std::map<size_t, workloads::Dataset>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    workloads::HollywoodSpec spec;
    spec.rows = rows;
    it = cache->emplace(rows, workloads::MakeHollywood(spec)).first;
  }
  return it->second;
}

std::vector<std::string> AllColumns(const monet::Table& table) {
  std::vector<std::string> cols;
  for (const auto& f : table.schema().fields()) cols.push_back(f.name);
  return cols;
}

std::vector<std::string> FluxColumns(const monet::Table& table) {
  std::vector<std::string> cols;
  for (const auto& f : table.schema().fields()) {
    if (f.name.rfind("flux_", 0) == 0 || f.name == "spectral_index") {
      cols.push_back(f.name);
    }
  }
  return cols;
}

void BM_MapSampled(benchmark::State& state) {
  const auto& data = LofarCached(static_cast<size_t>(state.range(0)));
  auto columns = FluxColumns(*data.table);
  core::MapOptions opt;
  opt.sample_size = 2000;  // paper operating point
  opt.fixed_k = 4;
  uint64_t seed = 1;
  for (auto _ : state) {
    // The span feeds the global latency histogram the stage-breakdown
    // report prints alongside the google-benchmark numbers.
    obs::Span span("bench.map_sampled");
    opt.seed = seed++;
    auto map = core::BuildMap(
        *data.table, monet::SelectionVector::All(data.table->num_rows()),
        columns, opt);
    if (!map.ok()) state.SkipWithError(map.status().ToString().c_str());
    benchmark::DoNotOptimize(map);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_MapUnsampled(benchmark::State& state) {
  const auto& data = LofarCached(static_cast<size_t>(state.range(0)));
  auto columns = FluxColumns(*data.table);
  core::MapOptions opt;
  opt.sample_size = 0;  // cluster everything (CLARA beyond the threshold)
  opt.fixed_k = 4;
  uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    auto map = core::BuildMap(
        *data.table, monet::SelectionVector::All(data.table->num_rows()),
        columns, opt);
    if (!map.ok()) state.SkipWithError(map.status().ToString().c_str());
    benchmark::DoNotOptimize(map);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

// Categorical-heavy workload: Hollywood's schema is dominated by string
// columns (title/genre/studio) plus a small-domain year, so preprocessing
// spends its time in categorical ranking and dummy coding rather than
// normalizer fits. String-path wins show up here, not in LOFAR's mostly
// numeric profile.
void BM_MapCategorical(benchmark::State& state) {
  const auto& data = HollywoodCached(static_cast<size_t>(state.range(0)));
  auto columns = AllColumns(*data.table);
  core::MapOptions opt;
  opt.sample_size = 2000;
  opt.fixed_k = 4;
  uint64_t seed = 1;
  for (auto _ : state) {
    obs::Span span("bench.map_categorical");
    opt.seed = seed++;
    auto map = core::BuildMap(
        *data.table, monet::SelectionVector::All(data.table->num_rows()),
        columns, opt);
    if (!map.ok()) state.SkipWithError(map.status().ToString().c_str());
    benchmark::DoNotOptimize(map);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

// The full pipeline stage split at the operating point: preprocessing vs
// clustering vs description is visible via map metadata, so this reports
// the end-to-end figure per table size.
BENCHMARK(BM_MapSampled)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Arg(128000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(BM_MapUnsampled)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK(BM_MapCategorical)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// One traced build at the paper's operating point; writes the per-stage
/// breakdown + chrome trace next to the benchmark output.
void EmitStageBreakdown() {
  constexpr size_t kRows = 32000;
  const auto& data = LofarCached(kRows);
  auto columns = FluxColumns(*data.table);

  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  core::MapOptions opt;
  opt.sample_size = 2000;
  opt.fixed_k = 4;
  opt.seed = 7;
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  auto map = core::BuildMap(
      *data.table, monet::SelectionVector::All(data.table->num_rows()),
      columns, opt);
  if (!map.ok()) {
    std::fprintf(stderr, "stage breakdown build failed: %s\n",
                 map.status().ToString().c_str());
    return;
  }

  // Stage table: direct children of the core.map.build root span.
  std::vector<obs::SpanRecord> spans = tracer.Finished();
  int build_id = -1;
  for (const auto& s : spans) {
    if (s.name == "core.map.build") build_id = s.id;
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("bench", "map_pipeline_stages");
  w.KV("rows", kRows);
  w.KV("sample_size", opt.sample_size);
  w.KV("k", map->num_clusters);
  w.KV("algorithm", map->algorithm);
  w.KV("total_ms", map->build_seconds * 1e3);
  w.Key("stages").BeginArray();
  for (const auto& s : spans) {
    if (s.parent != build_id || s.duration_ns < 0) continue;
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("ms", static_cast<double>(s.duration_ns) / 1e6);
    for (const auto& [k, v] : s.attrs) w.KV(k, v);
    w.EndObject();
  }
  w.EndArray();
  w.Key("metrics").RawValue(metrics.ToJson());
  w.EndObject();

  std::ofstream stages("BENCH_map_pipeline_stages.json");
  stages << w.str() << "\n";
  std::ofstream trace("BENCH_map_pipeline_trace.json");
  trace << tracer.ToChromeTrace() << "\n";
  std::printf("%s\n", w.str().c_str());
  std::printf(
      "wrote BENCH_map_pipeline_stages.json and BENCH_map_pipeline_trace.json"
      " (load the trace in chrome://tracing)\n");
}

/// Thread-scaling sweep at the operating point: the same build at 1/2/4/N
/// threads, best-of-5 wall clock. Writes BENCH_map_pipeline_threads.json
/// so the parallel layer's speedup (and any 1-thread regression) is a
/// tracked artifact rather than a claim.
void EmitThreadScaling() {
  constexpr size_t kRows = 32000;
  constexpr int kReps = 5;
  const auto& data = LofarCached(kRows);
  auto columns = FluxColumns(*data.table);
  auto sel = monet::SelectionVector::All(data.table->num_rows());

  std::vector<size_t> thread_counts = {1, 2, 4};
  if (DefaultNumThreads() > 4) thread_counts.push_back(DefaultNumThreads());

  core::MapOptions opt;
  opt.sample_size = 2000;
  opt.fixed_k = 4;
  opt.seed = 7;

  JsonWriter w;
  w.BeginObject();
  w.KV("bench", "map_pipeline_threads");
  w.KV("rows", kRows);
  w.KV("sample_size", opt.sample_size);
  w.KV("reps", kReps);
  w.KV("default_threads", DefaultNumThreads());
  w.Key("results").BeginArray();
  double one_thread_ms = 0.0;
  for (size_t threads : thread_counts) {
    opt.num_threads = threads;
    // Warm-up rep primes the table cache, pool workers and allocator.
    auto warm = core::BuildMap(*data.table, sel, columns, opt);
    if (!warm.ok()) {
      std::fprintf(stderr, "thread scaling build failed: %s\n",
                   warm.status().ToString().c_str());
      return;
    }
    double best_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      auto map = core::BuildMap(*data.table, sel, columns, opt);
      const double ms = timer.ElapsedMillis();
      if (!map.ok()) {
        std::fprintf(stderr, "thread scaling build failed: %s\n",
                     map.status().ToString().c_str());
        return;
      }
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) one_thread_ms = best_ms;
    w.BeginObject();
    w.KV("threads", threads);
    w.KV("ms", best_ms);
    w.KV("speedup_vs_1thread",
         one_thread_ms > 0.0 ? one_thread_ms / best_ms : 0.0);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out("BENCH_map_pipeline_threads.json");
  out << w.str() << "\n";
  std::printf("%s\nwrote BENCH_map_pipeline_threads.json\n", w.str().c_str());
}

/// Navigation latency with and without the map cache at the LOFAR 32k
/// operating point: a session zooms down a path (cold builds), rolls back
/// to the root and replays the same path (warm, cache hits). Writes
/// BENCH_map_pipeline_navigation.json; the acceptance bar is warm rebuild
/// >= 2x faster than cold.
void EmitNavigationBench() {
  constexpr size_t kRows = 32000;
  constexpr int kDepth = 3;
  const auto& data = LofarCached(kRows);

  core::SessionOptions opt;
  opt.map.sample_size = 2000;
  opt.map.fixed_k = 4;
  opt.seed = 7;

  auto run_path = [&](bool cached, double* descend_ms, double* replay_ms,
                      obs::MetricsRegistry* metrics) -> bool {
    core::SessionOptions session_opt = opt;
    session_opt.cache_enabled = cached;
    session_opt.map.metrics = metrics;
    auto session = core::Session::Start(data.table, "lofar", session_opt);
    if (!session.ok()) {
      std::fprintf(stderr, "navigation bench start failed: %s\n",
                   session.status().ToString().c_str());
      return false;
    }
    core::Session s = std::move(session).ValueOrDie();
    // Descend: always into the biggest leaf, so both runs take the same
    // deterministic path with real work at every level.
    std::vector<int> path;
    Timer descend;
    for (int depth = 0; depth < kDepth; ++depth) {
      int biggest = -1;
      size_t biggest_count = 0;
      for (int leaf : s.current().map.LeafIds()) {
        const auto& r = s.current().map.region(leaf);
        if (r.parent >= 0 && r.tuple_count >= 50 &&
            r.tuple_count > biggest_count) {
          biggest = leaf;
          biggest_count = r.tuple_count;
        }
      }
      if (biggest < 0) break;
      if (!s.Zoom(biggest).ok()) break;
      path.push_back(biggest);
    }
    *descend_ms = descend.ElapsedMillis();
    if (path.empty()) {
      std::fprintf(stderr, "navigation bench found no zoomable region\n");
      return false;
    }
    // Replay: back to the root, then the identical zoom sequence. With the
    // cache every map on the path is a hit; without it every map is rebuilt.
    if (!s.RollbackTo(0).ok()) return false;
    Timer replay;
    for (int region : path) {
      if (!s.Zoom(region).ok()) {
        std::fprintf(stderr, "navigation bench replay diverged\n");
        return false;
      }
    }
    *replay_ms = replay.ElapsedMillis();
    return true;
  };

  double cold_descend = 0, cold_replay = 0;
  double warm_descend = 0, warm_replay = 0;
  obs::MetricsRegistry cold_metrics, warm_metrics;
  if (!run_path(false, &cold_descend, &cold_replay, &cold_metrics)) return;
  if (!run_path(true, &warm_descend, &warm_replay, &warm_metrics)) return;

  JsonWriter w;
  w.BeginObject();
  w.KV("bench", "map_pipeline_navigation");
  w.KV("rows", kRows);
  w.KV("sample_size", opt.map.sample_size);
  w.KV("zoom_depth", kDepth);
  w.Key("cold").BeginObject();
  w.KV("descend_ms", cold_descend);
  w.KV("replay_ms", cold_replay);
  w.KV("maps_built", cold_metrics.counter("core.map.builds")->value());
  w.KV("cache_hits", cold_metrics.counter("core.cache.hits")->value());
  w.EndObject();
  w.Key("warm").BeginObject();
  w.KV("descend_ms", warm_descend);
  w.KV("replay_ms", warm_replay);
  w.KV("maps_built", warm_metrics.counter("core.map.builds")->value());
  w.KV("cache_hits", warm_metrics.counter("core.cache.hits")->value());
  w.EndObject();
  const double speedup = warm_replay > 0.0 ? cold_replay / warm_replay : 0.0;
  w.KV("warm_replay_speedup", speedup);
  w.KV("meets_2x_bar", speedup >= 2.0);
  w.EndObject();

  std::ofstream out("BENCH_map_pipeline_navigation.json");
  out << w.str() << "\n";
  std::printf("%s\nwrote BENCH_map_pipeline_navigation.json\n",
              w.str().c_str());
}

/// The CI perf-regression point: core.map.build_seconds at an operating
/// point (32k rows, sample 2000, fixed k=4, 1 thread; `fixed_k` 0 runs the
/// default k sweep instead), kReps repetitions after one warm-up.
/// p50/p95 are exact nearest-rank order statistics over the raw
/// wall-clock samples — the log-scale metrics histogram quantizes
/// to power-of-two buckets (~2x relative error), far too coarse for a 25%
/// gate. Each rep also runs under its own tracer so the per-stage
/// breakdown (preprocess/cluster/describe/count/...) gets the same exact
/// quantile treatment; tools/check_bench_regression gates both the total
/// p50 and one stage's p50 (preprocess; cluster at the sweep point) against
/// the committed bench/baselines/ snapshot.
void EmitRegressionPointFor(const char* workload, const monet::Table& table,
                            const std::vector<std::string>& columns,
                            size_t fixed_k, const char* out_path) {
  constexpr int kReps = 15;
  auto sel = monet::SelectionVector::All(table.num_rows());

  core::MapOptions opt;
  opt.sample_size = 2000;
  opt.fixed_k = fixed_k;
  opt.seed = 7;
  opt.num_threads = 1;

  auto warm = core::BuildMap(table, sel, columns, opt);
  if (!warm.ok()) {
    std::fprintf(stderr, "regression point build failed: %s\n",
                 warm.status().ToString().c_str());
    return;
  }
  std::vector<double> samples;
  samples.reserve(kReps);
  // Stage-name -> wall-clock samples, from the direct children of the
  // core.map.build span (one tracer per rep keeps the spans separable).
  std::map<std::string, std::vector<double>> stage_samples;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::Tracer tracer;
    tracer.set_enabled(true);
    opt.tracer = &tracer;
    Timer timer;
    auto map = core::BuildMap(table, sel, columns, opt);
    if (!map.ok()) {
      std::fprintf(stderr, "regression point build failed: %s\n",
                   map.status().ToString().c_str());
      return;
    }
    samples.push_back(timer.ElapsedSeconds());
    std::vector<obs::SpanRecord> spans = tracer.Finished();
    int build_id = -1;
    for (const auto& s : spans) {
      if (s.name == "core.map.build") build_id = s.id;
    }
    for (const auto& s : spans) {
      if (s.parent != build_id || s.duration_ns < 0) continue;
      // "core.map.preprocess" -> "preprocess"
      std::string short_name = s.name.rfind("core.map.", 0) == 0
                                   ? s.name.substr(9)
                                   : s.name;
      stage_samples[short_name].push_back(static_cast<double>(s.duration_ns) /
                                          1e9);
    }
  }
  opt.tracer = nullptr;
  auto nearest_rank = [](std::vector<double>& v, double q) {
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    return v[rank];
  };

  JsonWriter w;
  w.BeginObject();
  w.KV("bench", "map_pipeline_regression");
  w.KV("metric", "core.map.build_seconds");
  w.KV("workload", workload);
  w.KV("rows", table.num_rows());
  w.KV("sample_size", opt.sample_size);
  w.KV("k", opt.fixed_k);
  w.KV("threads", static_cast<int64_t>(1));
  w.KV("reps", kReps);
  w.KV("p50_seconds", nearest_rank(samples, 0.50));
  w.KV("p95_seconds", nearest_rank(samples, 0.95));
  w.KV("min_seconds", samples.front());
  w.KV("max_seconds", samples.back());
  w.Key("stages").BeginObject();
  for (auto& [name, stage] : stage_samples) {
    if (stage.size() < static_cast<size_t>(kReps)) continue;  // partial span
    w.Key(name).BeginObject();
    w.KV("p50_seconds", nearest_rank(stage, 0.50));
    w.KV("p95_seconds", nearest_rank(stage, 0.95));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("%s\nwrote %s\n", w.str().c_str(), out_path);
}

void EmitRegressionPoint() {
  const auto& data = LofarCached(32000);
  EmitRegressionPointFor("lofar", *data.table, FluxColumns(*data.table), 4,
                         "BENCH_map_pipeline_regression.json");
}

/// The categorical-heavy twin of the regression point: Hollywood 32k rows,
/// same sample size / k / thread budget.
void EmitCategoricalPoint() {
  const auto& data = HollywoodCached(32000);
  EmitRegressionPointFor("hollywood", *data.table, AllColumns(*data.table), 4,
                         "BENCH_map_pipeline_categorical.json");
}

/// The sweep point: a default k sweep (k = 2..6, CLARA) on 1,199 LOFAR
/// rows, all of them clustered: what a small zoom and every paper-scale
/// Hollywood map cost. "k": 0 in the JSON marks the sweep.
void EmitSweepPoint() {
  const auto& data = LofarCached(1199);
  EmitRegressionPointFor("lofar", *data.table, AllColumns(*data.table), 0,
                         "BENCH_map_pipeline_sweep.json");
}

/// The process-global metrics accumulated across every bench above, as a
/// Prometheus exposition and a human-readable HTML waterfall — the CI run
/// uploads both as artifacts.
void EmitPerfReport() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  std::ofstream om("BENCH_map_pipeline_openmetrics.txt");
  om << obs::ToOpenMetrics(snap, {{"bench", "map_pipeline"}});
  std::ofstream html("BENCH_map_pipeline_report.html");
  html << obs::ToHtmlReport(snap, "Blaeu map-pipeline perf report");
  std::printf(
      "wrote BENCH_map_pipeline_openmetrics.txt and "
      "BENCH_map_pipeline_report.html\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  EmitStageBreakdown();
  EmitThreadScaling();
  EmitNavigationBench();
  EmitRegressionPoint();
  EmitCategoricalPoint();
  EmitSweepPoint();
  EmitPerfReport();
  return 0;
}
