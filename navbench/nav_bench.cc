// The navigation benchmark: what a Blaeu user waits for, per action, on
// paper-scale Hollywood and LOFAR tables, and (--trace 1) where that time
// goes, layer by layer. README.md beside this file describes the script,
// the workloads and every metric.
//
//   nav_bench --workload lofar-200k --seed 1 --seconds 15 --trace 0 --out DIR
//
// Human-readable metric lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. The
// benchmark sets BLAEU_NUM_THREADS to the workload's thread count itself.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/explorer.h"
#include "core/map_builder.h"
#include "core/theme.h"
#include "monet/column_stats.h"
#include "monet/csv.h"
#include "nav_script.h"
#include "nav_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/column_dependency.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"

namespace navbench {
namespace {

using blaeu::Rng;
using blaeu::core::Explorer;
using blaeu::monet::TablePtr;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

struct Workload {
  const char* name;
  bool lofar;  ///< LOFAR generator, else Hollywood
  size_t rows;
  size_t threads;  ///< BLAEU_NUM_THREADS the benchmark sets for itself
  /// Sessions start with Explorer::LoadCsv of a file written at set-up.
  bool csv;
  /// Rough length of one session on a 4-vCPU x86 VM; sizes the traced
  /// replay so a --trace 1 run takes about --seconds.
  double session_s;
};

// Why each workload exists: README.md. The tables come from the
// generators' default seed, so every --seed explores the same paper-scale
// table; the seed drives the user (see nav_script.h).
constexpr Workload kWorkloads[] = {
    {"hollywood-900", false, 900, 1, false, 0.75},
    {"hollywood-900-2t", false, 900, 2, false, 0.6},
    {"lofar-200k", true, 200000, 1, false, 1.8},
    {"hollywood-32k-csv", false, 32000, 1, true, 0.5},
};

/// Timed runs stop here even if a sample minimum is not met yet.
constexpr double kMaxMeasureSeconds = 60.0;
/// Set-up repeats at least three times and for at least this long, before
/// the sessions and again after them.
constexpr double kSetupSeconds = 0.5;
/// Steps of the calibration loop, about 3 ms on a 2.1 GHz Xeon.
constexpr int kCalibrationSteps = 300000;
/// The cold-map tail statistics need at least this many samples, thirteen
/// of them in the tail band.
constexpr size_t kMinColdMaps = 100;
constexpr size_t kSweepTableRows = 20000;
constexpr size_t kSweepRows[] = {300, 600, 900, 1199, 1201, 2000, 8000};
constexpr int kSweepReps = 3;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

/// One reported metric. `in_result` metrics also go into the final JSON
/// line (the BENCHMARK.json contract); the rest are printed only.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t count;
  bool in_result = true;
};

class Report {
 public:
  void Add(const std::string& name, Summary s, const std::string& unit,
           bool in_result = true) {
    metrics_.push_back({name, s.value, unit, s.count, in_result});
  }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t count, bool in_result = true) {
    metrics_.push_back({name, value, unit, count, in_result});
  }
  void Error(const std::string& what) { errors_.push_back(what); }

  bool ok() const { return errors_.empty(); }

  /// Prints every metric with its sample count, the failed checks, and the
  /// result line. Returns the process exit code.
  int Print(int64_t attempted, int64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-36s %16.6f %-6s n=%zu%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.count, m.in_result ? "" : "  (report only)");
    }
    for (const std::string& e : errors_) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    const bool correct = errors_.empty() && failed == 0;
    std::printf("checks: %s\n", correct ? "ok" : "FAILED");
    blaeu::JsonWriter json;
    json.BeginObject()
        .KV("correct", correct)
        .KV("attempted", attempted)
        .KV("failed", failed)
        .Key("metrics")
        .BeginObject();
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      json.Key(m.name).BeginObject().KV("value", m.value).KV("unit", m.unit);
      json.EndObject();
    }
    json.EndObject().EndObject();
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  /// {"name": {"value": v, "unit": u, "count": n}, ...} of every metric.
  std::string ToJson() const {
    blaeu::JsonWriter json;
    json.BeginObject();
    for (const Metric& m : metrics_) {
      json.Key(m.name).BeginObject().KV("value", m.value).KV("unit", m.unit);
      json.KV("count", m.count).EndObject();
    }
    json.EndObject();
    return json.str() + "\n";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

TablePtr MakeTable(const Workload& w) {
  if (w.lofar) {
    blaeu::workloads::LofarSpec spec;
    spec.rows = w.rows;
    return blaeu::workloads::MakeLofar(spec).table;
  }
  blaeu::workloads::HollywoodSpec spec;
  spec.rows = w.rows;
  return blaeu::workloads::MakeHollywood(spec).table;
}

std::string CsvPath(const Args& args) {
  return args.out + "/" + args.workload->name + "-" +
         std::to_string(args.seed) + ".csv";
}

bool WriteCsv(const blaeu::monet::Table& table, const std::string& path,
              Report* report) {
  blaeu::Status st = blaeu::monet::WriteCsvFile(table, path);
  if (!st.ok()) report->Error("writing " + path + ": " + st.ToString());
  return st.ok();
}

ScriptOptions MakeScript(const Args& args) {
  ScriptOptions script;
  script.seed = args.seed;
  if (args.workload->csv) script.csv_path = CsvPath(args);
  return script;
}

/// Registers an in-memory workload table under the script's name; CSV
/// workloads load theirs at every session start instead.
bool Register(Explorer* explorer, const Args& args, const TablePtr& table,
              Report* report) {
  if (args.workload->csv) return true;
  blaeu::Status st = explorer->LoadTable(table, kTableName);
  if (!st.ok()) report->Error("LoadTable: " + st.ToString());
  return st.ok();
}

/// Everything before a pass's first timed call: a fresh Explorer with
/// default SessionOptions, and the workload table registered in it or, for
/// CSV workloads, written to the file the sessions load. Null on failure.
std::unique_ptr<Explorer> SetUp(const Args& args, Report* report) {
  auto explorer = std::make_unique<Explorer>();
  const TablePtr table = MakeTable(*args.workload);
  if (args.workload->csv && !WriteCsv(*table, CsvPath(args), report)) {
    return nullptr;
  }
  if (!Register(explorer.get(), args, table, report)) return nullptr;
  return explorer;
}

void AddLogErrors(const ReplayLog& log, Report* report) {
  for (const std::string& e : log.errors) report->Error(e);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------------- timed runs

volatile double calibration_sink = 0.0;

/// Times a fixed floating-point loop that calls none of the library: its
/// time tracks how fast the machine runs at the moment, not the program.
double CalibrationMs() {
  const auto start = Clock::now();
  double sum = 0.0;
  for (int i = 1; i <= kCalibrationSteps; ++i) {
    sum += std::sin(i * 1e-3) / static_cast<double>(i);
  }
  calibration_sink = sum;
  return MsSince(start);
}

/// The CPUs the process may run on, in increasing order; empty if unknown.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins every thread of the process (the caller and the thread pool's
/// workers) to `count` of `cpus`, starting at index `first` and wrapping.
/// Pinning is best effort: a thread that cannot be pinned runs anywhere.
void PinThreads(const std::vector<int>& cpus, size_t first, size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t c = 0; c < std::min(count, cpus.size()); ++c) {
    CPU_SET(cpus[(first + c) % cpus.size()], &set);
  }
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(set), &set);
  }
}

/// Repeats the set-up until it ran three times and for kSetupSeconds, each
/// repetition pinned to the next of `cpus` in turn (as many as the workload
/// has threads), appending each one's time to `setup_s`. Returns the last
/// repetition's Explorer; the earlier ones are freed first, so one table is
/// alive at a time. Null on failure.
std::unique_ptr<Explorer> RepeatSetUp(const Args& args,
                                      const std::vector<int>& cpus,
                                      std::vector<double>* setup_s,
                                      Report* report) {
  std::unique_ptr<Explorer> explorer;
  const auto first = Clock::now();
  for (size_t rep = 0; rep < 3 || SecondsSince(first) < kSetupSeconds;
       ++rep) {
    explorer.reset();
    PinThreads(cpus, rep * args.workload->threads, args.workload->threads);
    const auto start = Clock::now();
    explorer = SetUp(args, report);
    if (explorer == nullptr) break;
    setup_s->push_back(SecondsSince(start));
  }
  return explorer;
}

int RunTimed(const Args& args) {
  const Workload& w = *args.workload;
  Report report;
  const ScriptOptions script = MakeScript(args);

  // The machine this was tuned on runs 1.3-1.9x slower at times, CPU by
  // CPU, for stretches of a second to minutes. Each session (and each
  // set-up repetition) is pinned to the next CPUs in turn, so a run samples
  // every CPU rather than the one it happened to start on. A fixed loop
  // that calls none of the library runs before every session; its median
  // is printed, so a slow run shows as slow calibration too. setup_s is the
  // fastest set-up repetition, over repetitions before and after the
  // sessions.
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> calibration_ms;
  std::vector<double> setup_s;
  const auto run_start = Clock::now();
  std::unique_ptr<Explorer> explorer =
      RepeatSetUp(args, cpus, &setup_s, &report);
  ReplayLog log;
  std::vector<SessionRecord> sessions;
  size_t cold_maps = 0;
  size_t next_cpu = 0;
  const auto measure_start = Clock::now();
  while (explorer != nullptr) {
    calibration_ms.push_back(CalibrationMs());
    PinThreads(cpus, next_cpu, w.threads);
    next_cpu += w.threads;
    sessions.push_back(
        RunSession(explorer.get(), script, sessions.size(), &log));
    for (const ActionRecord& a : sessions.back().actions) {
      cold_maps += a.cold && a.action != Action::kOpen;
    }
    const double elapsed = SecondsSince(measure_start);
    if (elapsed >= kMaxMeasureSeconds) break;
    if (elapsed >= args.seconds && cold_maps >= kMinColdMaps &&
        sessions.size() >= 3) {
      break;
    }
    if (log.failed > 0) break;  // the workloads are chosen so none fail
  }
  if (explorer != nullptr) {
    explorer.reset();
    RepeatSetUp(args, cpus, &setup_s, &report);
  }
  const double measured_s = SecondsSince(run_start);

  std::vector<double> load, open, select, zoom, project, cold, warm, region,
      session;
  for (const SessionRecord& s : sessions) {
    session.push_back(s.wait_s);
    for (const ActionRecord& a : s.actions) {
      switch (a.action) {
        case Action::kLoad:
          load.push_back(a.ms);
          break;
        case Action::kOpen:
          open.push_back(a.ms);
          break;
        case Action::kSelectTheme:
        case Action::kZoom:
        case Action::kProject:
          (a.cold ? cold : warm).push_back(a.ms);
          if (!a.cold) break;
          if (a.action == Action::kSelectTheme) select.push_back(a.ms);
          if (a.action == Action::kZoom) zoom.push_back(a.ms);
          if (a.action == Action::kProject) project.push_back(a.ms);
          break;
        case Action::kHighlight:
        case Action::kHighlightDetail:
        case Action::kInspect:
          region.push_back(a.ms);
          break;
        default:
          break;
      }
    }
  }
  const int64_t attempted = log.attempted;
  const int64_t failed = log.failed;
  AddLogErrors(log, &report);

  std::printf("# navbench %s seed=%llu threads=%zu trace=0: %zu sessions of "
              "%zu excursions on %zu CPUs in turn in %.2f s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              blaeu::EffectiveNumThreads(0), sessions.size(), kExcursions,
              cpus.size(), measured_s);
  // Open builds the same root map every session, and a session is the same
  // mix of calls every time: their spread within a run is mostly the
  // machine's, so the result carries their fast end (the open's p10, the
  // session's p25); the medians are printed. Cold SelectTheme pools three
  // themes' root maps, and Zoom, Project, the region views and the cache
  // hits pool selections one to three zooms deep, all in fixed
  // proportions: their median sits where two groups meet and jumps with a
  // single sample, and their mean jumps with each PAM cliff a run happens
  // to hit. The result carries the interquartile mean, or for Zoom, whose
  // costs span four decades, the mean from the 10th to the 90th
  // percentile; the median is printed. The cold-map p90 falls on such an edge too (on
  // hollywood-900, between two of the three cold root maps each session
  // has), so the result carries the mean of the tail band from the 85th to
  // the 98th percentile. The band leaves out the slowest 2%, a handful of
  // PAM cliffs whose number swings with the paths; the p90 is printed.
  auto iqm = [](const std::vector<double>& v) {
    return TrimmedMean(v, 0.25, 0.75);
  };
  report.Add("open_ms_p10", NearestRank(open, 0.1), "ms");
  report.Add("open_ms_p50", NearestRank(open, 0.5), "ms", false);
  report.Add("select_theme_ms_iqm", iqm(select), "ms");
  report.Add("select_theme_ms_p50", NearestRank(select, 0.5), "ms", false);
  report.Add("zoom_ms_trim10", TrimmedMean(zoom, 0.1, 0.9), "ms");
  report.Add("zoom_ms_iqm", iqm(zoom), "ms", false);
  report.Add("zoom_ms_p50", NearestRank(zoom, 0.5), "ms", false);
  report.Add("project_ms_iqm", iqm(project), "ms", false);
  report.Add("project_ms_p50", NearestRank(project, 0.5), "ms", false);
  if (cold.size() < kMinColdMaps) {
    report.Error("only " + std::to_string(cold.size()) + " cold map actions");
  }
  report.Add("map_cold_ms_tail", TrimmedMean(cold, 0.85, 0.98), "ms");
  report.Add("map_cold_ms_p90", NearestRank(cold, 0.9), "ms", false);
  report.Add("map_warm_ms_iqm", iqm(warm), "ms");
  report.Add("map_warm_ms_p50", NearestRank(warm, 0.5), "ms", false);
  // Project (above) and the region views run on the selection three zooms
  // deep, whose size spans four decades on lofar-200k: with the few dozen
  // such selections a run reaches, even their interquartile means moved by
  // more than the largest bound from seed to seed, so they are printed
  // only. Their cost counts in map_cold_ms_tail and session_s_p25.
  report.Add("region_ms_iqm", iqm(region), "ms", false);
  report.Add("region_ms_p50", NearestRank(region, 0.5), "ms", false);
  // Only hollywood-32k-csv loads per session; the in-memory workloads
  // register their table in set-up.
  if (w.csv) report.Add("load_ms_p50", NearestRank(load, 0.5), "ms", false);
  report.Add("session_s_p25", NearestRank(session, 0.25), "s");
  report.Add("session_s_p50", NearestRank(session, 0.5), "s", false);
  report.Add("failed_share",
             attempted > 0 ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio", static_cast<size_t>(attempted), false);
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
  report.Add("calibration_ms_p50", NearestRank(calibration_ms, 0.5), "ms",
             false);
  report.Add("setup_s",
             setup_s.empty() ? 0.0
                             : *std::min_element(setup_s.begin(), setup_s.end()),
             "s", setup_s.size());
  std::printf("# digest %016llx\n",
              static_cast<unsigned long long>(log.digest));
  if (w.csv) std::remove(CsvPath(args).c_str());
  return report.Print(attempted, failed);
}

// ----------------------------------------------------------- traced run

using Counters = std::map<std::string, int64_t>;

Counters GlobalCounters() {
  return blaeu::obs::MetricsRegistry::Global().Snapshot().counters;
}

int64_t Delta(const Counters& before, const Counters& after,
              const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// The metric group a bench.<action> root span reports under, or "" for a
/// root that is not a user action.
std::string ActionGroup(const std::string& span_name) {
  static const std::map<std::string, std::string> kGroups = {
      {"bench.load", "load"},
      {"bench.open", "open"},
      {"bench.select_theme", "select_theme"},
      {"bench.zoom", "zoom"},
      {"bench.project", "project"},
      {"bench.highlight", "region"},
      {"bench.highlight_detail", "region"},
      {"bench.inspect", "region"},
      {"bench.rollback", "rollback"},
      {"bench.close", "close"},
  };
  auto it = kGroups.find(span_name);
  return it == kGroups.end() ? "" : it->second;
}

struct GroupSplit {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::map<std::string, int64_t> child_ns;
};

int RunTraced(const Args& args) {
  const Workload& w = *args.workload;
  Report report;
  // Every workload gets a CSV of its table: the CSV workload's sessions
  // load it, and the monet.csv probe below reads it on all of them.
  TablePtr table = MakeTable(w);
  if (!WriteCsv(*table, CsvPath(args), &report)) return report.Print(0, 0);
  const ScriptOptions script = MakeScript(args);
  const size_t sessions = std::max<size_t>(
      1, static_cast<size_t>(args.seconds / (2.0 * w.session_s)));

  // The traced replay: sinks injected through SessionOptions::map (the
  // Explorer hands them to its MapCache too). The same sessions also run
  // untraced, interleaved with the traced ones in alternating order after
  // one warm-up session, for the overhead and the digest check. The global
  // registry, where cluster, monet and common.parallel report, is read as
  // before/after deltas around the traced sessions: Reset() would free the
  // counter common.parallel caches a pointer to.
  blaeu::obs::Tracer tracer;
  tracer.set_enabled(true);
  blaeu::obs::MetricsRegistry registry;
  blaeu::core::SessionOptions options;
  options.map.tracer = &tracer;
  options.map.metrics = &registry;
  ScriptOptions traced_script = script;
  traced_script.tracer = &tracer;
  Explorer plain;
  Explorer traced(options);
  ReplayLog plain_log, log;
  std::vector<double> plain_s, traced_s;
  Counters global;
  if (Register(&plain, args, table, &report) &&
      Register(&traced, args, table, &report)) {
    ReplayLog warm_up;
    RunSession(&plain, script, 0, &warm_up);
    for (size_t i = 0; i < sessions; ++i) {
      auto run_plain = [&] {
        plain_s.push_back(RunSession(&plain, script, i, &plain_log).wait_s);
      };
      if (i % 2 == 1) run_plain();
      const Counters before = GlobalCounters();
      traced_s.push_back(RunSession(&traced, traced_script, i, &log).wait_s);
      const Counters after = GlobalCounters();
      for (const auto& [name, value] : after) {
        global[name] += Delta(before, after, name);
      }
      if (i % 2 == 0) run_plain();
    }
  }
  const blaeu::obs::MetricsSnapshot snap = registry.Snapshot();
  if (plain_log.digest != log.digest || plain_log.trail != log.trail) {
    report.Error("traced replay visited different maps than the untraced one");
  }

  // Layer functions with no span of their own, called directly between
  // actions, each under a bench-side span. The CSV read comes first so the
  // CSV workload's theme calls see the table its sessions explore.
  const size_t reps = std::min<size_t>(sessions, 3);
  const size_t csv_reps = w.lofar ? 1 : reps;  // a 200k-row read takes a second
  std::vector<double> dependency_ms, themes_ms, csv_ms;
  const Counters csv_before = GlobalCounters();
  for (size_t r = 0; r < csv_reps; ++r) {
    blaeu::obs::Span span(&tracer, "monet.csv.read");
    const auto start = Clock::now();
    auto read = blaeu::monet::ReadCsvFile(CsvPath(args));
    csv_ms.push_back(MsSince(start));
    if (!read.ok() || (*read)->num_rows() != table->num_rows()) {
      report.Error("ReadCsvFile did not return the written table");
    } else if (w.csv) {
      table = *read;
    }
  }
  const Counters csv_after = GlobalCounters();
  std::remove(CsvPath(args).c_str());
  {
    std::vector<size_t> keys = blaeu::monet::DetectPrimaryKeyColumns(*table);
    std::vector<size_t> non_key;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
        non_key.push_back(c);
      }
    }
    const TablePtr view = table->Project(non_key);
    const blaeu::core::ThemeOptions theme_options;
    for (size_t r = 0; r < reps; ++r) {
      {
        blaeu::obs::Span span(&tracer, "stats.dependency.matrix");
        const auto start = Clock::now();
        auto dep = blaeu::stats::DependencyMatrix(*view,
                                                  theme_options.dependency);
        dependency_ms.push_back(MsSince(start));
        if (!dep.ok()) report.Error("DependencyMatrix: " + dep.status().ToString());
      }
      {
        blaeu::obs::Span span(&tracer, "core.themes.detect");
        const auto start = Clock::now();
        auto themes = blaeu::core::DetectThemes(*table, theme_options);
        themes_ms.push_back(MsSince(start));
        if (!themes.ok() || themes->size() == 0) {
          report.Error("DetectThemes found no themes");
        }
      }
    }
  }

  // BuildMap across the kAuto PAM/CLARA switch (clara_threshold = 1200) on
  // seeded LOFAR selections, default MapOptions.
  std::map<size_t, std::vector<double>> sweep_ms;
  {
    blaeu::workloads::LofarSpec spec;
    spec.rows = kSweepTableRows;
    const TablePtr lofar = blaeu::workloads::MakeLofar(spec).table;
    std::vector<std::string> columns;
    for (const auto& f : lofar->schema().fields()) columns.push_back(f.name);
    blaeu::obs::MetricsRegistry sweep_registry;
    Rng rng(args.seed);
    for (size_t n : kSweepRows) {
      std::vector<size_t> picked = rng.SampleWithoutReplacement(lofar->num_rows(), n);
      std::sort(picked.begin(), picked.end());
      blaeu::monet::SelectionVector sel(
          std::vector<uint32_t>(picked.begin(), picked.end()));
      blaeu::core::MapOptions map_options;
      map_options.tracer = &tracer;
      map_options.metrics = &sweep_registry;
      for (int r = 0; r < kSweepReps; ++r) {
        blaeu::obs::Span span(&tracer, "bench.sweep");
        span.SetAttr("selection_rows", n);
        const auto start = Clock::now();
        auto map = blaeu::core::BuildMap(*lofar, sel, columns, map_options);
        sweep_ms[n].push_back(MsSince(start));
        if (!map.ok() || map->root().tuple_count != n) {
          report.Error("sweep BuildMap on " + std::to_string(n) + " rows");
        }
      }
    }
  }

  // Per-layer numbers from the spans of the traced replay.
  const std::vector<blaeu::obs::SpanRecord> spans = tracer.Finished();
  const std::vector<std::vector<int>> children = ChildIndex(spans);
  std::map<std::string, GroupSplit> splits;
  std::map<std::string, std::vector<double>> span_ms;
  std::vector<double> build_lt1200, build_mid, build_gt8000;
  for (const blaeu::obs::SpanRecord& s : spans) {
    if (s.duration_ns < 0) continue;
    int root = s.id;
    while (spans[root].parent >= 0) root = spans[root].parent;
    const std::string group = ActionGroup(spans[root].name);
    if (group.empty()) continue;  // direct layer calls and the sweep
    if (s.parent < 0) {
      const SpanSplit split = SplitSpan(spans, children, s.id);
      GroupSplit& g = splits[group];
      g.total_ns += split.total_ns;
      g.self_ns += split.self_ns;
      for (const auto& [name, ns] : split.child_ns) g.child_ns[name] += ns;
      continue;
    }
    const double ms = static_cast<double>(s.duration_ns) / 1e6;
    span_ms[s.name].push_back(ms);
    if (s.name == "core.map.build") {
      // Grouped by the user's selection: the build span's own
      // selection_rows is capped at 4 x sample_size by the session's
      // pre-shrink.
      const size_t rows = std::strtoull(
          SpanAttr(spans[root], "selection_rows").c_str(), nullptr, 10);
      (rows < 1200 ? build_lt1200 : rows <= 8000 ? build_mid : build_gt8000)
          .push_back(ms);
    }
  }
  auto counter = [&](const std::string& name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto global_count = [&](const std::string& name) {
    auto it = global.find(name);
    return it == global.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per_read = [&](const std::string& name) {
    return static_cast<double>(Delta(csv_before, csv_after, name)) /
           static_cast<double>(csv_reps);
  };
  auto p50 = [&](const std::string& span_name) {
    return NearestRank(span_ms[span_name], 0.5);
  };
  const size_t builds = span_ms["core.map.build"].size();

  std::printf("# navbench %s seed=%llu threads=%zu trace=1: %zu sessions "
              "replayed traced and untraced\n",
              w.name, static_cast<unsigned long long>(args.seed),
              blaeu::EffectiveNumThreads(0), sessions);
  report.Add("monet.csv.read_ms", NearestRank(csv_ms, 0.5), "ms");
  report.Add("monet.csv.rows_read", per_read("monet.csv.rows_read"), "rows",
             csv_reps);
  report.Add("monet.dict.entries", per_read("monet.dict.entries"), "count",
             csv_reps);
  report.Add("monet.dict.intern_hits", per_read("monet.dict.intern_hits"),
             "count", csv_reps);
  report.Add("monet.predicate.eval_ms", NearestRank(log.predicate_eval_ms, 0.5),
             "ms");
  report.Add("monet.predicate.rows_in",
             static_cast<double>(log.predicate_rows_in), "rows",
             log.predicate_eval_ms.size());
  report.Add("monet.sampling.rows_sampled", global_count("monet.sampling.rows_sampled"),
             "rows", builds);
  report.Add("stats.dependency.matrix_ms", NearestRank(dependency_ms, 0.5), "ms");
  report.Add("core.themes.detect_ms", NearestRank(themes_ms, 0.5), "ms");
  report.Add("core.map.preprocess_ms", p50("core.map.preprocess"), "ms");
  report.Add("core.map.cells_materialized", counter("core.map.cells_materialized"),
             "count", builds);
  report.Add("core.map.cluster_ms", p50("core.map.cluster"), "ms");
  report.Add("core.map.distance_matrix_ms", p50("core.map.distance_matrix"), "ms");
  report.Add("core.map.distance_evaluations",
             counter("core.map.distance_evaluations"), "count", builds);
  report.Add("cluster.pam.runs", global_count("cluster.pam.runs"), "count", builds);
  report.Add("cluster.pam.swap_iterations", global_count("cluster.pam.swap_iterations"),
             "count", builds);
  report.Add("cluster.clara.runs", global_count("cluster.clara.runs"), "count", builds);
  report.Add("cluster.kselect.candidates", global_count("cluster.kselect.candidates"),
             "count", builds);
  report.Add("core.map.describe_ms", p50("core.map.describe"), "ms");
  report.Add("core.map.cart_nodes", counter("core.map.cart_nodes"), "count",
             builds);
  report.Add("core.map.builds", counter("core.map.builds"), "count", builds);
  report.Add("core.map.build_ms", p50("core.map.build"), "ms");
  report.Add("core.map.sample_ms", p50("core.map.sample"), "ms");
  report.Add("core.map.assemble_ms", p50("core.map.assemble"), "ms");
  report.Add("core.map.count_ms", p50("core.map.count"), "ms");
  report.Add("core.map.rows_counted", counter("core.map.rows_counted"), "rows",
             builds);
  report.Add("core.map.rows_scanned", counter("core.map.rows_scanned"), "rows",
             builds);
  auto scratch = snap.histograms.find("core.map.scratch_peak_bytes");
  report.Add("core.map.scratch_peak_bytes",
             scratch == snap.histograms.end() ? 0.0 : scratch->second.max,
             "bytes", builds);
  report.Add("core.map.trivial_share",
             log.cold_maps > 0 ? static_cast<double>(log.trivial_maps) /
                                     static_cast<double>(log.cold_maps)
                               : 0.0,
             "ratio", static_cast<size_t>(log.cold_maps));
  report.Add("core.map.rows_outside_leaves",
             static_cast<double>(log.rows_outside_leaves), "rows",
             static_cast<size_t>(log.cold_maps));
  // Not every workload has selections in every group (hollywood-900 has
  // none above 900 rows), so these three stay out of the result line.
  report.Add("core.map.build_ms.lt1200", NearestRank(build_lt1200, 0.5), "ms",
             false);
  report.Add("core.map.build_ms.1200to8000", NearestRank(build_mid, 0.5), "ms",
             false);
  report.Add("core.map.build_ms.gt8000", NearestRank(build_gt8000, 0.5), "ms",
             false);
  for (size_t n : kSweepRows) {
    report.Add("core.map.build_ms.n" + std::to_string(n),
               NearestRank(sweep_ms[n], 0.5), "ms");
  }
  const double hits = counter("core.cache.hits");
  const double misses = counter("core.cache.misses");
  report.Add("core.cache.lookup_ms", p50("core.cache.lookup"), "ms");
  report.Add("core.cache.hits", hits, "count", span_ms["core.cache.lookup"].size());
  report.Add("core.cache.misses", misses, "count",
             span_ms["core.cache.lookup"].size());
  report.Add("core.cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             span_ms["core.cache.lookup"].size());
  report.Add("core.cache.invalidations", counter("core.cache.invalidations"),
             "count", sessions);
  report.Add("core.cache.evictions", counter("core.cache.evictions"), "count",
             sessions);
  report.Add("core.cache.bytes_max", static_cast<double>(log.cache_bytes_max),
             "bytes", static_cast<size_t>(log.attempted));
  for (const char* group :
       {"open", "select_theme", "zoom", "project", "region", "load", "rollback",
        "close"}) {
    const GroupSplit& g = splits[group];
    const bool in_result = std::strcmp(group, "load") != 0 &&
                           std::strcmp(group, "rollback") != 0 &&
                           std::strcmp(group, "close") != 0;
    if (!in_result && g.total_ns == 0) continue;  // no loads in this workload
    const double total = static_cast<double>(std::max<int64_t>(g.total_ns, 1));
    double sum = static_cast<double>(g.self_ns) / total;
    report.Add(std::string("core.session.self_share.") + group,
               static_cast<double>(g.self_ns) / total, "ratio", sessions,
               in_result);
    for (const auto& [child, ns] : g.child_ns) {
      const double share = static_cast<double>(ns) / total;
      sum += share;
      report.Add(std::string("core.session.child_share.") + group + "." + child,
                 share, "ratio", sessions, false);
    }
    if (g.total_ns > 0 && std::fabs(sum - 1.0) > 1e-3) {
      report.Error(std::string("span split of ") + group + " sums to " +
                   std::to_string(sum));
    }
  }
  report.Add("common.parallel.tasks", global_count("common.parallel.tasks"), "count",
             builds);
  // Each session ran both ways; the median of the per-session ratios
  // cancels the sessions' different paths.
  std::vector<double> overhead;
  for (size_t i = 0; i < std::min(plain_s.size(), traced_s.size()); ++i) {
    if (plain_s[i] > 0) overhead.push_back(traced_s[i] / plain_s[i] - 1.0);
  }
  report.Add("session_s_p50.untraced", NearestRank(plain_s, 0.5), "s", false);
  report.Add("session_s_p50.traced", NearestRank(traced_s, 0.5), "s", false);
  report.Add("obs.trace.overhead_share", NearestRank(overhead, 0.5), "ratio");

  const std::string stem = args.out + "/" + w.name + "-" +
                           std::to_string(args.seed);
  std::ofstream(stem + ".trace.json") << tracer.ToChromeTrace();
  std::ofstream(stem + ".layers.json") << report.ToJson();
  std::printf("# chrome trace: %s.trace.json  per-layer metrics: "
              "%s.layers.json\n",
              stem.c_str(), stem.c_str());
  AddLogErrors(plain_log, &report);
  AddLogErrors(log, &report);
  return report.Print(log.attempted + plain_log.attempted,
                      log.failed + plain_log.failed);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(value)) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr;
}

}  // namespace
}  // namespace navbench

int main(int argc, char** argv) {
  navbench::Args args;
  if (!navbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nav_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\nworkloads:");
    for (const auto& w : navbench::kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  // The thread pool reads BLAEU_NUM_THREADS once, at its first use.
  const std::string threads = std::to_string(args.workload->threads);
  setenv("BLAEU_NUM_THREADS", threads.c_str(), 1);
  if (blaeu::EffectiveNumThreads(0) != args.workload->threads) {
    std::fprintf(stderr, "%s needs %s threads, the pool has %zu\n",
                 args.workload->name, threads.c_str(),
                 blaeu::EffectiveNumThreads(0));
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out.c_str(),
                 ec.message().c_str());
    return 2;
  }
  return args.trace ? navbench::RunTraced(args) : navbench::RunTimed(args);
}
