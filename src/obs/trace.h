// Hierarchical tracing: RAII spans over the map pipeline and query layer.
//
// A Span is the one way a stage is timed. When it closes, it observes its
// duration as the histogram `<span name>_seconds` of the registry it was
// given, and, when its tracer is enabled, it records itself there too.
// Nesting is lexical, so a span opened while another span of the same
// tracer is live on the same thread becomes its child. Finished spans
// accumulate in the Tracer and export in Chrome trace-event format,
// loadable in chrome://tracing / Perfetto.
//
// The global tracer is disabled by default so instrumented hot paths cost
// one branch when nobody is looking. Tests and benches construct their own
// Tracer (or enable the global one) and inject it through the options
// structs, e.g. core::MapOptions::tracer.
//
// Span names follow the metric convention (ROADMAP.md "Observability"):
// "core.map.build" > "core.map.sample" > ... Attributes are key=value
// strings ("rows=2000", "k=4") carried into the export.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace blaeu::obs {

class Histogram;
class MetricsRegistry;

/// Small stable integer id of the calling thread (Chrome trace wants
/// integers, and std::thread::id does not serialize usefully). Shared by
/// the tracer and the flight recorder so their records correlate.
uint64_t ThisThreadId();

/// \brief One finished (or still open) timed region.
struct SpanRecord {
  std::string name;
  int id = -1;
  int parent = -1;      ///< index into the tracer's record list; -1 = root
  int depth = 0;        ///< 0 for roots
  uint64_t thread = 0;  ///< stable small id of the recording thread
  int64_t start_ns = 0; ///< relative to the tracer epoch
  int64_t duration_ns = -1;  ///< -1 while the span is open
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Span;

/// \brief Collects spans; thread-safe.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-global tracer, disabled until set_enabled(true).
  static Tracer& Global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Copy of all spans recorded so far (open spans have duration_ns == -1).
  std::vector<SpanRecord> Finished() const;

  /// Discards all recorded spans.
  void Clear();

  /// Chrome trace-event JSON: {"traceEvents":[{"ph":"X",...}]}. Load the
  /// string as a .json file in chrome://tracing or ui.perfetto.dev.
  std::string ToChromeTrace() const;

 private:
  friend class Span;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span and returns its record index.
  int BeginSpan(const std::string& name, int parent, int depth);
  void EndSpan(int id,
               std::vector<std::pair<std::string, std::string>> attrs);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// \brief RAII handle for one timed region.
///
/// A null or disabled tracer makes the trace half a no-op (SetAttr too), so
/// call sites do not need their own `if (tracing)` guards; the histogram is
/// observed whenever a registry was given.
class Span {
 public:
  /// Opens a span on `tracer` (not recorded when null or disabled) that
  /// observes `<name>_seconds` in `metrics` on close (nothing when null).
  Span(Tracer* tracer, std::string name, MetricsRegistry* metrics = nullptr);
  /// Opens a span on the global tracer and the global registry.
  explicit Span(std::string name);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span();

  /// Attaches a key=value attribute, exported with the span.
  void SetAttr(const std::string& key, const std::string& value);
  void SetAttr(const std::string& key, const char* value) {
    SetAttr(key, std::string(value));
  }
  void SetAttr(const std::string& key, int64_t value);
  void SetAttr(const std::string& key, size_t value) {
    SetAttr(key, static_cast<int64_t>(value));
  }
  void SetAttr(const std::string& key, int value) {
    SetAttr(key, static_cast<int64_t>(value));
  }
  void SetAttr(const std::string& key, double value);

  /// True when this span is recording in its tracer.
  bool active() const { return tracer_ != nullptr; }

  /// Seconds since the span opened, whether or not it records.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_ = nullptr;  ///< looked up before start_ is taken
  Clock::time_point start_;
  Tracer* tracer_ = nullptr;  ///< null when not recording
  int id_ = -1;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

}  // namespace blaeu::obs
