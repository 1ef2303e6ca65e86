// Flight recorder: a fixed-capacity, thread-safe ring buffer of structured
// session events — the durable "what did this session do" record that spans
// (obs/trace.h) and metrics (obs/metrics.h) do not keep.
//
// Events are coarse-grained (one per user-visible action or pipeline
// milestone: map built, cache hit/miss, zoom/project/rollback, query
// executed, error), never per-row, so recording is always on and costs one
// short critical section per event. When the buffer is full the oldest
// event is overwritten; `dropped()` says how many were lost, and the tail
// that survives is exactly what a bug report needs to replay a navigation
// session.
//
// The global recorder is what library instrumentation writes to by default;
// tests and embedders inject their own through the options structs
// (core::MapOptions::flight / core::SessionOptions), exactly like the
// tracer. The REPL's `flightlog [n]` command prints the tail; `flightlog
// dump <path>` writes it as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace blaeu::obs {

/// \brief What kind of thing happened. Keep coarse: one value per class of
/// user-visible action, not per call site.
enum class FlightEventKind {
  kMapBuilt,     ///< a map came out of the build pipeline
  kCacheHit,     ///< whole-map cache hit
  kCacheMiss,    ///< whole-map cache miss (a build follows)
  kCacheEvict,   ///< cache invalidation (table reload / session close)
  kNavigation,   ///< zoom / project / select_theme / rollback
  kQuery,        ///< a Select-Project query executed
  kLoad,         ///< a table (re-)loaded into the catalog
  kError,        ///< a user-visible operation failed
  kNote,         ///< anything else worth keeping (tests, embedders)
};

/// Stable lowercase name of a kind ("map_built", "cache_hit", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// \brief One recorded event.
struct FlightEvent {
  uint64_t seq = 0;     ///< global sequence number (monotonic, never reused)
  int64_t t_ns = 0;     ///< monotonic time since the recorder's epoch
  FlightEventKind kind = FlightEventKind::kNote;
  std::string name;     ///< what happened, e.g. "core.map.build", "zoom(3)"
  uint64_t thread = 0;  ///< stable small id of the recording thread
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// \brief Fixed-capacity ring buffer of FlightEvents; thread-safe.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-global recorder (never destroyed).
  static FlightRecorder& Global();

  /// Appends one event, overwriting the oldest when full.
  void Record(FlightEventKind kind, std::string name,
              std::vector<std::pair<std::string, std::string>> attrs = {});

  size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity()).
  size_t size() const;
  /// Events recorded over the recorder's whole life (including overwritten).
  uint64_t total_recorded() const;
  /// Events lost to overwriting (Clear() does not count).
  uint64_t dropped() const;

  /// The last `n` events, oldest first (n = 0: everything retained).
  std::vector<FlightEvent> Tail(size_t n = 0) const;

  /// JSON dump of Tail(n):
  /// {"capacity":...,"total_recorded":...,"dropped":...,"events":[
  ///   {"seq":...,"t_us":...,"kind":"...","name":"...","thread":...,
  ///    "attrs":{...}}]}
  std::string ToJson(size_t n = 0) const;

  /// Human-readable rendering of Tail(n), one line per event (the REPL's
  /// `flightlog` output).
  std::string ToText(size_t n = 0) const;

  /// Discards every retained event (counters keep running).
  void Clear();

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  ///< fixed size once full; ring semantics
  size_t next_ = 0;                ///< write position when ring_ is full
  uint64_t total_ = 0;             ///< events ever recorded
  uint64_t dropped_ = 0;           ///< events overwritten
};

}  // namespace blaeu::obs
