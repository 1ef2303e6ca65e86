#include "obs/flight_recorder.h"

#include <cstdio>

#include "common/json_writer.h"
#include "obs/trace.h"

namespace blaeu::obs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kMapBuilt: return "map_built";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kCacheEvict: return "cache_evict";
    case FlightEventKind::kNavigation: return "navigation";
    case FlightEventKind::kQuery: return "query";
    case FlightEventKind::kLoad: return "load";
    case FlightEventKind::kError: return "error";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      epoch_(std::chrono::steady_clock::now()) {
  // The ring grows lazily up to capacity_ so short sessions stay small.
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* global = new FlightRecorder();  // leaked on purpose
  return *global;
}

void FlightRecorder::Record(
    FlightEventKind kind, std::string name,
    std::vector<std::pair<std::string, std::string>> attrs) {
  FlightEvent event;
  event.t_ns = NowNs();
  event.kind = kind;
  event.name = std::move(name);
  event.thread = ThisThreadId();
  event.attrs = std::move(attrs);
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = total_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
    dropped_++;
  }
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<FlightEvent> FlightRecorder::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  // Chronological order: when the ring has wrapped, next_ points at the
  // oldest retained event.
  const size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  if (n > 0 && out.size() > n) out.erase(out.begin(), out.end() - n);
  return out;
}

std::string FlightRecorder::ToJson(size_t n) const {
  std::vector<FlightEvent> events = Tail(n);
  uint64_t total, lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = total_;
    lost = dropped_;
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("capacity", capacity_);
  w.KV("total_recorded", static_cast<int64_t>(total));
  w.KV("dropped", static_cast<int64_t>(lost));
  w.Key("events").BeginArray();
  for (const FlightEvent& e : events) {
    w.BeginObject();
    w.KV("seq", static_cast<int64_t>(e.seq));
    w.KV("t_us", static_cast<double>(e.t_ns) / 1e3);
    w.KV("kind", FlightEventKindName(e.kind));
    w.KV("name", e.name);
    w.KV("thread", static_cast<int64_t>(e.thread));
    w.Key("attrs").BeginObject();
    for (const auto& [k, v] : e.attrs) w.KV(k, v);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string FlightRecorder::ToText(size_t n) const {
  std::vector<FlightEvent> events = Tail(n);
  std::string out;
  char line[160];
  for (const FlightEvent& e : events) {
    std::snprintf(line, sizeof(line), "%6llu %12.3fms %-10s %s",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<double>(e.t_ns) / 1e6,
                  FlightEventKindName(e.kind), e.name.c_str());
    out += line;
    for (const auto& [k, v] : e.attrs) out += " " + k + "=" + v;
    out += "\n";
  }
  if (uint64_t lost = dropped(); lost > 0) {
    out += "(" + std::to_string(lost) + " older events overwritten)\n";
  }
  return out;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

}  // namespace blaeu::obs
