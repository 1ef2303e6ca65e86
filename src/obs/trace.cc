#include "obs/trace.h"

#include <atomic>
#include <sstream>
#include <thread>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace blaeu::obs {

uint64_t ThisThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

/// Stack of open spans per (thread, tracer). Lexical nesting means RAII
/// spans close LIFO, so a plain vector is enough; entries from different
/// tracers interleave safely because parents are looked up per tracer.
struct OpenSpan {
  const Tracer* tracer;
  int id;
  int depth;
};
thread_local std::vector<OpenSpan> tls_open_spans;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* global = new Tracer();  // leaked: see MetricsRegistry
  return *global;
}

int Tracer::BeginSpan(const std::string& name, int parent, int depth) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.id = static_cast<int>(spans_.size());
  rec.parent = parent;
  rec.depth = depth;
  rec.thread = ThisThreadId();
  rec.start_ns = NowNs();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::EndSpan(int id,
                     std::vector<std::pair<std::string, std::string>> attrs) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[id];
  rec.duration_ns = now - rec.start_ns;
  rec.attrs = std::move(attrs);
}

std::vector<SpanRecord> Tracer::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string Tracer::ToChromeTrace() const {
  std::vector<SpanRecord> spans = Finished();
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const SpanRecord& s : spans) {
    if (s.duration_ns < 0) continue;  // still open
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", "blaeu");
    w.KV("ph", "X");  // complete event: ts + dur, microseconds
    w.KV("ts", static_cast<double>(s.start_ns) / 1e3);
    w.KV("dur", static_cast<double>(s.duration_ns) / 1e3);
    w.KV("pid", 1);
    w.KV("tid", static_cast<int64_t>(s.thread));
    if (!s.attrs.empty()) {
      w.Key("args").BeginObject();
      for (const auto& [k, v] : s.attrs) w.KV(k, v);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Span::Span(Tracer* tracer, std::string name, MetricsRegistry* metrics)
    : histogram_(metrics != nullptr ? metrics->histogram(name + "_seconds")
                                    : nullptr),
      start_(Clock::now()) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  // Parent: innermost open span of the same tracer on this thread.
  int parent = -1;
  int depth = 0;
  for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend(); ++it) {
    if (it->tracer == tracer_) {
      parent = it->id;
      depth = it->depth + 1;
      break;
    }
  }
  id_ = tracer_->BeginSpan(name, parent, depth);
  tls_open_spans.push_back({tracer_, id_, depth});
}

Span::Span(std::string name)
    : Span(&Tracer::Global(), std::move(name), &MetricsRegistry::Global()) {}

Span::~Span() {
  if (histogram_ != nullptr) histogram_->Observe(ElapsedSeconds());
  if (tracer_ == nullptr) return;
  // RAII spans close LIFO per thread; pop our entry (and tolerate a caller
  // that let spans escape strict nesting by searching from the top).
  for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend(); ++it) {
    if (it->tracer == tracer_ && it->id == id_) {
      tls_open_spans.erase(std::next(it).base());
      break;
    }
  }
  tracer_->EndSpan(id_, std::move(attrs_));
}

void Span::SetAttr(const std::string& key, const std::string& value) {
  if (tracer_ == nullptr) return;
  attrs_.emplace_back(key, value);
}

void Span::SetAttr(const std::string& key, int64_t value) {
  if (tracer_ == nullptr) return;
  attrs_.emplace_back(key, std::to_string(value));
}

void Span::SetAttr(const std::string& key, double value) {
  if (tracer_ == nullptr) return;
  std::ostringstream os;
  os << value;
  attrs_.emplace_back(key, os.str());
}

}  // namespace blaeu::obs
