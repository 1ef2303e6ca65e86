#include "core/explorer.h"

#include "common/json_writer.h"
#include "monet/csv.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace blaeu::core {

Explorer::Explorer(SessionOptions options) : options_(std::move(options)) {
  if (options_.cache_enabled && options_.cache == nullptr) {
    options_.cache = std::make_shared<MapCache>(
        MapCache::BudgetFromEnv(),
        options_.map.metrics, options_.map.tracer, options_.map.flight);
  }
}

void Explorer::InstallTable(const std::string& name, monet::TablePtr table) {
  const bool replacing = catalog_.Contains(name);
  catalog_.RegisterOrReplace(name, std::move(table));
  table_versions_[name]++;
  if (replacing && options_.cache != nullptr) {
    options_.cache->EvictTable(name);
  }
  auto loaded = catalog_.Get(name);
  obs::FlightRecorder* flight = options_.map.flight != nullptr
                                    ? options_.map.flight
                                    : &obs::FlightRecorder::Global();
  flight->Record(
      obs::FlightEventKind::kLoad, "core.explorer.load",
      {{"table", name},
       {"rows", loaded.ok() ? std::to_string((*loaded)->num_rows()) : "0"},
       {"columns",
        loaded.ok() ? std::to_string((*loaded)->num_columns()) : "0"},
       {"replaced", replacing ? "1" : "0"}});
}

Status Explorer::LoadCsv(const std::string& path, const std::string& name) {
  BLAEU_ASSIGN_OR_RETURN(monet::TablePtr table, monet::ReadCsvFile(path));
  InstallTable(name, std::move(table));
  return Status::OK();
}

Status Explorer::LoadTable(monet::TablePtr table, const std::string& name) {
  if (table == nullptr) return Status::Invalid("cannot load a null table");
  InstallTable(name, std::move(table));
  return Status::OK();
}

Result<Session*> Explorer::OpenSession(const std::string& name) {
  BLAEU_ASSIGN_OR_RETURN(monet::TablePtr table, catalog_.Get(name));
  SessionOptions session_options = options_;
  session_options.table_version = table_versions_[name];
  BLAEU_ASSIGN_OR_RETURN(Session session,
                         Session::Start(table, name, session_options));
  auto owned = std::make_unique<Session>(std::move(session));
  Session* raw = owned.get();
  sessions_[name] = std::move(owned);
  return raw;
}

Status Explorer::CloseSession(const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::KeyError("no open session on '" + name + "'");
  }
  sessions_.erase(it);
  return Status::OK();
}

std::string Explorer::StatsReport() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("tables").BeginArray();
  for (const std::string& name : catalog_.List()) {
    auto table = catalog_.Get(name);
    w.BeginObject();
    w.KV("name", name);
    if (table.ok()) {
      w.KV("rows", (*table)->num_rows());
      w.KV("columns", (*table)->num_columns());
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("sessions").BeginArray();
  for (const auto& [name, session] : sessions_) {
    w.BeginObject();
    w.KV("table", name);
    w.KV("states", session->history_size());
    w.EndObject();
  }
  w.EndArray();
  if (options_.cache != nullptr) {
    w.Key("cache").RawValue(options_.cache->StatsJson());
  }
  // The registry the sessions report to: counters/histograms from every
  // layer they ran.
  const obs::MetricsRegistry& metrics = options_.map.metrics != nullptr
                                            ? *options_.map.metrics
                                            : obs::MetricsRegistry::Global();
  w.Key("metrics").RawValue(metrics.ToJson());
  w.EndObject();
  return w.str();
}

std::string Explorer::FlightLogJson(size_t n) const {
  obs::FlightRecorder* flight = options_.map.flight != nullptr
                                    ? options_.map.flight
                                    : &obs::FlightRecorder::Global();
  return flight->ToJson(n);
}

}  // namespace blaeu::core
