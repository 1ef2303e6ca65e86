// Explorer: the top-level facade. Owns a catalog (the "MonetDB" of
// Figure 4) and the active sessions (the "NodeJS session manager"); this is
// the public entry point a downstream user starts from.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/navigation.h"
#include "monet/catalog.h"

namespace blaeu::core {

/// \brief Facade over catalog + sessions.
///
/// Typical flow:
///   Explorer explorer;
///   explorer.LoadCsv("data.csv", "movies");
///   auto* session = *explorer.OpenSession("movies");
///   session->SelectTheme(0);  // etc.
class Explorer {
 public:
  /// When `options.cache_enabled` and no cache instance is supplied, the
  /// Explorer creates one MapCache shared by all its sessions (so a
  /// rollback in one session can hit maps another session built).
  explicit Explorer(SessionOptions options = {});

  /// Imports a CSV file into the catalog under `name`, read as
  /// monet::ReadCsvFile does (one dialect: comma-separated, a header row,
  /// types inferred over every cell). Re-loading an existing name replaces
  /// the table, bumps its version and invalidates every cached map built
  /// on it.
  Status LoadCsv(const std::string& path, const std::string& name);

  /// Registers an existing table under `name` (same replace-and-invalidate
  /// semantics as LoadCsv).
  Status LoadTable(monet::TablePtr table, const std::string& name);

  /// Tables available for exploration.
  std::vector<std::string> Tables() const { return catalog_.List(); }

  const monet::Catalog& catalog() const { return catalog_; }

  /// Opens (or reopens) an exploration session on `name`. The returned
  /// pointer stays valid until the session is closed or the explorer dies.
  Result<Session*> OpenSession(const std::string& name);

  /// Closes the session on `name` (KeyError if none).
  Status CloseSession(const std::string& name);

  /// JSON snapshot of the explorer's observable state: loaded tables, open
  /// sessions with their number of states, the cache's size, and the
  /// metrics registry the sessions report to (the injected
  /// `options.map.metrics`, else the process-global one), which holds the
  /// map, cache and stage totals. This is what the REPL's `stats` command
  /// prints and what a serving layer would expose on a /stats endpoint.
  std::string StatsReport() const;

  /// JSON dump of the last `n` flight-recorder events (0 = everything still
  /// in the ring). Reads the recorder injected via the session options, else
  /// the process-global one — the REPL's `flightlog` command.
  std::string FlightLogJson(size_t n = 0) const;

  /// The cache shared by this explorer's sessions (null when disabled).
  const MapCachePtr& cache() const { return options_.cache; }

 private:
  /// Replaces `name` in the catalog, bumps its version and drops its cache
  /// entries — the single invalidation point for both Load paths.
  void InstallTable(const std::string& name, monet::TablePtr table);

  SessionOptions options_;
  monet::Catalog catalog_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  /// Monotonic per-name versions; a (re-)load bumps the version so stale
  /// cache keys can never match again.
  std::map<std::string, uint64_t> table_versions_;
};

}  // namespace blaeu::core
