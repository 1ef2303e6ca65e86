// Named-table registry: the session-visible face of the storage layer.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "monet/table.h"

namespace blaeu::monet {

/// \brief A registry of named immutable tables.
///
/// One catalog per explorer session; registering a table shares its columns
/// (no copy).
class Catalog {
 public:
  /// Replaces or creates the binding.
  void RegisterOrReplace(const std::string& name, TablePtr table);

  /// Fetches a table; KeyError if absent.
  Result<TablePtr> Get(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  /// Registered names, sorted.
  std::vector<std::string> List() const;

 private:
  std::map<std::string, TablePtr> tables_;
};

}  // namespace blaeu::monet
