#include "monet/catalog.h"

namespace blaeu::monet {

void Catalog::RegisterOrReplace(const std::string& name, TablePtr table) {
  tables_[name] = std::move(table);
}

Result<TablePtr> Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("no table named '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Catalog::List() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

}  // namespace blaeu::monet
