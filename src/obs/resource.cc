#include "obs/resource.h"

namespace blaeu::obs {

void ResourceProfile::ReportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->counter("core.map.rows_scanned")->Add(rows_scanned);
  registry->counter("core.map.rows_counted")->Add(rows_counted);
  registry->counter("core.map.cells_materialized")->Add(cells_materialized);
  registry->counter("core.map.distance_evaluations")
      ->Add(distance_evaluations);
  registry->counter("core.map.cart_nodes")->Add(cart_nodes);
  registry->histogram("core.map.scratch_peak_bytes")
      ->Observe(static_cast<double>(peak_scratch_bytes));
}

}  // namespace blaeu::obs
