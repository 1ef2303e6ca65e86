#include "obs/resource.h"

#include "common/json_writer.h"

namespace blaeu::obs {

std::string ResourceProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("rows_scanned", rows_scanned);
  w.KV("rows_counted", rows_counted);
  w.KV("cells_materialized", cells_materialized);
  w.KV("distance_evaluations", distance_evaluations);
  w.KV("cart_nodes", cart_nodes);
  w.KV("cache_hits", cache_hits);
  w.KV("cache_misses", cache_misses);
  w.KV("peak_scratch_bytes", peak_scratch_bytes);
  w.KV("total_seconds", total_seconds);
  w.Key("stages").BeginObject();
  for (const StageCost& stage : stages) w.KV(stage.name, stage.seconds);
  w.EndObject();
  w.EndObject();
  return w.str();
}

void ResourceProfile::ReportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->counter("core.map.rows_scanned")->Add(rows_scanned);
  registry->counter("core.map.rows_counted")->Add(rows_counted);
  registry->counter("core.map.cells_materialized")->Add(cells_materialized);
  registry->counter("core.map.distance_evaluations")
      ->Add(distance_evaluations);
  registry->counter("core.map.cart_nodes")->Add(cart_nodes);
  registry->histogram("core.map.build_seconds")->Observe(total_seconds);
  registry->histogram("core.map.scratch_peak_bytes")
      ->Observe(static_cast<double>(peak_scratch_bytes));
  for (const StageCost& stage : stages) {
    registry->histogram("core.map.stage." + stage.name + "_seconds")
        ->Observe(stage.seconds);
  }
}

}  // namespace blaeu::obs
