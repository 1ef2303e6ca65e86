#include "obs/export.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace blaeu::obs {

namespace {

/// Shortest round-trippable-ish decimal; OpenMetrics wants plain floats.
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Label names share the metric-name alphabet but get no blaeu_ prefix.
std::string SanitizeLabelName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

std::string RenderLabels(const MetricLabels& labels,
                         const std::string& extra_key = "",
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeLabelName(k);
    out += "=\"" + BackslashEscape(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + BackslashEscape(extra_value) + "\"";
  }
  return out + "}";
}

/// HTML text escaping for the report tables.
std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out = "blaeu_";
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string ToOpenMetrics(const MetricsSnapshot& snapshot,
                          const MetricLabels& labels) {
  std::string out;
  const std::string plain_labels = RenderLabels(labels);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total" + plain_labels + " " +
           std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " gauge\n";
    out += om + plain_labels + " " + FormatValue(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " summary\n";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", h.p50}, {"0.95", h.p95}, {"0.99", h.p99}};
    for (const auto& [q, v] : quantiles) {
      out += om + RenderLabels(labels, "quantile", q) + " " + FormatValue(v) +
             "\n";
    }
    out += om + "_sum" + plain_labels + " " + FormatValue(h.sum) + "\n";
    out += om + "_count" + plain_labels + " " +
           std::to_string(static_cast<long long>(h.count)) + "\n";
  }
  out += "# EOF\n";
  return out;
}

std::string ToOpenMetrics(const MetricsRegistry& registry,
                          const MetricLabels& labels) {
  return ToOpenMetrics(registry.Snapshot(), labels);
}

std::string ToHtmlReport(const MetricsSnapshot& snapshot,
                         const std::string& title) {
  std::string out;
  out +=
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>" +
      HtmlEscape(title) +
      "</title>\n<style>\n"
      "body{font-family:system-ui,sans-serif;margin:2em;color:#222}\n"
      "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}\n"
      "table{border-collapse:collapse;min-width:40em}\n"
      "th,td{border:1px solid #ccc;padding:0.3em 0.7em;text-align:right}\n"
      "th{background:#f0f0f0}td.name,th.name{text-align:left;"
      "font-family:monospace}\n"
      ".bar{background:#4a78c5;height:1em;display:inline-block;"
      "min-width:2px}\n"
      ".lane{background:#f4f4f4;width:28em;display:inline-block}\n"
      "</style>\n</head>\n<body>\n<h1>" +
      HtmlEscape(title) + "</h1>\n";

  // Stage waterfall from the map stages' span histograms, in pipeline order.
  std::vector<std::pair<std::string, HistogramSnapshot>> stages;
  for (const char* stage : {"sample", "preprocess", "cluster", "describe",
                            "assemble", "count"}) {
    auto it = snapshot.histograms.find(std::string("core.map.") + stage +
                                       "_seconds");
    if (it != snapshot.histograms.end() && it->second.count > 0) {
      stages.emplace_back(stage, it->second);
    }
  }
  if (!stages.empty()) {
    double max_p50 = 0.0;
    for (const auto& [_, h] : stages) max_p50 = std::max(max_p50, h.p50);
    out += "<h2>Stage waterfall (p50)</h2>\n<table>\n"
           "<tr><th class=\"name\">stage</th><th>p50 ms</th><th>p95 ms</th>"
           "<th>builds</th><th class=\"name\">share</th></tr>\n";
    for (const auto& [stage, h] : stages) {
      const int width =
          max_p50 > 0.0
              ? std::max(1, static_cast<int>(100.0 * h.p50 / max_p50))
              : 1;
      char row[512];
      std::snprintf(row, sizeof(row),
                    "<tr><td class=\"name\">%s</td><td>%.3f</td>"
                    "<td>%.3f</td><td>%llu</td><td class=\"name\">"
                    "<span class=\"lane\"><span class=\"bar\" "
                    "style=\"width:%d%%\"></span></span></td></tr>\n",
                    HtmlEscape(stage).c_str(), h.p50 * 1e3, h.p95 * 1e3,
                    static_cast<unsigned long long>(h.count), width);
      out += row;
    }
    out += "</table>\n";
  }

  if (!snapshot.histograms.empty()) {
    out += "<h2>Latency &amp; size histograms</h2>\n<table>\n"
           "<tr><th class=\"name\">histogram</th><th>count</th><th>mean</th>"
           "<th>p50</th><th>p95</th><th>p99</th><th>min</th><th>max</th>"
           "</tr>\n";
    for (const auto& [name, h] : snapshot.histograms) {
      char row[512];
      std::snprintf(row, sizeof(row),
                    "<tr><td class=\"name\">%s</td><td>%llu</td>"
                    "<td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td>"
                    "<td>%.6g</td><td>%.6g</td></tr>\n",
                    HtmlEscape(name).c_str(),
                    static_cast<unsigned long long>(h.count), h.mean(), h.p50,
                    h.p95, h.p99, h.min, h.max);
      out += row;
    }
    out += "</table>\n";
  }

  if (!snapshot.counters.empty()) {
    out += "<h2>Counters</h2>\n<table>\n"
           "<tr><th class=\"name\">counter</th><th>value</th></tr>\n";
    for (const auto& [name, value] : snapshot.counters) {
      out += "<tr><td class=\"name\">" + HtmlEscape(name) + "</td><td>" +
             std::to_string(value) + "</td></tr>\n";
    }
    out += "</table>\n";
  }

  if (!snapshot.gauges.empty()) {
    out += "<h2>Gauges</h2>\n<table>\n"
           "<tr><th class=\"name\">gauge</th><th>value</th></tr>\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out += "<tr><td class=\"name\">" + HtmlEscape(name) + "</td><td>" +
             FormatValue(value) + "</td></tr>\n";
    }
    out += "</table>\n";
  }

  out += "</body>\n</html>\n";
  return out;
}

std::string ToHtmlReport(const MetricsRegistry& registry,
                         const std::string& title) {
  return ToHtmlReport(registry.Snapshot(), title);
}

}  // namespace blaeu::obs
