#include "obs/snapshot_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace vfl::obs {

namespace {

/// Renders `s` as a JSON string literal (quotes included). Escapes the
/// characters RFC 8259 requires so arbitrary metric names/units stay valid.
std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void AppendHistPercentiles(std::string& out, const HistogramSnapshot& hist) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "count=%" PRIu64 " mean=%.1f p50=%" PRIu64 " p99=%" PRIu64
                " p999=%" PRIu64,
                hist.count, hist.Mean(), hist.Percentile(0.50),
                hist.Percentile(0.99), hist.Percentile(0.999));
  out += buffer;
}

}  // namespace

std::string RenderText(const MetricsSnapshot& snapshot) {
  std::size_t name_width = 4;
  for (const MetricPoint& point : snapshot.points) {
    name_width = std::max(name_width, point.name.size());
  }
  std::string out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%-*s %-9s %-8s %s\n",
                static_cast<int>(name_width), "name", "type", "unit",
                "value");
  out += buffer;
  for (const MetricPoint& point : snapshot.points) {
    std::snprintf(buffer, sizeof(buffer), "%-*s %-9s %-8s ",
                  static_cast<int>(name_width), point.name.c_str(),
                  std::string(InstrumentTypeName(point.type)).c_str(),
                  point.unit.empty() ? "-" : point.unit.c_str());
    out += buffer;
    if (point.type == InstrumentType::kHistogram) {
      AppendHistPercentiles(out, point.hist);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%" PRId64, point.value);
      out += buffer;
    }
    out += '\n';
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricPoint& point : snapshot.points) {
    if (!first) out << ",";
    first = false;
    out << "\n  " << JsonString(point.name) << ": {\"type\": \""
        << InstrumentTypeName(point.type)
        << "\", \"unit\": " << JsonString(point.unit) << ", ";
    if (point.type == InstrumentType::kHistogram) {
      out << "\"count\": " << point.hist.count << ", \"sum\": "
          << point.hist.sum << ", \"mean\": " << point.hist.Mean()
          << ", \"p50\": " << point.hist.Percentile(0.50)
          << ", \"p99\": " << point.hist.Percentile(0.99)
          << ", \"p999\": " << point.hist.Percentile(0.999) << "}";
    } else {
      out << "\"value\": " << point.value << "}";
    }
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace vfl::obs
