#include "audit/render.h"

#include <algorithm>
#include <sstream>

namespace semandaq::audit {

using relational::Row;
using relational::TupleId;

namespace {

char ShadeFor(int64_t vio) {
  if (vio <= 0) return ' ';
  if (vio == 1) return '.';
  if (vio == 2) return ':';
  if (vio <= 4) return '*';
  if (vio <= 8) return '#';
  return '@';
}

std::string Pad(const std::string& s, size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

}  // namespace

std::string AsciiRender::QualityMap(const relational::Relation& rel,
                                    const detect::ViolationTable& table,
                                    size_t max_rows) {
  std::ostringstream out;
  out << "Data quality map for '" << rel.name() << "' (" << table.Summary() << ")\n";
  out << "shade: ' '=0  '.'=1  ':'=2  '*'=3-4  '#'=5-8  '@'=9+\n";
  size_t shown = 0;
  for (TupleId tid = 0; tid < rel.IdBound() && shown < max_rows; ++tid) {
    if (!rel.IsLive(tid)) continue;
    ++shown;
    const Row& row = rel.row(tid);
    const int64_t vio = table.vio(tid);
    out << "[" << ShadeFor(vio) << "] vio=" << vio << "  #" << tid << " ";
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line += " | ";
      line += row[c].ToDisplayString();
    }
    out << line << "\n";
  }
  if (rel.size() > shown) {
    out << "... " << (rel.size() - shown) << " more tuple(s)\n";
  }
  return out.str();
}

std::string AsciiRender::BarChart(const QualityReport& report, size_t width) {
  std::ostringstream out;
  out << "Attribute cleanliness (cumulative %: V=verified  P=probably  A=arguably)\n";
  size_t name_width = 4;
  for (const auto& bar : report.bars) {
    name_width = std::max(name_width, bar.attribute.size());
  }
  for (const auto& bar : report.bars) {
    const size_t v = static_cast<size_t>(bar.pct_verified / 100.0 * width + 0.5);
    const size_t p = static_cast<size_t>(bar.pct_probably / 100.0 * width + 0.5);
    const size_t a = static_cast<size_t>(bar.pct_arguably / 100.0 * width + 0.5);
    std::string strip(width, ' ');
    for (size_t i = 0; i < width; ++i) {
      if (i < v) {
        strip[i] = 'V';
      } else if (i < p) {
        strip[i] = 'P';
      } else if (i < a) {
        strip[i] = 'A';
      }
    }
    char nums[64];
    std::snprintf(nums, sizeof(nums), " V=%5.1f%% P=%5.1f%% A=%5.1f%%",
                  bar.pct_verified, bar.pct_probably, bar.pct_arguably);
    out << Pad(bar.attribute, name_width) << " |" << strip << "|" << nums << "\n";
  }
  return out.str();
}

std::string AsciiRender::PieChart(const QualityReport& report) {
  std::ostringstream out;
  out << "Violation composition over " << report.num_tuples << " tuple(s):\n";
  for (const auto& slice : report.pie) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-18s %8zu  (%5.1f%%)\n", slice.label.c_str(),
                  slice.count, slice.pct);
    out << line;
  }
  return out.str();
}

std::string AsciiRender::Statistics(const QualityReport& report) {
  std::ostringstream out;
  out << "Violation statistics:\n";
  out << "  total vio            " << report.total_vio << "\n";
  out << "  max vio(t)           " << report.max_vio << "\n";
  out << "  min vio(t) (t dirty) " << report.min_vio_nonzero << "\n";
  char avg[64];
  std::snprintf(avg, sizeof(avg), "%.2f", report.avg_vio_violating);
  out << "  avg vio(t) (t dirty) " << avg << "\n";
  out << "  multi-tuple groups   " << report.num_groups << "\n";
  if (report.num_groups > 0) {
    char gavg[64];
    std::snprintf(gavg, sizeof(gavg), "%.2f", report.avg_group_size);
    out << "  group size min/avg/max  " << report.min_group_size << " / " << gavg
        << " / " << report.max_group_size << "\n";
  }
  out << "Tuple grades: verified=" << report.tuple_counts[3]
      << " probably=" << report.tuple_counts[2]
      << " arguably=" << report.tuple_counts[1] << " dirty=" << report.tuple_counts[0]
      << "\n";
  return out.str();
}

}  // namespace semandaq::audit
