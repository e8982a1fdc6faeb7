#include "harness/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace hrmc::harness {

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << "  ";
      // First column left-aligned (labels), the rest right-aligned.
      if (c == 0) {
        os << cell << std::string(width[c] - cell.size(), ' ');
      } else {
        os << std::string(width[c] - cell.size(), ' ') << cell;
      }
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 2 * width.size();
  for (auto w : width) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace hrmc::harness
