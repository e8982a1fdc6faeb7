// Plain-text table printer for bench output: every fig* binary prints
// the same rows/series the paper plots, as aligned columns.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hrmc::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Adds one row; cells render via to_string-style formatting done by
  /// the caller (keep them short).
  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimals.
std::string fmt(double v, int digits = 2);

}  // namespace hrmc::harness
