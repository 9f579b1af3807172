// Aligned table output for the bench harnesses.
//
// Every bench regenerates a paper table/figure as rows on stdout; this
// printer keeps the output machine-greppable (a stable header and aligned
// columns).
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace eo::metrics {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::ostream& os = std::cout);

  /// Adds a row; cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string integer(std::int64_t v);

  /// Prints the table (header, separator, rows), aligned.
  void print() const;

 private:
  std::ostream& os_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace eo::metrics
