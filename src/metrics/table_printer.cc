#include "metrics/table_printer.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace eo::metrics {

TablePrinter::TablePrinter(std::vector<std::string> headers, std::ostream& os)
    : os_(os), headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  EO_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TablePrinter::integer(std::int64_t v) { return std::to_string(v); }

void TablePrinter::print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os_ << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os_ << '\n';
  };
  print_row(headers_);
  std::string sep;
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    sep += std::string(widths[i], '-') + "  ";
  }
  os_ << sep << '\n';
  for (const auto& row : rows_) print_row(row);
  os_.flush();
}

}  // namespace eo::metrics
