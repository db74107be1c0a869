#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace fedtrans {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  FT_CHECK(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  FT_CHECK_MSG(cells.size() == headers_.size(),
               "row has " << cells.size() << " cells, expected "
                          << headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
         << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string fmt_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return fmt_fixed(bytes, 1) + " " + units[u];
}

std::string fmt_macs(double macs) {
  const char* units[] = {"MACs", "KMACs", "MMACs", "GMACs", "TMACs", "PMACs"};
  int u = 0;
  while (macs >= 1000.0 && u < 5) {
    macs /= 1000.0;
    ++u;
  }
  return fmt_fixed(macs, 2) + " " + units[u];
}

}  // namespace fedtrans
