#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fedtrans {

/// Column-aligned plain-text table writer used by the benchmark harness to
/// print paper-style result tables to stdout.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Pretty-print with aligned columns and a header separator.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting ("12.34").
std::string fmt_fixed(double v, int precision = 2);
/// Scientific notation ("1.23e+14").
std::string fmt_sci(double v, int precision = 2);
/// Human-readable byte count ("10.6 MB").
std::string fmt_bytes(double bytes);
/// MAC count scaled to an SI-ish suffix ("0.86 PMACs").
std::string fmt_macs(double macs);

}  // namespace fedtrans
