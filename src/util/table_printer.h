#ifndef STREAMSC_UTIL_TABLE_PRINTER_H_
#define STREAMSC_UTIL_TABLE_PRINTER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file table_printer.h
/// Aligned plain-text table rendering for the benchmark harness. Every
/// experiment binary prints its results as one or more of these tables so
/// that two runs can be compared row by row.

namespace streamsc {

/// Collects rows of string/number cells and renders an aligned table.
class TablePrinter {
 public:
  /// Creates a table with the given column \p headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Starts a new (empty) row.
  void BeginRow();

  /// Appends a cell to the current row.
  void AddCell(const std::string& value);
  void AddCell(const char* value);
  void AddCell(std::uint64_t value);
  void AddCell(std::int64_t value);
  void AddCell(int value);
  /// Doubles are rendered with \p precision significant decimals.
  void AddCell(double value, int precision = 4);

  /// Number of data rows added so far.
  std::size_t NumRows() const { return rows_.size(); }

  /// Renders the table (headers, rule, rows) to \p os.
  void Print(std::ostream& os) const;

  /// Renders with a "== title ==" banner above the table.
  void PrintWithTitle(std::ostream& os, const std::string& title) const;

  /// Renders as comma-separated values (headers then rows).
  void PrintCsv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a byte count as a human-readable string ("1.5 KiB").
std::string HumanBytes(std::uint64_t bytes);

}  // namespace streamsc

#endif  // STREAMSC_UTIL_TABLE_PRINTER_H_
