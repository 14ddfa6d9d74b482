// Minimal CSV writer so bench binaries can optionally dump machine-readable
// series (one file per figure) next to the human-readable tables, and the
// RFC 4180 field escaping it shares with the buffered artifact writers.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace memdis {

/// Appends one CSV field to `out`, quoted per RFC 4180 when it contains a
/// comma, a double quote, LF or CR (embedded quotes are doubled).
void append_csv_field(std::string& out, std::string_view field);

/// Streams rows to a CSV file or stream; values are escaped per RFC 4180
/// when needed.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes to an existing stream (not owned); emits the header row.
  CsvWriter(std::ostream& os, const std::vector<std::string>& header);

  // out_ may point at the writer's own file_ member, so default copy/move
  // would leave it dangling.
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void add_row(const std::vector<std::string>& row);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  void write_row(const std::vector<std::string>& row);

  std::ofstream file_;       ///< backing file when constructed from a path
  std::ostream* out_;        ///< the active sink (file_ or a borrowed stream)
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace memdis
