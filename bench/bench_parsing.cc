// Fig. 4 reproduction: import latency of the TextScan/FlowTable system on
// the two large tables (TPC-H lineitem and Flights), for the measurement
// ladder of Sect. 6.1:
//
//   Bandwidth  — summing all the bytes of the text file
//   Tokenize   — finding field boundaries
//   Split      — splitting into columns without parsing
//   Scalars    — parsing only numbers/dates (strings just split)
//   All        — parsing all columns, x {acceleration, encodings} on/off
//
// Paper shape: with encoding and acceleration on, "All" is comparable to
// "Split" — there is no benefit to deferred parsing.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/exec/flow_table.h"
#include "src/storage/pager/format.h"
#include "src/textscan/text_scan.h"
#include "src/workload/flights.h"
#include "src/workload/tpch.h"

namespace tde {
namespace {

double MBps(size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

void Row(const char* name, size_t bytes, double secs) {
  std::printf("%-34s %8.2fs %10.1f MB/s\n", name, secs, MBps(bytes, secs));
}

// Bandwidth: sum all bytes.
double Bandwidth(const std::string& data) {
  bench::Timer t;
  uint64_t sum = 0;
  for (unsigned char c : data) sum += c;
  volatile uint64_t sink = sum;
  (void)sink;
  return t.Seconds();
}

// Tokenize: find record and field boundaries only.
double Tokenize(const std::string& data, char sep) {
  bench::Timer t;
  uint64_t fields = 0;
  for (char c : data) fields += (c == sep) + (c == '\n');
  volatile uint64_t sink = fields;
  (void)sink;
  return t.Seconds();
}

// Split: copy every field into a per-column byte buffer, no parsing.
double Split(const std::string& data, char sep, size_t ncols) {
  bench::Timer t;
  std::vector<std::string> columns(ncols);
  for (auto& c : columns) c.reserve(data.size() / ncols + 16);
  size_t col = 0, start = 0;
  for (size_t i = 0; i <= data.size(); ++i) {
    const char c = i < data.size() ? data[i] : '\n';
    if (c == sep || c == '\n') {
      if (col < ncols) {
        columns[col].append(data, start, i - start);
        columns[col].push_back('\n');
      }
      start = i + 1;
      col = (c == '\n') ? 0 : col + 1;
    }
  }
  volatile size_t sink = columns[0].size();
  (void)sink;
  return t.Seconds();
}

// Scalars / All: TextScan -> FlowTable with the given configuration.
double Import(const std::string& data, char sep, bool scalars_only,
              bool acceleration, bool encodings, uint64_t* physical) {
  TextScanOptions text;
  text.field_separator = sep;
  if (scalars_only) {
    auto probe = TextScan::FromBuffer(data, text);
    if (!probe->Open().ok()) std::exit(1);
    for (const Field& f : probe->file_schema().fields()) {
      if (f.type != TypeId::kString) text.columns.push_back(f.name);
    }
  }
  bench::Timer t;
  auto scan = TextScan::FromBuffer(data, text);
  FlowTableOptions flow;
  flow.heap_acceleration = acceleration;
  flow.enable_encodings = encodings;
  auto table = FlowTable::Build(std::move(scan), flow);
  if (!table.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  // The import's endpoint is the single-file database copy (Sect. 2.3.3):
  // include its write so encodings get credit for the I/O they save.
  Database db;
  db.AddTable(table.value());
  if (!pager::WriteDatabaseV2(db, "/tmp/tde_bench_parsing.tde").ok()) {
    std::exit(1);
  }
  if (physical != nullptr) *physical = table.value()->PhysicalSize();
  return t.Seconds();
}

void RunFile(const char* label, const std::string& data, char sep,
             size_t ncols) {
  std::printf("\n-- %s (%.1f MB) --\n", label,
              static_cast<double>(data.size()) / 1e6);
  Row("bandwidth", data.size(), Bandwidth(data));
  Row("tokenize", data.size(), Tokenize(data, sep));
  Row("split", data.size(), Split(data, sep, ncols));
  for (const bool acc : {false, true}) {
    for (const bool enc : {false, true}) {
      char name[80];
      std::snprintf(name, sizeof(name), "scalars acc=%d enc=%d", acc, enc);
      Row(name, data.size(), Import(data, sep, true, acc, enc, nullptr));
    }
  }
  for (const bool acc : {false, true}) {
    for (const bool enc : {false, true}) {
      char name[80];
      std::snprintf(name, sizeof(name), "all     acc=%d enc=%d", acc, enc);
      Row(name, data.size(), Import(data, sep, false, acc, enc, nullptr));
    }
  }
}

}  // namespace
}  // namespace tde

int main() {
  tde::bench::PrintHeader("Fig. 4 — parsing performance (Sect. 6.1)");
  const double sf = tde::bench::ScaleFactor();
  std::printf("TDE_SF=%g TDE_FLIGHTS_ROWS=%llu (paper: SF-30 / 67M rows)\n",
              sf, static_cast<unsigned long long>(tde::bench::FlightsRows()));
  {
    const std::string lineitem =
        tde::GenerateTpchTable(tde::TpchTable::kLineitem, sf);
    tde::RunFile("lineitem", lineitem, '|', 16);
  }
  {
    const std::string flights =
        tde::GenerateFlights(tde::bench::FlightsRows());
    tde::RunFile("Flights", flights, ',', 12);
  }
  std::printf(
      "\npaper shape check: 'all acc=1 enc=1' should be comparable to "
      "'split' — no benefit to deferred parsing.\n");
  return 0;
}
