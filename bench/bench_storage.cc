// Fig. 5 + Sect. 6.2 reproduction: compression savings, plus the paged
// format's cold-open economics.
//
// For lineitem and Flights: logical vs physical size under every
// {acceleration, encoding} combination, plus the per-encoding breakdown of
// the savings. For the full SF table set: total database size with and
// without encodings (the paper's 660 MB -> -140 MB observation).
//
// The cold-open section compares an eager load (open, then Column::Warm()
// on every column) against the lazy open: open latency, bytes resident
// after open, and bytes resident after a single-column query (the lazy
// open faults in only that column).

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/exec/flow_table.h"
#include "src/storage/pager/format.h"
#include "src/textscan/text_scan.h"
#include "src/workload/flights.h"
#include "src/workload/tpch.h"

namespace tde {
namespace {

std::shared_ptr<Table> Import(const std::string& data, char sep, bool acc,
                              bool enc) {
  TextScanOptions text;
  text.field_separator = sep;
  FlowTableOptions flow;
  flow.heap_acceleration = acc;
  flow.enable_encodings = enc;
  auto t = FlowTable::Build(TextScan::FromBuffer(data, text), flow);
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    std::exit(1);
  }
  return t.MoveValue();
}

void SizeMatrix(const char* label, const std::string& data, char sep) {
  std::printf("\n-- %s: flat file %.1f MB --\n", label,
              static_cast<double>(data.size()) / 1e6);
  std::printf("%-22s %12s %12s %9s\n", "configuration", "logical_MB",
              "physical_MB", "saved");
  for (const bool acc : {false, true}) {
    for (const bool enc : {false, true}) {
      auto t = Import(data, sep, acc, enc);
      const double logical = static_cast<double>(t->LogicalSize()) / 1e6;
      const double physical = static_cast<double>(t->PhysicalSize()) / 1e6;
      char name[64];
      std::snprintf(name, sizeof(name), "acc=%d enc=%d", acc, enc);
      std::printf("%-22s %12.2f %12.2f %8.0f%%\n", name, logical, physical,
                  100.0 * (1.0 - physical / logical));
      if (acc && enc) {
        std::printf("%-22s %11.0f%% (paper: 84%% for both tables)\n",
                    "saved vs flat file",
                    100.0 * (1.0 - physical * 1e6 /
                                       static_cast<double>(data.size())));
        // Per-encoding breakdown (Fig. 5's stacked savings).
        std::map<std::string, uint64_t> logical_by, physical_by;
        for (size_t i = 0; i < t->num_columns(); ++i) {
          const Column& c = t->column(i);
          const char* e = EncodingName(c.data()->type());
          logical_by[e] += c.LogicalSize();
          physical_by[e] += c.PhysicalSize();
        }
        for (const auto& [e, lbytes] : logical_by) {
          std::printf("    %-18s %12.2f %12.2f\n", e.c_str(),
                      static_cast<double>(lbytes) / 1e6,
                      static_cast<double>(physical_by[e]) / 1e6);
        }
      }
    }
  }
}

uint64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n < 0 ? 0 : static_cast<uint64_t>(n);
}

void ColdOpenBench(double sf, bench::JsonReport* report) {
  std::printf("\n-- cold open: eager (open + warm) vs lazy (lineitem) --\n");
  auto lineitem =
      Import(GenerateTpchTable(TpchTable::kLineitem, sf), '|', true, true);
  lineitem->set_name("lineitem");
  Database db;
  db.AddTable(lineitem);
  const std::string path = "/tmp/tde_bench_lineitem.tdedb";
  if (!pager::WriteDatabaseV2(db, path).ok()) {
    std::fprintf(stderr, "cannot write bench database file\n");
    return;
  }
  std::printf("rows %llu, file %.2f MB\n",
              static_cast<unsigned long long>(lineitem->rows()),
              static_cast<double>(FileSize(path)) / 1e6);

  std::printf("%-10s %12s %14s %16s %12s\n", "open", "open_ms",
              "resident_MB", "post_query_MB", "query_ms");
  for (const bool eager : {true, false}) {
    const char* name = eager ? "eager" : "lazy";
    bench::Timer open_timer;
    auto e = Engine::OpenDatabase(path);
    if (e.ok() && eager) {
      for (const auto& t : e.value().database()->tables()) {
        for (size_t i = 0; i < t->num_columns(); ++i) {
          if (!t->mutable_column(i)->Warm().ok()) std::exit(1);
        }
      }
    }
    const double open_ms = open_timer.Seconds() * 1e3;
    if (!e.ok()) {
      std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
      return;
    }
    // Warmed columns leave the cache: they own their bytes.
    auto bytes_resident = [&]() -> uint64_t {
      return eager ? e.value().database()->PhysicalSize()
                   : e.value().column_cache()->bytes_resident();
    };
    const uint64_t resident_after_open = bytes_resident();
    bench::Timer query_timer;
    auto r = e.value().ExecuteSql(
        "SELECT SUM(l_quantity) AS q FROM lineitem");
    const double query_ms = query_timer.Seconds() * 1e3;
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return;
    }
    const uint64_t resident_after_query = bytes_resident();
    std::printf("%-10s %12.2f %14.2f %16.2f %12.2f\n", name, open_ms,
                static_cast<double>(resident_after_open) / 1e6,
                static_cast<double>(resident_after_query) / 1e6, query_ms);
    char rec[512];
    std::snprintf(rec, sizeof(rec),
                  "{\"section\":\"cold_open\",\"config\":\"%s\","
                  "\"open_ms\":%.3f,\"query_ms\":%.3f,"
                  "\"bytes_resident_after_open\":%llu,"
                  "\"bytes_resident_after_query\":%llu,"
                  "\"file_bytes\":%llu,\"rows\":%llu}",
                  name, open_ms, query_ms,
                  static_cast<unsigned long long>(resident_after_open),
                  static_cast<unsigned long long>(resident_after_query),
                  static_cast<unsigned long long>(FileSize(path)),
                  static_cast<unsigned long long>(lineitem->rows()));
    report->Add(rec);
  }
  std::remove(path.c_str());
}

/// Segment-granular faulting (format v3): the same clustered table stored
/// monolithically (v2) and segmented (v3), both opened lazily. A selective
/// range query over the segmented file faults in only the segments whose
/// zone maps survive the predicate; the monolithic file must materialize
/// the whole column blob for the same answer.
void SegmentedColdOpenBench(bench::JsonReport* report) {
  constexpr uint64_t kRows = 2000000;
  constexpr uint64_t kSegmentRows = 64 * 1024;
  std::printf(
      "\n-- segmented v3: selective query faults only surviving segments "
      "(%llu rows) --\n",
      static_cast<unsigned long long>(kRows));

  auto build = [&](uint64_t segment_rows) {
    FlowTableOptions opt;
    opt.segment_rows = segment_rows;
    auto t = std::make_shared<Table>("clustered");
    ColumnBuildInput x, y;
    x.name = "x";
    x.type = TypeId::kInteger;
    y.name = "y";
    y.type = TypeId::kInteger;
    for (uint64_t i = 0; i < kRows; ++i) {
      x.lanes.push_back(static_cast<Lane>(i));
      y.lanes.push_back(static_cast<Lane>(i % 997));
    }
    t->AddColumn(BuildColumn(std::move(x), opt).MoveValue());
    t->AddColumn(BuildColumn(std::move(y), opt).MoveValue());
    return t;
  };

  struct Config {
    const char* name;
    uint64_t segment_rows;
    std::string path;
  };
  Config configs[] = {
      {"v2 monolithic", kRows + 1, "/tmp/tde_bench_clustered_v2.tdedb"},
      {"v3 segmented", kSegmentRows, "/tmp/tde_bench_clustered_v3.tdedb"}};
  // One segment's worth of rows, in the middle of the clustered range.
  const uint64_t lo = kRows / 2;
  const uint64_t hi = lo + kSegmentRows - 1;
  char sql[160];
  std::snprintf(sql, sizeof(sql),
                "SELECT SUM(y) AS s FROM clustered WHERE x >= %llu AND "
                "x <= %llu",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));

  std::printf("%-14s %10s %9s %14s %16s %12s %18s\n", "open", "file_MB",
              "open_ms", "resident_MB", "post_query_MB", "query_ms",
              "resident_segments");
  for (Config& c : configs) {
    Database db;
    db.AddTable(build(c.segment_rows));
    if (!pager::WriteDatabaseV2(db, c.path).ok()) {
      std::fprintf(stderr, "cannot write %s\n", c.path.c_str());
      return;
    }
    bench::Timer open_timer;
    auto e = Engine::OpenDatabase(c.path);
    const double open_ms = open_timer.Seconds() * 1e3;
    if (!e.ok()) {
      std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
      return;
    }
    const uint64_t resident_open = e.value().column_cache()->bytes_resident();
    bench::Timer query_timer;
    auto r = e.value().ExecuteSql(sql);
    const double query_ms = query_timer.Seconds() * 1e3;
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return;
    }
    const uint64_t resident_query = e.value().column_cache()->bytes_resident();
    // Count faulted-in segments across both columns (monolithic columns
    // report one all-or-nothing shape each).
    const Engine& opened = e.value();
    auto t = opened.database().GetTable("clustered").value();
    uint64_t resident_segments = 0, total_segments = 0;
    for (size_t i = 0; i < t->num_columns(); ++i) {
      for (const SegmentShape& s : t->column(i).SegmentShapes()) {
        ++total_segments;
        if (s.resident) ++resident_segments;
      }
    }
    std::printf("%-14s %10.2f %9.2f %14.2f %16.2f %12.2f %10llu / %-5llu\n",
                c.name, static_cast<double>(FileSize(c.path)) / 1e6, open_ms,
                static_cast<double>(resident_open) / 1e6,
                static_cast<double>(resident_query) / 1e6, query_ms,
                static_cast<unsigned long long>(resident_segments),
                static_cast<unsigned long long>(total_segments));
    char rec[512];
    std::snprintf(rec, sizeof(rec),
                  "{\"section\":\"segmented_cold_open\",\"config\":\"%s\","
                  "\"open_ms\":%.3f,\"query_ms\":%.3f,"
                  "\"bytes_resident_after_open\":%llu,"
                  "\"bytes_resident_after_query\":%llu,"
                  "\"resident_segments\":%llu,\"total_segments\":%llu,"
                  "\"file_bytes\":%llu,\"rows\":%llu}",
                  c.name, open_ms, query_ms,
                  static_cast<unsigned long long>(resident_open),
                  static_cast<unsigned long long>(resident_query),
                  static_cast<unsigned long long>(resident_segments),
                  static_cast<unsigned long long>(total_segments),
                  static_cast<unsigned long long>(FileSize(c.path)),
                  static_cast<unsigned long long>(kRows));
    report->Add(rec);
    std::remove(c.path.c_str());
  }
}

}  // namespace
}  // namespace tde

int main(int argc, char** argv) {
  tde::bench::JsonReport report("storage", argc, argv);
  tde::bench::PrintHeader("Fig. 5 / Sect. 6.2 — compression savings");
  const double sf = tde::bench::ScaleFactor();
  std::printf("TDE_SF=%g (paper: SF-30 lineitem, 25 GB Flights)\n", sf);

  tde::SizeMatrix("lineitem",
                  tde::GenerateTpchTable(tde::TpchTable::kLineitem, sf), '|');
  tde::SizeMatrix("Flights",
                  tde::GenerateFlights(tde::bench::FlightsRows()), ',');

  // Sect. 6.2: whole TPC-H database, encoded vs not.
  std::printf("\n-- full TPC-H database at SF %g --\n", sf);
  for (const bool enc : {false, true}) {
    uint64_t physical = 0, logical = 0;
    for (tde::TpchTable tt : tde::AllTpchTables()) {
      auto t = tde::Import(tde::GenerateTpchTable(tt, sf), '|', true, enc);
      physical += t->PhysicalSize();
      logical += t->LogicalSize();
    }
    std::printf("encodings=%d: logical %.2f MB, database file %.2f MB\n", enc,
                static_cast<double>(logical) / 1e6,
                static_cast<double>(physical) / 1e6);
  }
  std::printf("paper: SF-1 database 660 MB, encodings save ~140 MB (~21%%)\n");

  tde::ColdOpenBench(sf, &report);
  tde::SegmentedColdOpenBench(&report);
  return 0;
}
