// Query throughput on the imported TPC-H tables: the five queries the
// engine's analytic subset expresses (Q1, Q3, Q4-lite, Q6, Q12), run
// through the SQL frontend and the full strategic/tactical optimizer.
// Not a paper figure — a downstream-user sanity benchmark over the whole
// stack (import, encodings, joins, aggregation).
//
// Data generation (in-process dbgen) and import are timed apart: the
// import time covers ImportTextBuffer alone.
//
// With --json (or TDE_BENCH_JSON=1), archives per-query timings and the
// per-operator runtime profile as BENCH_tpch.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/observe/query_stats.h"
#include "src/workload/tpch.h"
#include "src/workload/tpch_queries.h"

int main(int argc, char** argv) {
  tde::bench::JsonReport report("tpch", argc, argv);
  tde::bench::PrintHeader("TPC-H query suite over the SQL frontend");
  const double sf = tde::bench::ScaleFactor();
  std::printf("TDE_SF=%g\n", sf);
  tde::Engine engine;
  const tde::TpchTable tables[] = {tde::TpchTable::kLineitem,
                                   tde::TpchTable::kOrders,
                                   tde::TpchTable::kCustomer};
  std::vector<std::string> texts;
  double generate_secs = 0;
  {
    tde::bench::Timer t;
    for (tde::TpchTable tt : tables) {
      texts.push_back(tde::GenerateTpchTable(tt, sf));
    }
    generate_secs = t.Seconds();
  }
  double import_secs = 0;
  {
    tde::ImportOptions opts;
    opts.text.field_separator = '|';
    tde::bench::Timer t;
    for (size_t i = 0; i < texts.size(); ++i) {
      auto r = engine.ImportTextBuffer(std::move(texts[i]),
                                       tde::TpchTableName(tables[i]), opts);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
    }
    import_secs = t.Seconds();
  }
  std::printf("generate (lineitem, orders, customer): %.2fs\n",
              generate_secs);
  std::printf("import (lineitem, orders, customer): %.2fs\n", import_secs);
  if (report.enabled()) {
    // The import telemetry rides along with the query records.
    for (const tde::observe::ImportStats& s : engine.import_stats()) {
      report.Add(s.ToJson());
    }
    char rec[128];
    std::snprintf(rec, sizeof(rec),
                  "{\"phase\":\"generate\",\"sf\":%g,\"seconds\":%.4f}",
                  sf, generate_secs);
    report.Add(rec);
    std::snprintf(rec, sizeof(rec),
                  "{\"phase\":\"import\",\"sf\":%g,\"seconds\":%.4f}", sf,
                  import_secs);
    report.Add(rec);
  }
  std::printf("%-8s %-42s %10s %8s\n", "query", "title", "time", "rows");
  for (const tde::TpchQuery& q : tde::TpchQueries()) {
    double secs = 0;
    uint64_t rows = 0;
    std::string operators = "null";
    for (int i = 0; i < 3; ++i) {
      tde::bench::Timer t;
      auto r = engine.ExecuteSql(q.sql);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", q.id,
                     r.status().ToString().c_str());
        return 1;
      }
      secs += t.Seconds();
      rows = r.value().num_rows();
      if (r.value().stats() != nullptr) {
        operators = r.value().stats()->ToJson();
      }
    }
    std::printf("%-8s %-42s %9.3fs %8llu\n", q.id, q.title, secs / 3,
                static_cast<unsigned long long>(rows));
    if (report.enabled()) {
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"query\":\"%s\",\"seconds\":%.6f,\"rows\":%llu,"
                    "\"operators\":",
                    q.id, secs / 3, static_cast<unsigned long long>(rows));
      report.Add(std::string(head) + operators + "}");
    }
  }
  return 0;
}
