#ifndef TDE_CORE_ENGINE_H_
#define TDE_CORE_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <string>

#include "src/exec/scheduler.h"
#include "src/exec/sort.h"
#include "src/observe/import_stats.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/storage/database_file.h"
#include "src/storage/pager/column_cache.h"
#include "src/textscan/text_scan.h"

namespace tde {

/// How Engine::OpenDatabase pages a database file: columns stay cold until
/// a query touches them, and materialized payloads live in a byte-budget
/// LRU cache.
struct OpenDatabaseOptions {
  /// Budget of the column cache, charged in compressed (on-disk) bytes.
  uint64_t cache_budget_bytes = 256ull << 20;
};

/// Import configuration: TextScan (parsing) + FlowTable (encoding) knobs.
struct ImportOptions {
  TextScanOptions text;
  FlowTableOptions flow;
  /// Sort rows on these keys before encoding (the paper's "sorting on a
  /// preferred attribute", Sect. 5.2): expensive, but it can turn scattered
  /// columns into run-length/delta encodable ones and help filtering and
  /// aggregation downstream.
  std::vector<SortKey> sort_by;
};

/// The public facade of the engine: import flat files into encoded tables,
/// persist/load single-file databases, and execute query plans through the
/// strategic + tactical optimizers.
///
/// Quickstart:
///   Engine engine;
///   auto table = engine.ImportTextFile("data.csv", "t").value();
///   auto result = engine.Execute(
///       Plan::Scan(table)
///           .Filter(expr::Gt(expr::Col("x"), expr::Int(10)))
///           .Aggregate({"k"}, {{AggKind::kSum, "x", "total"}}));
class Engine {
 public:
  Engine() = default;

  /// Imports a flat file: TextScan (inference + parsing) feeding FlowTable
  /// (dynamic encoding + metadata extraction). The table is added to the
  /// engine's database.
  Result<std::shared_ptr<Table>> ImportTextFile(const std::string& path,
                                                const std::string& table_name,
                                                ImportOptions options = {});
  /// Same, from an in-memory buffer.
  Result<std::shared_ptr<Table>> ImportTextBuffer(std::string data,
                                                  const std::string& table_name,
                                                  ImportOptions options = {});

  /// Runs a plan through strategic optimization and tactical lowering.
  Result<QueryResult> Execute(const Plan& plan,
                              const StrategicOptions& strategic = {}) const;

  /// Parses and runs a SQL query against this engine's tables (see
  /// sql::ParseQuery for the supported grammar). An `EXPLAIN` prefix
  /// returns the optimized plan and tactical decisions as a single-column
  /// result instead of executing; `EXPLAIN ANALYZE` executes the query and
  /// returns the operator tree annotated with actual rows/blocks/time.
  ///
  /// Queries may also reference the observability virtual tables, each
  /// materialized as a snapshot at parse time:
  ///   tde_stats    metric/kind/value registry dump + per-import telemetry
  ///   tde_metrics  one row per metric, histogram percentiles as columns
  ///   tde_queries  the query journal: per-query times and counter deltas
  ///   tde_columns  one row per stored column: encoding, runs, bytes, ratio
  ///   tde_segments one row per stored segment: encoding, zone map, residency
  ///   tde_cache    column-cache residency in LRU order
  Result<QueryResult> ExecuteSql(const std::string& sql) const;

  /// ExecuteSql with explicit strategic options — the differential-testing
  /// hook: the correctness harness re-runs one statement under a matrix of
  /// kill switches (rewrites disabled one by one) and cross-checks the
  /// results against the reference interpreter.
  Result<QueryResult> ExecuteSql(const std::string& sql,
                                 const StrategicOptions& strategic) const;

  /// Incremental append (segmented storage's write path): appends `rows` —
  /// one ColumnVector per table column in declared order; string lanes are
  /// resolved through the vector's own heap and re-added to the column's —
  /// to an existing table. On a column's first append its current stream
  /// is adopted as sealed segment 0 (the column metadata becomes its zone
  /// map); appended values accumulate in an open tail that seals into an
  /// independently-encoded segment every TDE_SEGMENT_ROWS rows. Cold
  /// columns are warmed first (append mutates in place);
  /// dictionary-compressed columns are not appendable. Returns the table's
  /// new row count.
  Result<uint64_t> AppendRows(const std::string& table_name,
                              const Block& rows);

  Database* database() { return &db_; }
  const Database& database() const { return db_; }

  /// The shared worker pool every engine in the process executes on: all
  /// parallel operators (Exchange, ParallelRollup, parallel import) submit
  /// task groups here instead of spawning threads, so total parallelism is
  /// bounded by the pool regardless of how many queries run concurrently.
  /// Sized once from TDE_WORKERS / hardware_concurrency.
  TaskScheduler& scheduler() const { return TaskScheduler::Global(); }

  /// Persists the whole database as a single file (Sect. 2.3.3), in the
  /// paged v2 format: page-aligned checksummed column blobs behind a
  /// directory, so a later open is O(directory) and queries fault in only
  /// the columns they touch.
  Status SaveDatabase(const std::string& path) const;

  /// How OpenDatabase pages a database file (OpenDatabaseOptions; aliased
  /// here for call-site brevity: Engine::OpenOptions).
  using OpenOptions = OpenDatabaseOptions;

  /// Opens a single-file database written by SaveDatabase. The open reads
  /// only the header and directory; columns fault in when a query touches
  /// them. Anything else — a missing or unreadable path, a file of another
  /// format (the retired v1 layout included), a truncated or corrupt
  /// header or directory — is an IOError.
  static Result<Engine> OpenDatabase(const std::string& path,
                                     OpenOptions options = {});

  /// The column cache of an opened database (null for an engine that was
  /// not opened from a file).
  /// Exposes residency and lets callers retune the budget at runtime.
  pager::ColumnCache* column_cache() const { return cache_.get(); }

  /// References an external flat file (Sect. 8's future-work direction):
  /// imports it now and remembers its identity so RefreshChanged() can
  /// rebuild the table when the file changes — the repackaging cost the
  /// user is willing to pay for up-to-date data.
  Result<std::shared_ptr<Table>> AttachTextFile(const std::string& path,
                                                const std::string& table_name,
                                                ImportOptions options = {});

  /// Re-imports every attached file whose size or mtime changed. Returns
  /// the number of tables rebuilt.
  Result<int> RefreshChanged();

  /// The TDE's global optimization phase (Sect. 3.4.3): walks a table and
  /// converts scalar columns whose encodings expose a small domain
  /// (dictionary, run-length or narrow frame-of-reference) into
  /// dictionary-*compressed* columns, enabling invisible joins on them.
  /// Returns the number of columns converted.
  Result<int> OptimizeTable(const std::string& table_name);

  /// Telemetry of every import performed by this engine (one record per
  /// ImportTextFile / ImportTextBuffer / attachment refresh, in order).
  /// Empty when stats collection is disabled (observe::StatsEnabled()).
  const std::vector<observe::ImportStats>& import_stats() const {
    return import_stats_;
  }

  /// All collected telemetry as one JSON document: the global metrics
  /// registry snapshot plus this engine's per-import records.
  std::string StatsJson() const;

  /// The storage picture as one JSON document: every column's physical
  /// shape (encoding, runs, compressed vs logical bytes, residency) plus
  /// the column cache's residency set. {"columns":[...],"cache":{...}}.
  std::string StorageReportJson() const;

 private:
  struct Attachment {
    std::string path;
    std::string table_name;
    ImportOptions options;
    int64_t mtime = 0;
    int64_t size = 0;
  };

  Status ReplaceTable(std::shared_ptr<Table> table);

  Database db_;
  std::shared_ptr<pager::ColumnCache> cache_;
  std::vector<Attachment> attachments_;
  std::vector<observe::ImportStats> import_stats_;
  /// Append/query isolation: queries hold it shared for their whole run,
  /// in-place mutators (AppendRows, OptimizeTable) exclusively — so a
  /// reader observes a table either entirely before or entirely after an
  /// append, never mid-mutation. shared_ptr keeps Engine movable
  /// (OpenDatabase returns by value).
  std::shared_ptr<std::shared_mutex> exec_mu_ =
      std::make_shared<std::shared_mutex>();
};

/// The heavyweight AlterColumn transformation of Sect. 3.4.3: converts a
/// dictionary-*encoded* scalar column into a dictionary-*compressed* one
/// (array dictionary + minimal-width tokens), enabling invisible joins on
/// scalar dimensions such as dates. Run-length encoded columns take the
/// decompose/rebuild route of Sect. 3.4.1 so the result is a scalar
/// dictionary-compressed column with a run-length encoded token stream.
/// Segmented columns first collapse to one monolithic stream (re-encoded
/// under their own encoder configuration); the converted column is frozen
/// against further appends like every dictionary-compressed column.
Status AlterColumnToDictionary(Column* column);

}  // namespace tde

#endif  // TDE_CORE_ENGINE_H_
