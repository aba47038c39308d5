// The repository benchmark: TPC-H workloads driven through the engine's
// public API by one closed-loop client, with every answer checked.
//
//   tde_perfbench --workload <tpch_hot|tpch_cold|import_append|all>
//                 --seed N --seconds S --trace <0|1> [--work-dir DIR]
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics, and
// the spans the benchmark recorded around each call into a layer are
// written to DIR/trace-<workload>-seed<N>.json. README.md in this
// directory documents the workloads, the metrics and the layer -> metric
// -> workload map.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/encoding/header.h"
#include "src/observe/metrics.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/sql/parser.h"
#include "src/storage/segment/segmented_stream.h"
#include "src/workload/tpch.h"
#include "src/workload/tpch_queries.h"

namespace tde {
namespace {

using Clock = std::chrono::steady_clock;

int64_t Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Configuration.

constexpr double kScaleFactor = 0.1;
/// The appended lineitem slice is generated at this share of the scale
/// factor (about 10% more rows) from a different seed.
constexpr double kAppendSliceShare = 0.1;
/// Latency percentile reported as qN_ms and mix_ms_p5. On a shared host
/// whose speed swings with its neighbours' load, run medians spread by a
/// quarter between runs; a low percentile, the latency reached when the
/// host is least contended, spreads about half as much. Of the
/// statistics compared over the same runs (README.md), the 5th percentile
/// spread least in the worst case. The median is still printed in the
/// report.
constexpr double kLatencyPercentile = 5;
/// Append blocks per batch on import_append; the query mix runs after each.
constexpr size_t kBlocksPerBatch = 16;
/// tpch_cold's column-cache budget as a share of the bytes the mix
/// touches. Below about 0.4 the cache thrashes, and near 0.5 whether Q1's
/// columns survive a pass depends on the seed; see README.md for the
/// cliff, measured by editing this constant.
constexpr double kColdBudgetShare = 0.6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for database files and the trace file.
  std::string work_dir = ".";
  /// When > 0, runs exactly this many passes (import_append: iterations)
  /// instead of measuring for `seconds` — the determinism check's mode.
  int passes = 0;
  /// Set-ups per run; setup_s is their median. The first set-up's engine
  /// is measured; the others run after the measured passes, only to time
  /// set-up, so their memory does not count towards peak_rss_mb.
  int setups = 3;
};

const std::vector<const char*>& WorkloadNames() {
  static const std::vector<const char*> kNames = {"tpch_hot", "tpch_cold",
                                                  "import_append"};
  return kNames;
}

/// Every StrategicOptions rewrite switched off: the reference plan every
/// answer is checked against. Order-preserving exchange routing stays on;
/// it is a correctness requirement, not a rewrite.
StrategicOptions RewritesOff() {
  StrategicOptions off;
  off.enable_invisible_join = false;
  off.enable_rank_join = false;
  off.enable_simplification = false;
  off.enable_filter_pushdown = false;
  off.enable_projection_pruning = false;
  off.enable_metadata_pruning = false;
  off.enable_run_filters = false;
  off.enable_dict_predicates = false;
  off.enable_dict_grouping = false;
  off.enable_run_aggregation = false;
  off.enable_metadata_aggregates = false;
  off.enable_topn = false;
  off.enable_dict_sort = false;
  off.enable_sort_pruning = false;
  return off;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into the engine's layers, kept in
// memory and written out at exit.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query = 0;   // shared by the spans of one query; 0 = none
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// True for the whole of a traced run.
  bool enabled() const { return enabled_; }
  /// True while spans are recorded: in a traced run, everywhere except
  /// its untraced mix passes.
  bool recording() const { return enabled_ && !paused_; }
  void set_paused(bool paused) { paused_ = paused; }

  /// Opens a span as a child of the innermost open one; returns its id
  /// (0 when not recording).
  uint64_t Begin(const std::string& name, uint64_t query = 0) {
    if (!recording()) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.query = query != 0 ? query : (open_.empty() ? 0 : Get(open_.back()).query);
    s.name = name;
    s.start_ns = Ns(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Closes span `id` (the innermost open one); returns its duration.
  int64_t End(uint64_t id) {
    if (id == 0) return 0;
    Span& s = Get(id);
    s.end_ns = Ns(epoch_, Clock::now());
    open_.pop_back();
    return s.end_ns - s.start_ns;
  }

  uint64_t NextQueryId() { return ++queries_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Span& Get(uint64_t id) { return spans_[id - 1]; }

  bool enabled_;
  bool paused_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
  uint64_t queries_ = 0;
};

/// RAII span: a no-op when the tracer is not recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, uint64_t query = 0)
      : t_(t), id_(t->Begin(name, query)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t End() {
    const int64_t d = t_->End(id_);
    id_ = 0;
    return d;
  }

 private:
  Tracer* t_;
  uint64_t id_;
};

// ---------------------------------------------------------------------------
// Answers: a result reduced to comparable cells. Reals compare with a
// relative tolerance (summation order differs between plans).

struct Cell {
  bool real = false;
  double d = 0;
  std::string s;
};
using Answer = std::vector<std::vector<Cell>>;

Answer ToAnswer(const QueryResult& r) {
  Answer a(r.num_rows());
  for (uint64_t row = 0; row < r.num_rows(); ++row) {
    for (size_t c = 0; c < r.num_columns(); ++c) {
      Cell cell;
      if (r.schema().field(c).type == TypeId::kReal) {
        const Lane v = r.Value(row, c);
        cell.real = v != kNullSentinel;
        std::memcpy(&cell.d, &v, sizeof(cell.d));
      }
      if (!cell.real) cell.s = r.ValueString(row, c);
      a[row].push_back(std::move(cell));
    }
  }
  return a;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Cell& x = a[r][c];
      const Cell& y = b[r][c];
      if (x.real != y.real) return false;
      if (x.real) {
        const double scale = std::max({1.0, std::fabs(x.d), std::fabs(y.d)});
        if (!(std::fabs(x.d - y.d) <= 1e-9 * scale)) return false;
      } else if (x.s != y.s) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-query layer breakdown from the traced pipeline and the QueryStats
// operator tree.

struct QueryLayers {
  int64_t wall_ns = 0;
  int64_t parse_ns = 0;
  int64_t strategic_ns = 0;
  int64_t build_ns = 0;
  int64_t execute_ns = 0;
  int64_t materialize_ns = 0;
  std::map<std::string, int64_t> self_ns;  // operator category -> self time
  int64_t self_total_ns = 0;
  uint64_t join_probe_rows = 0;
  uint64_t join_useful_rows = 0;
  std::string operators_json;
};

/// Operator category of a QueryStats node name ("TableScan(lineitem)").
std::string Category(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("TableScan") || starts("IndexedScan")) return "scan";
  if (starts("Filter")) return "filter";
  if (name.find("Join") != std::string::npos) return "join";
  if (name.find("Aggregate") != std::string::npos ||
      name.find("Rollup") != std::string::npos) {
    return "agg";
  }
  if (starts("Sort") || starts("TopN")) return "sort";
  if (starts("Exchange")) return "exchange";
  return "other";
}

void Accumulate(const observe::OperatorStats& node, QueryLayers* q,
                bool* first_op) {
  const std::string cat = Category(node.name);
  const int64_t self = static_cast<int64_t>(node.self_ns());
  q->self_ns[cat] += self;
  q->self_total_ns += self;
  if (!*first_op) q->operators_json += ',';
  *first_op = false;
  q->operators_json += "{\"name\":\"" + node.name +
                       "\",\"rows\":" + std::to_string(node.rows) +
                       ",\"self_ns\":" + std::to_string(self) + "}";
  if (cat == "join" && !node.children.empty()) {
    q->join_probe_rows += node.children[0]->rows;
  }
  for (const auto& child : node.children) {
    // The rows a join chain keeps are its top join's output, or the rows a
    // Filter consuming that output lets through (Q3's and Q12's predicates
    // on the joined columns). Under any other consumer the join's own
    // output counts.
    if (cat != "join" && Category(child->name) == "join") {
      q->join_useful_rows += cat == "filter" ? node.rows : child->rows;
    }
    Accumulate(*child, q, first_op);
  }
}

// ---------------------------------------------------------------------------
// Workload data.

struct TpchText {
  std::string lineitem, orders, customer;
  uint64_t Bytes() const {
    return lineitem.size() + orders.size() + customer.size();
  }
};

TpchText GenerateText(uint64_t seed) {
  TpchText t;
  t.lineitem = GenerateTpchTable(TpchTable::kLineitem, kScaleFactor, seed);
  t.orders = GenerateTpchTable(TpchTable::kOrders, kScaleFactor, seed);
  t.customer = GenerateTpchTable(TpchTable::kCustomer, kScaleFactor, seed);
  return t;
}

ImportOptions TpchImportOptions() {
  ImportOptions opts;
  opts.text.field_separator = '|';
  return opts;
}

/// The second lineitem slice: about 10% more rows, from another seed.
std::string SliceText(uint64_t seed) {
  return GenerateTpchTable(TpchTable::kLineitem,
                           kScaleFactor * kAppendSliceShare,
                           seed * 7919 + 104729);
}

/// `text` as 1024-row blocks ready for AppendRows, in text order (parsed
/// through a scratch engine so string lanes carry their heaps).
Result<std::vector<Block>> ToBlocks(std::string text) {
  Engine scratch;
  TDE_ASSIGN_OR_RETURN(auto unused, scratch.ImportTextBuffer(
                                        std::move(text), "lineitem",
                                        TpchImportOptions()));
  (void)unused;
  TDE_ASSIGN_OR_RETURN(QueryResult r,
                       scratch.ExecuteSql("SELECT * FROM lineitem"));
  return r.blocks();
}

/// `lineitem` followed by the first `rows` data lines of `slice` (its
/// header dropped): the rows lineitem holds after appending them.
std::string Concatenate(const std::string& lineitem, const std::string& slice,
                        uint64_t rows) {
  std::string out = lineitem;
  if (!out.empty() && out.back() != '\n') out += '\n';
  const size_t begin = slice.find('\n') + 1;
  size_t end = begin;
  for (uint64_t i = 0; i < rows && end < slice.size(); ++i) {
    const size_t nl = slice.find('\n', end);
    end = nl == std::string::npos ? slice.size() : nl + 1;
  }
  out.append(slice, begin, end - begin);
  return out;
}

// ---------------------------------------------------------------------------
// The benchmark run.

class Bench {
 public:
  Bench(const Args& args, const std::string& workload)
      : args_(args), workload_(workload), tracer_(args.trace) {}

  /// Runs the workload; false when a set-up step failed outright.
  bool Run();

  bool correct() const { return failed_ == 0 && checks_failed_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// End-to-end metrics (name -> value, unit), in report order.
  std::vector<std::tuple<std::string, double, std::string>> EndToEnd() const;
  /// Per-layer metrics from the traced passes.
  std::vector<std::tuple<std::string, double, std::string>> PerLayer() const;
  /// Human-readable lines: every end-to-end metric, including the
  /// ones the JSON contract cannot carry on every workload.
  void PrintReport() const;
  /// The trace file body (spans, per-query layers, counts).
  std::string TraceJson(
      const std::vector<std::tuple<std::string, double, std::string>>& metrics)
      const;

 private:
  bool Fail(const std::string& what) {
    std::fprintf(stderr, "[%s] error: %s\n", workload_.c_str(), what.c_str());
    return false;
  }
  void CheckFailed(const std::string& what) {
    std::fprintf(stderr, "[%s] self-check failed: %s\n", workload_.c_str(),
                 what.c_str());
    checks_failed_.push_back(what);
  }

  bool TimeLeft(Clock::time_point deadline, int done) const {
    if (args_.passes > 0) return done < args_.passes;
    return Clock::now() < deadline;
  }

  /// Imports lineitem, orders and customer from `text` into `engine`,
  /// recording the lineitem import sample.
  bool ImportTpch(Engine* engine, TpchText text);
  bool ImportLineitem(Engine* engine, std::string text);
  bool ImportTable(Engine* engine, const char* name, std::string text);

  /// One query through the engine. Untraced runs call ExecuteSql. Traced
  /// runs call the layers one by one (parse, strategic, build, execute,
  /// materialize): inside spans, filling `layers`, while the tracer
  /// records; bare on the untraced passes, so observe.trace_overhead_ratio
  /// compares one pipeline with and without tracing.
  Result<QueryResult> RunQuery(const Engine& engine, const TpchQuery& q,
                               QueryLayers* layers);

  /// One pass over the mix, checking every answer against `expected`
  /// (filled with the rewrites-off answers when empty).
  void MixPass(const Engine& engine, std::map<std::string, Answer>* expected,
               bool traced);
  bool ComputeExpected(const Engine& engine,
                       std::map<std::string, Answer>* expected);

  bool RunTpch(bool cold);
  bool RunImportAppend();

  /// Saves `engine`'s database to DbPath() and opens it lazily with a
  /// cache budget of twice the file size, timing both (storage.*).
  Result<std::unique_ptr<Engine>> SaveAndOpen(const Engine& engine);
  /// encoding.decode_ns_per_value.* over the stored columns of the mix's
  /// tables.
  void DecodeProbe(const Engine& engine);
  /// Appends the second lineitem slice block by block, timing each call.
  bool AppendAll(Engine* engine, const std::vector<Block>& blocks,
                 size_t begin, size_t end);
  bool ReadSegmentCount(const Engine& engine, double* out);
  /// Records peak_rss_mb: the process's peak resident set so far.
  void RecordPeakRss();

  uint64_t PagerCounter(const char* name) const {
    return observe::MetricsRegistry::Global().GetCounter(name)->value();
  }

  std::string DbPath() const {
    return (std::filesystem::path(args_.work_dir) / (workload_ + ".tde"))
        .string();
  }

  Args args_;
  std::string workload_;
  Tracer tracer_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> checks_failed_;

  // End-to-end samples.
  std::vector<double> setup_s_;
  double peak_rss_mb_ = 0;
  std::map<std::string, std::vector<double>> query_ms_;
  std::vector<double> mix_ms_;
  std::vector<double> import_rows_per_s_;
  std::vector<double> append_us_;
  double bytes_per_text_byte_ = 0;

  // Per-layer samples: one entry per traced mix pass.
  std::vector<QueryLayers> pass_layers_;
  std::vector<double> traced_mix_ms_, untraced_mix_ms_;
  std::vector<double> parse_s_, encode_s_, import_unattr_;
  std::vector<double> pager_hits_, pager_misses_, pager_evictions_,
      pager_bytes_read_;
  std::vector<double> save_s_, open_ms_;
  double file_bytes_ = 0;
  double touched_bytes_ = 0;
  double segment_count_ = 0;
  std::map<std::string, double> decode_ns_;
  std::map<std::string, uint64_t> result_rows_;
  std::map<std::string, uint64_t> table_rows_;
  std::vector<std::string> query_records_;
};

bool Bench::ImportLineitem(Engine* engine, std::string text) {
  ++attempted_;
  ScopedSpan span(&tracer_, "core.ImportTextBuffer");
  const auto t0 = Clock::now();
  auto r = engine->ImportTextBuffer(std::move(text), "lineitem",
                                    TpchImportOptions());
  const int64_t wall = Ns(t0, Clock::now());
  span.End();
  if (!r.ok()) {
    ++failed_;
    return Fail("import lineitem: " + r.status().ToString());
  }
  const uint64_t rows = r.value()->rows();
  import_rows_per_s_.push_back(static_cast<double>(rows) * 1e9 /
                               static_cast<double>(wall));
  const observe::ImportStats& s = engine->import_stats().back();
  parse_s_.push_back(s.parse_seconds);
  encode_s_.push_back(s.encode_seconds);
  const double wall_s = static_cast<double>(wall) / 1e9;
  import_unattr_.push_back((wall_s - s.parse_seconds - s.encode_seconds) /
                           wall_s);
  table_rows_["lineitem"] = rows;
  return true;
}

bool Bench::ImportTable(Engine* engine, const char* name, std::string text) {
  ++attempted_;
  ScopedSpan span(&tracer_, "core.ImportTextBuffer");
  auto r = engine->ImportTextBuffer(std::move(text), name,
                                    TpchImportOptions());
  if (!r.ok()) {
    ++failed_;
    return Fail(std::string("import ") + name + ": " + r.status().ToString());
  }
  table_rows_[name] = r.value()->rows();
  return true;
}

bool Bench::ImportTpch(Engine* engine, TpchText text) {
  return ImportLineitem(engine, std::move(text.lineitem)) &&
         ImportTable(engine, "orders", std::move(text.orders)) &&
         ImportTable(engine, "customer", std::move(text.customer));
}

Result<QueryResult> Bench::RunQuery(const Engine& engine, const TpchQuery& q,
                                    QueryLayers* layers) {
  if (!tracer_.enabled()) return engine.ExecuteSql(q.sql);
  const uint64_t qid = tracer_.recording() ? tracer_.NextQueryId() : 0;
  ScopedSpan query_span(&tracer_, std::string("query.") + q.id, qid);
  const auto t0 = Clock::now();
  ScopedSpan parse_span(&tracer_, "sql.parse");
  TDE_ASSIGN_OR_RETURN(sql::ParsedQuery parsed,
                       sql::ParseQuery(q.sql, engine.database()));
  layers->parse_ns = parse_span.End();
  ScopedSpan strategic_span(&tracer_, "plan.strategic");
  TDE_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                       StrategicOptimize(parsed.plan.root()));
  layers->strategic_ns = strategic_span.End();
  ScopedSpan build_span(&tracer_, "plan.build");
  TDE_ASSIGN_OR_RETURN(BuiltPlan built, BuildExecutable(optimized));
  layers->build_ns = build_span.End();
  ScopedSpan execute_span(&tracer_, "exec.execute");
  std::vector<Block> blocks;
  TDE_RETURN_NOT_OK(DrainOperator(built.op.get(), &blocks));
  layers->execute_ns = execute_span.End();
  ScopedSpan materialize_span(&tracer_, "exec.materialize");
  QueryResult result(built.op->output_schema(), std::move(blocks));
  layers->materialize_ns = materialize_span.End();
  layers->wall_ns = Ns(t0, Clock::now());
  if (!tracer_.recording()) return result;
  if (built.stats != nullptr) {
    bool first = true;
    Accumulate(*built.stats, layers, &first);
  }
  query_records_.push_back(
      "{\"query_id\":" + std::to_string(qid) + ",\"query\":\"" + q.id +
      "\",\"wall_ns\":" + std::to_string(layers->wall_ns) +
      ",\"operator_self_ns\":" + std::to_string(layers->self_total_ns) +
      ",\"rows\":" + std::to_string(result.num_rows()) + ",\"operators\":[" +
      layers->operators_json + "]}");
  return result;
}

bool Bench::ComputeExpected(const Engine& engine,
                            std::map<std::string, Answer>* expected) {
  for (const TpchQuery& q : TpchQueries()) {
    auto r = engine.ExecuteSql(q.sql, RewritesOff());
    if (!r.ok()) {
      return Fail(std::string("reference ") + q.id + ": " +
                  r.status().ToString());
    }
    (*expected)[q.id] = ToAnswer(r.value());
  }
  return true;
}

void Bench::MixPass(const Engine& engine,
                    std::map<std::string, Answer>* expected, bool traced) {
  QueryLayers pass;
  std::vector<std::pair<std::string, QueryResult>> results;
  tracer_.set_paused(!traced);
  const auto p0 = Clock::now();
  ScopedSpan pass_span(&tracer_, "mix.pass");
  for (const TpchQuery& q : TpchQueries()) {
    ++attempted_;
    QueryLayers ql;
    const auto t0 = Clock::now();
    auto r = RunQuery(engine, q, &ql);
    const double ms = static_cast<double>(Ns(t0, Clock::now())) / 1e6;
    if (!r.ok()) {
      ++failed_;
      std::fprintf(stderr, "[%s] %s failed: %s\n", workload_.c_str(), q.id,
                   r.status().ToString().c_str());
      continue;
    }
    query_ms_[q.id].push_back(ms);
    results.emplace_back(q.id, r.MoveValue());
    if (traced) {
      pass.wall_ns += ql.wall_ns;
      pass.parse_ns += ql.parse_ns;
      pass.strategic_ns += ql.strategic_ns;
      pass.build_ns += ql.build_ns;
      pass.execute_ns += ql.execute_ns;
      pass.materialize_ns += ql.materialize_ns;
      for (const auto& [cat, ns] : ql.self_ns) pass.self_ns[cat] += ns;
      pass.self_total_ns += ql.self_total_ns;
      pass.join_probe_rows += ql.join_probe_rows;
      pass.join_useful_rows += ql.join_useful_rows;
    }
  }
  pass_span.End();
  const double mix_ms = static_cast<double>(Ns(p0, Clock::now())) / 1e6;
  tracer_.set_paused(false);
  mix_ms_.push_back(mix_ms);
  (traced ? traced_mix_ms_ : untraced_mix_ms_).push_back(mix_ms);
  if (traced) pass_layers_.push_back(std::move(pass));

  // Answer checks, outside the timed section.
  if (expected->empty() && !ComputeExpected(engine, expected)) {
    failed_ += results.size();
    return;
  }
  for (const auto& [id, result] : results) {
    result_rows_[id] = result.num_rows();
    if (!SameAnswer(ToAnswer(result), expected->at(id))) {
      ++failed_;
      std::fprintf(stderr, "[%s] %s: wrong answer (%llu rows, expected %zu)\n",
                   workload_.c_str(), id.c_str(),
                   static_cast<unsigned long long>(result.num_rows()),
                   expected->at(id).size());
    }
  }
}

Result<std::unique_ptr<Engine>> Bench::SaveAndOpen(const Engine& engine) {
  const std::string path = DbPath();
  {
    ScopedSpan span(&tracer_, "storage.SaveDatabase");
    const auto t0 = Clock::now();
    TDE_RETURN_NOT_OK(engine.SaveDatabase(path));
    save_s_.push_back(static_cast<double>(Ns(t0, Clock::now())) / 1e9);
  }
  file_bytes_ = static_cast<double>(std::filesystem::file_size(path));
  ScopedSpan span(&tracer_, "storage.OpenDatabase");
  const auto t0 = Clock::now();
  Engine::OpenOptions options;
  options.cache_budget_bytes = 2 * static_cast<uint64_t>(file_bytes_);
  TDE_ASSIGN_OR_RETURN(Engine opened, Engine::OpenDatabase(path, options));
  open_ms_.push_back(static_cast<double>(Ns(t0, Clock::now())) / 1e6);
  return std::make_unique<Engine>(std::move(opened));
}

void Bench::DecodeProbe(const Engine& engine) {
  ScopedSpan span(&tracer_, "encoding.decode_probe");
  constexpr int kReps = 5;
  std::map<std::string, std::vector<const EncodedStream*>> groups;
  std::vector<std::shared_ptr<EncodedStream>> pins;
  for (const char* table_name : {"lineitem", "orders", "customer"}) {
    auto table = engine.database().GetTable(table_name);
    if (!table.ok()) continue;
    for (size_t i = 0; i < table.value()->num_columns(); ++i) {
      const EncodedStream* data = table.value()->column(i).data();
      if (data == nullptr) continue;
      if (!data->segmented()) {
        groups[EncodingName(data->type())].push_back(data);
        continue;
      }
      groups["segmented"].push_back(data);
      const auto* seg = static_cast<const SegmentedStream*>(data);
      for (size_t s = 0; s < seg->segment_count(); ++s) {
        auto stream = seg->SegmentStreamForRead(s);
        if (!stream.ok()) continue;  // the open tail has no stream
        groups[EncodingName(stream.value()->type())].push_back(
            stream.value().get());
        pins.push_back(stream.MoveValue());
      }
    }
  }
  std::vector<Lane> buf(kBlockSize);
  for (const auto& [name, streams] : groups) {
    std::vector<double> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t values = 0;
      const auto t0 = Clock::now();
      for (const EncodedStream* s : streams) {
        const uint64_t n = s->size();
        for (uint64_t row = 0; row < n; row += kBlockSize) {
          const size_t count =
              static_cast<size_t>(std::min<uint64_t>(kBlockSize, n - row));
          if (!s->Get(row, count, buf.data()).ok()) break;
        }
        values += n;
      }
      const int64_t ns = Ns(t0, Clock::now());
      if (values > 0) reps.push_back(static_cast<double>(ns) / values);
    }
    decode_ns_[name] = Median(reps);
  }
}

bool Bench::AppendAll(Engine* engine, const std::vector<Block>& blocks,
                      size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    ++attempted_;
    ScopedSpan span(&tracer_, "core.AppendRows");
    const auto t0 = Clock::now();
    auto r = engine->AppendRows("lineitem", blocks[i]);
    append_us_.push_back(static_cast<double>(Ns(t0, Clock::now())) / 1e3 *
                         kBlockSize / static_cast<double>(blocks[i].rows()));
    if (!r.ok()) {
      ++failed_;
      return Fail("append: " + r.status().ToString());
    }
  }
  return true;
}

bool Bench::ReadSegmentCount(const Engine& engine, double* out) {
  auto r = engine.ExecuteSql(
      "SELECT COUNT(*) AS n FROM tde_segments WHERE table_name = 'lineitem' "
      "AND column_name = 'l_orderkey'");
  if (!r.ok()) return Fail("tde_segments: " + r.status().ToString());
  *out = static_cast<double>(r.value().Value(0, 0));
  return true;
}

void Bench::RecordPeakRss() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool Bench::RunTpch(bool cold) {
  std::unique_ptr<Engine> hot, engine;
  uint64_t text_bytes = 0;
  auto set_up = [&]() {
    hot.reset();
    engine.reset();
    ScopedSpan span(&tracer_, "setup");
    const auto t0 = Clock::now();
    TpchText text = GenerateText(args_.seed);
    text_bytes = text.Bytes();
    hot = std::make_unique<Engine>();
    if (!ImportTpch(hot.get(), std::move(text))) return false;
    if (cold) {
      auto opened = SaveAndOpen(*hot);
      if (!opened.ok()) return Fail(opened.status().ToString());
      engine = opened.MoveValue();
      if (!tracer_.enabled()) hot.reset();  // the decode probe needs it
    }
    setup_s_.push_back(static_cast<double>(Ns(t0, Clock::now())) / 1e9);
    return true;
  };
  if (!set_up()) return false;
  const Engine& queried = cold ? *engine : *hot;
  if (cold) {
    // Calibration, untimed: the bytes the mix touches are what one pass
    // reads on a fresh open whose budget holds the whole file. The budget
    // then drops to a share of that, so every pass must fault columns in.
    const uint64_t b0 = PagerCounter("pager.bytes_read");
    for (const TpchQuery& q : TpchQueries()) {
      auto r = queried.ExecuteSql(q.sql);
      if (!r.ok()) return Fail(std::string(q.id) + ": " + r.status().ToString());
    }
    touched_bytes_ =
        static_cast<double>(PagerCounter("pager.bytes_read") - b0);
    engine->column_cache()->set_budget_bytes(
        static_cast<uint64_t>(touched_bytes_ * kColdBudgetShare));
  }

  std::map<std::string, Answer> expected;
  if (!ComputeExpected(queried, &expected)) return false;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  for (int pass = 0; TimeLeft(deadline, pass); ++pass) {
    const uint64_t h0 = PagerCounter("pager.hits");
    const uint64_t m0 = PagerCounter("pager.misses");
    const uint64_t e0 = PagerCounter("pager.evictions");
    const uint64_t b0 = PagerCounter("pager.bytes_read");
    // Traced runs alternate untraced and traced passes, so the two sides
    // of observe.trace_overhead_ratio see the same conditions.
    MixPass(queried, &expected, tracer_.enabled() && pass % 2 == 1);
    const uint64_t misses = PagerCounter("pager.misses") - m0;
    pager_hits_.push_back(PagerCounter("pager.hits") - h0);
    pager_misses_.push_back(misses);
    pager_evictions_.push_back(PagerCounter("pager.evictions") - e0);
    pager_bytes_read_.push_back(PagerCounter("pager.bytes_read") - b0);
    if (!cold && misses != 0) {
      CheckFailed("tpch_hot pass " + std::to_string(pass) + " faulted " +
                  std::to_string(misses) + " columns through the pager");
    }
    if (cold && misses == 0) {
      CheckFailed("tpch_cold pass " + std::to_string(pass) +
                  " missed the column cache zero times");
    }
  }
  RecordPeakRss();

  if (!ReadSegmentCount(queried, &segment_count_)) return false;
  if (!cold) {
    auto saved = SaveAndOpen(*hot);
    if (!saved.ok()) return Fail(saved.status().ToString());
  }
  bytes_per_text_byte_ = file_bytes_ / static_cast<double>(text_bytes);
  if (tracer_.enabled()) {
    DecodeProbe(*hot);
    // The append probe: tpch workloads append nothing while measured, so
    // segment.append_us_per_block is taken after the passes, on the
    // queried table.
    auto blocks = ToBlocks(SliceText(args_.seed));
    if (!blocks.ok()) return Fail(blocks.status().ToString());
    Engine* target = cold ? engine.get() : hot.get();
    if (!AppendAll(target, blocks.value(), 0, blocks.value().size())) {
      return false;
    }
  }
  for (int i = 1; i < args_.setups; ++i) {
    if (!set_up()) return false;
  }
  std::filesystem::remove(DbPath());
  return true;
}

bool Bench::RunImportAppend() {
  // Set-up: generation, the static dimension tables, and the append
  // blocks. The lineitem import itself is the measured write path.
  TpchText text;
  std::string slice;
  std::unique_ptr<Engine> dims;
  std::vector<Block> blocks;
  auto set_up = [&]() {
    dims.reset();
    blocks.clear();
    ScopedSpan span(&tracer_, "setup");
    const auto t0 = Clock::now();
    text = GenerateText(args_.seed);
    dims = std::make_unique<Engine>();
    if (!ImportTable(dims.get(), "orders", text.orders) ||
        !ImportTable(dims.get(), "customer", text.customer)) {
      return false;
    }
    slice = SliceText(args_.seed);
    auto b = ToBlocks(slice);
    if (!b.ok()) return Fail(b.status().ToString());
    blocks = b.MoveValue();
    setup_s_.push_back(static_cast<double>(Ns(t0, Clock::now())) / 1e9);
    return true;
  };
  if (!set_up()) return false;
  const size_t batches = (blocks.size() + kBlocksPerBatch - 1) / kBlocksPerBatch;

  // expected[b]: the answers after batch b, recomputed without AppendRows:
  // the rewrites-off plans over a table imported directly from lineitem's
  // text plus the slice rows appended so far. Every iteration reaches the
  // same states, so they are computed once.
  std::vector<std::map<std::string, Answer>> expected(batches);
  uint64_t rows_appended = 0;
  for (size_t b = 0; b < batches; ++b) {
    for (size_t i = b * kBlocksPerBatch;
         i < std::min(blocks.size(), (b + 1) * kBlocksPerBatch); ++i) {
      rows_appended += blocks[i].rows();
    }
    Engine reference;
    for (const char* name : {"orders", "customer"}) {
      reference.database()->AddTable(
          dims->database()->GetTable(name).value());
    }
    auto r = reference.ImportTextBuffer(
        Concatenate(text.lineitem, slice, rows_appended), "lineitem",
        TpchImportOptions());
    if (!r.ok()) return Fail("reference import: " + r.status().ToString());
    if (!ComputeExpected(reference, &expected[b])) return false;
  }
  std::unique_ptr<Engine> engine;
  double segments_after_import = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args_.seconds));
  int pass = 0;
  for (int iter = 0; TimeLeft(deadline, iter); ++iter) {
    engine = std::make_unique<Engine>();
    for (const char* name : {"orders", "customer"}) {
      engine->database()->AddTable(dims->database()->GetTable(name).value());
    }
    ScopedSpan iter_span(&tracer_, "iteration");
    if (!ImportLineitem(engine.get(), text.lineitem)) return false;
    if (iter == 0 && !ReadSegmentCount(*engine, &segments_after_import)) {
      return false;
    }
    for (size_t b = 0; b < batches; ++b) {
      if (!AppendAll(engine.get(), blocks, b * kBlocksPerBatch,
                     std::min(blocks.size(), (b + 1) * kBlocksPerBatch))) {
        return false;
      }
      MixPass(*engine, &expected[b], tracer_.enabled() && pass % 2 == 1);
      ++pass;
    }
  }
  if (engine == nullptr) return Fail("no iteration ran");
  RecordPeakRss();

  if (!ReadSegmentCount(*engine, &segment_count_)) return false;
  auto lineitem = engine->database()->GetTable("lineitem");
  if (!lineitem.ok()) return Fail(lineitem.status().ToString());
  if (!lineitem.value()->column(0).segmented_storage() ||
      segment_count_ <= segments_after_import) {
    CheckFailed("import_append: lineitem did not end up with more segments "
                "than the import gave it");
  }
  table_rows_["lineitem_appended"] = lineitem.value()->rows();
  auto saved = SaveAndOpen(*engine);
  if (!saved.ok()) return Fail(saved.status().ToString());
  std::filesystem::remove(DbPath());
  bytes_per_text_byte_ =
      file_bytes_ / static_cast<double>(text.Bytes() + slice.size());
  if (tracer_.enabled()) DecodeProbe(*engine);
  for (int i = 1; i < args_.setups; ++i) {
    if (!set_up()) return false;
  }
  return true;
}

bool Bench::Run() {
  if (workload_ == "tpch_hot") return RunTpch(/*cold=*/false);
  if (workload_ == "tpch_cold") return RunTpch(/*cold=*/true);
  if (workload_ == "import_append") return RunImportAppend();
  return Fail("unknown workload '" + workload_ + "'");
}

std::string MetricName(const TpchQuery& q) {
  std::string name = q.id;
  std::transform(name.begin(), name.end(), name.begin(), ::tolower);
  return name + "_ms";
}

std::vector<std::tuple<std::string, double, std::string>> Bench::EndToEnd()
    const {
  std::vector<std::tuple<std::string, double, std::string>> m;
  m.emplace_back("setup_s", Median(setup_s_), "s");
  for (const TpchQuery& q : TpchQueries()) {
    auto it = query_ms_.find(q.id);
    m.emplace_back(MetricName(q),
                   it == query_ms_.end()
                       ? 0
                       : Percentile(it->second, kLatencyPercentile),
                   "ms");
  }
  m.emplace_back("mix_ms_p5", Percentile(mix_ms_, kLatencyPercentile), "ms");
  m.emplace_back("bytes_per_text_byte", bytes_per_text_byte_, "B/B");
  m.emplace_back("peak_rss_mb", peak_rss_mb_, "MB");
  return m;
}

std::vector<std::tuple<std::string, double, std::string>> Bench::PerLayer()
    const {
  auto pass_median = [&](const std::function<double(const QueryLayers&)>& f) {
    std::vector<double> v;
    for (const QueryLayers& p : pass_layers_) v.push_back(f(p));
    return Median(v);
  };
  auto self_ms = [&](const char* cat) {
    return pass_median([cat](const QueryLayers& p) {
      auto it = p.self_ns.find(cat);
      return it == p.self_ns.end() ? 0.0 : it->second / 1e6;
    });
  };
  std::vector<std::tuple<std::string, double, std::string>> m;
  m.emplace_back("sql.parse_us",
                 pass_median([](auto& p) { return p.parse_ns / 1e3; }), "us");
  m.emplace_back("plan.strategic_us",
                 pass_median([](auto& p) { return p.strategic_ns / 1e3; }),
                 "us");
  m.emplace_back("plan.build_us",
                 pass_median([](auto& p) { return p.build_ns / 1e3; }), "us");
  m.emplace_back("exec.execute_ms",
                 pass_median([](auto& p) { return p.execute_ns / 1e6; }),
                 "ms");
  m.emplace_back("exec.materialize_ms",
                 pass_median([](auto& p) { return p.materialize_ns / 1e6; }),
                 "ms");
  for (const char* cat : {"scan", "filter", "join", "agg", "sort", "other"}) {
    m.emplace_back(std::string("exec.") + cat + "_self_ms", self_ms(cat),
                   "ms");
  }
  m.emplace_back("exec.join_probe_rows",
                 pass_median([](auto& p) {
                   return static_cast<double>(p.join_probe_rows);
                 }),
                 "rows");
  m.emplace_back("exec.join_useful_ratio", pass_median([](auto& p) {
                   return p.join_probe_rows == 0
                              ? 0.0
                              : static_cast<double>(p.join_useful_rows) /
                                    static_cast<double>(p.join_probe_rows);
                 }),
                 "ratio");
  m.emplace_back("exec.unattributed_ratio", pass_median([](auto& p) {
                   return p.wall_ns == 0
                              ? 0.0
                              : static_cast<double>(p.wall_ns -
                                                    p.self_total_ns) /
                                    static_cast<double>(p.wall_ns);
                 }),
                 "ratio");
  for (const char* enc : {"uncompressed", "frame-of-reference", "delta",
                          "dictionary", "affine", "run-length", "segmented"}) {
    static const std::map<std::string, std::string> kShort = {
        {"uncompressed", "uncompressed"}, {"frame-of-reference", "for"},
        {"delta", "delta"},               {"dictionary", "dict"},
        {"affine", "affine"},             {"run-length", "rle"},
        {"segmented", "segmented"}};
    auto it = decode_ns_.find(enc);
    m.emplace_back("encoding.decode_ns_per_value." + kShort.at(enc),
                   it == decode_ns_.end() ? 0 : it->second, "ns");
  }
  m.emplace_back("encoding.encode_s", Median(encode_s_), "s");
  m.emplace_back("textscan.parse_s", Median(parse_s_), "s");
  m.emplace_back("import.unattributed_ratio", Median(import_unattr_),
                 "ratio");
  const double bytes_read = Median(pager_bytes_read_);
  m.emplace_back("pager.hits", Median(pager_hits_), "count");
  m.emplace_back("pager.misses", Median(pager_misses_), "count");
  m.emplace_back("pager.evictions", Median(pager_evictions_), "count");
  m.emplace_back("pager.bytes_read", bytes_read, "bytes");
  m.emplace_back("pager.read_amplification",
                 touched_bytes_ > 0 ? bytes_read / touched_bytes_ : 0.0,
                 "ratio");
  m.emplace_back("storage.save_s", Median(save_s_), "s");
  m.emplace_back("storage.open_ms", Median(open_ms_), "ms");
  m.emplace_back("storage.file_bytes", file_bytes_, "bytes");
  m.emplace_back("segment.append_us_per_block", Median(append_us_), "us");
  m.emplace_back("segment.count", segment_count_, "count");
  const double untraced = Median(untraced_mix_ms_);
  m.emplace_back("observe.trace_overhead_ratio",
                 untraced > 0 ? Median(traced_mix_ms_) / untraced : 0.0,
                 "ratio");
  return m;
}

void Bench::PrintReport() const {
  std::printf("== %s (seed %llu, %s, %zu mix passes, %d set-ups)\n",
              workload_.c_str(), static_cast<unsigned long long>(args_.seed),
              tracer_.enabled() ? "traced" : "untraced", mix_ms_.size(),
              args_.setups);
  for (const auto& [name, value, unit] : EndToEnd()) {
    std::printf("  %-22s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  for (const TpchQuery& q : TpchQueries()) {
    auto it = query_ms_.find(q.id);
    if (it == query_ms_.end()) continue;
    std::printf("  %-22s %14.4f ms (n=%zu)\n", (MetricName(q) + "_p50").c_str(),
                Median(it->second), it->second.size());
  }
  std::printf("  %-22s %14.4f ms (n=%zu)\n", "mix_ms_p50", Median(mix_ms_),
              mix_ms_.size());
  // mix_ms_p90 needs ten passes beyond it: 100 passes in all.
  const size_t beyond = mix_ms_.size() / 10;
  if (beyond >= 10) {
    std::printf("  %-22s %14.4f ms (n=%zu)\n", "mix_ms_p90",
                Percentile(mix_ms_, 90), mix_ms_.size());
  } else {
    std::printf("  %-22s %14s (n=%zu passes, %zu beyond p90; needs 10)\n",
                "mix_ms_p90", "dropped", mix_ms_.size(), beyond);
  }
  std::printf("  %-22s %14.4f rows/s (n=%zu)\n", "import_rows_per_s",
              Median(import_rows_per_s_), import_rows_per_s_.size());
  if (!append_us_.empty() && workload_ == "import_append") {
    std::printf("  %-22s %14.4f rows/s (n=%zu blocks)\n", "append_rows_per_s",
                kBlockSize * 1e6 / Median(append_us_), append_us_.size());
  }
  std::printf("  %-22s %14.4f (%llu failed of %llu attempted)\n",
              "failed_ratio",
              attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  if (tracer_.enabled()) {
    for (const auto& [name, value, unit] : PerLayer()) {
      std::printf("  %-36s %14.4f %s\n", name.c_str(), value, unit.c_str());
    }
  }
}

std::string Bench::TraceJson(
    const std::vector<std::tuple<std::string, double, std::string>>& metrics)
    const {
  std::string out = "{\"workload\":\"" + workload_ +
                    "\",\"seed\":" + std::to_string(args_.seed) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) out += ',';
    out += "\"" + name + "\":{\"value\":" + Num(value) + ",\"unit\":\"" +
           unit + "\"}";
  }
  out += "},\"counts\":{\"bytes_per_text_byte\":" + Num(bytes_per_text_byte_) +
         ",\"pager_misses_per_pass\":[";
  for (size_t i = 0; i < pager_misses_.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(pager_misses_[i]);
  }
  out += "],\"join_probe_rows_per_pass\":[";
  for (size_t i = 0; i < pass_layers_.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(pass_layers_[i].join_probe_rows);
  }
  out += "],\"result_rows\":{";
  bool first = true;
  for (const auto& [q, rows] : result_rows_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + q + "\":" + std::to_string(rows);
  }
  out += "},\"table_rows\":{";
  first = true;
  for (const auto& [t, rows] : table_rows_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + t + "\":" + std::to_string(rows);
  }
  out += "}},\"queries\":[";
  for (size_t i = 0; i < query_records_.size(); ++i) {
    if (i > 0) out += ',';
    out += query_records_[i];
  }
  out += "],\"spans\":[";
  const std::vector<Span>& spans = tracer_.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"query\":" + std::to_string(s.query) + ",\"name\":\"" + s.name +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--passes") {
      a->passes = std::atoi(v);
    } else if (flag == "--setups") {
      a->setups = std::max(1, std::atoi(v));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (a->workload.empty() || a->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: tde_perfbench --workload <tpch_hot|tpch_cold|"
                 "import_append|all> --seed N --seconds S --trace <0|1> "
                 "[--work-dir DIR] [--passes N] [--setups N]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::vector<std::string> workloads;
  if (args.workload == "all") {
    for (const char* w : WorkloadNames()) workloads.push_back(w);
  } else {
    workloads.push_back(args.workload);
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  for (const std::string& w : workloads) {
    Bench bench(args, w);
    if (!bench.Run()) return 1;
    bench.PrintReport();
    correct = correct && bench.correct();
    attempted += bench.attempted();
    failed += bench.failed();
    auto m = args.trace ? bench.PerLayer() : bench.EndToEnd();
    if (args.trace) {
      const std::filesystem::path path =
          std::filesystem::path(args.work_dir) /
          ("trace-" + w + "-seed" + std::to_string(args.seed) + ".json");
      std::ofstream(path) << bench.TraceJson(m);
    }
    for (auto& [name, value, unit] : m) {
      metrics.emplace_back(workloads.size() > 1 ? w + "." + name : name, value,
                           unit);
    }
  }

  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) line += ',';
    line += "\"" + name + "\":{\"value\":" + Num(value) + ",\"unit\":\"" +
            unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tde

int main(int argc, char** argv) { return tde::Main(argc, argv); }
