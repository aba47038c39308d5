#ifndef TDE_STORAGE_DATABASE_FILE_H_
#define TDE_STORAGE_DATABASE_FILE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/table.h"

namespace tde {

/// An in-memory database: a set of named tables. Its single-file form
/// (Sect. 2.3.3: a TDE database must be choosable in a file dialog, i.e.
/// one file) is the paged format in src/storage/pager/format.h.
///
/// Thread-safe for the reader/replacer mix the engine produces: queries
/// resolve tables to shared_ptr snapshots (GetTable / tables()), so a
/// concurrent ReplaceTable swaps the catalog entry without disturbing
/// readers already executing against the old table — the old table stays
/// alive until its last query releases it.
class Database {
 public:
  Database() = default;
  Database(const Database& other) : tables_(other.Snapshot()) {}
  Database(Database&& other) noexcept : tables_(other.Snapshot()) {}
  Database& operator=(const Database& other) {
    if (this != &other) {
      auto copy = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      tables_ = std::move(copy);
    }
    return *this;
  }
  Database& operator=(Database&& other) noexcept {
    if (this != &other) {
      auto moved = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      tables_ = std::move(moved);
    }
    return *this;
  }

  size_t num_tables() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tables_.size();
  }
  /// Snapshot of the current table set — safe to iterate while another
  /// thread adds or replaces tables.
  std::vector<std::shared_ptr<Table>> tables() const { return Snapshot(); }
  void AddTable(std::shared_ptr<Table> t) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(std::move(t));
  }
  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const;
  /// Replaces the table with the same name (error if absent). Queries
  /// holding the old table's shared_ptr keep reading it unharmed.
  Status ReplaceTable(std::shared_ptr<Table> t);

  uint64_t PhysicalSize() const;
  uint64_t LogicalSize() const;

 private:
  std::vector<std::shared_ptr<Table>> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tables_;
  }

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Table>> tables_;
};

}  // namespace tde

#endif  // TDE_STORAGE_DATABASE_FILE_H_
