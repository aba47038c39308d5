#include "src/storage/database_file.h"

namespace tde {

Result<std::shared_ptr<Table>> Database::GetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tables_) {
    if (t->name() == name) return t;
  }
  return {Status::NotFound("no table named '" + name + "'")};
}

Status Database::ReplaceTable(std::shared_ptr<Table> t) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& existing : tables_) {
    if (existing->name() == t->name()) {
      existing = std::move(t);
      return Status::OK();
    }
  }
  return Status::NotFound("no table named '" + t->name() + "' to replace");
}

uint64_t Database::PhysicalSize() const {
  uint64_t n = 0;
  for (const auto& t : tables()) n += t->PhysicalSize();
  return n;
}

uint64_t Database::LogicalSize() const {
  uint64_t n = 0;
  for (const auto& t : tables()) n += t->LogicalSize();
  return n;
}

}  // namespace tde
