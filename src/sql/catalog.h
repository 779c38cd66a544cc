#ifndef SQUERY_SQL_CATALOG_H_
#define SQUERY_SQL_CATALOG_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "kv/object.h"

namespace sq::sql {

/// Produces the current rows of a virtual table. Called once per scan, on
/// the querying thread; implementations must be safe to call concurrently
/// with the engine running (read from atomics / under their own locks).
/// Every row must carry a `key` field: SQL scans read it as the row's state
/// key (the `key`/`partitionKey` pseudo-columns and point lookups).
using VirtualTableScanFn = std::function<Result<std::vector<kv::Object>>()>;

/// Registry of virtual (computed) tables — the engine's introspection
/// surface. System tables such as `__metrics`, `__operators` and
/// `__checkpoints` register a scan function here; the query layer consults
/// the catalog before falling back to KV-grid tables, so the same SQL
/// executor serves state queries and engine self-observation alike.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers (or replaces) the virtual table `name`.
  void RegisterVirtualTable(const std::string& name, VirtualTableScanFn fn);

  /// True if `name` is a registered virtual table.
  bool HasVirtualTable(const std::string& name) const;

  /// Runs the scan function of `name`. NotFound if it is not registered.
  Result<std::vector<kv::Object>> ScanVirtualTable(
      const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> VirtualTableNames() const;

 private:
  // Read-mostly: registration happens at service wiring time, lookups on
  // every query. Scan functions run outside the lock, so a virtual table
  // scan may itself query the catalog without self-deadlock.
  mutable SharedMutex mu_{lockrank::kSqlCatalog, "sql.catalog"};
  std::map<std::string, VirtualTableScanFn> tables_ SQ_GUARDED_BY(mu_);
};

}  // namespace sq::sql

#endif  // SQUERY_SQL_CATALOG_H_
