// Heterogeneous data querying (survey Sec. 7.2): one SQL interface over a
// polystore whose datasets live in three different backends — a relational
// table, a MongoDB-style document collection, and a raw CSV object. Shows
// query decomposition and the effect of predicate pushdown (Constance /
// Ontario / Squerall pattern).
//
// Run:  ./examples/federated_query [dir]

#include <cstdio>
#include <filesystem>

#include "json/parser.h"
#include "query/federation.h"
#include "storage/polystore.h"

using namespace lakekit;           // NOLINT
using namespace lakekit::query;    // NOLINT
using namespace lakekit::storage;  // NOLINT

namespace {

void Check(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = argc > 1 ? argv[1] : "/tmp/lakekit_federation";
  std::filesystem::remove_all(root);
  auto ps = Polystore::Open(root);
  Check(ps.status());

  // Relational store: a sizeable sales table.
  {
    std::string csv = "sale_id,store,amount\n";
    for (int i = 0; i < 3000; ++i) {
      csv += std::to_string(i) + ",store" + std::to_string(i % 30) + "," +
             std::to_string((i * 7) % 100) + "\n";
    }
    Check(ps->StoreTable("sales",
                         *table::Table::FromCsv("sales", csv)));
  }
  // Document store: store master data as JSON documents.
  {
    std::vector<json::Value> docs;
    for (int i = 0; i < 30; ++i) {
      docs.push_back(*json::Parse(
          R"({"store":"store)" + std::to_string(i) + R"(","region":")" +
          (i % 3 == 0 ? "north" : "south") + R"("})"));
    }
    Check(ps->StoreDocuments("stores", std::move(docs)));
  }
  // Object store: a raw CSV landing file.
  Check(ps->StoreObject("targets", "landing/targets.csv",
                        "region,target\nnorth,50\nsouth,40\n"));

  std::printf("datasets:\n");
  for (const std::string& name : ps->DatasetNames()) {
    auto loc = ps->Lookup(name);
    std::printf("  %-8s -> %s store\n", name.c_str(),
                std::string(StoreKindName(loc->store)).c_str());
  }

  FederatedEngine engine(&ps.value());
  const std::string sql =
      "SELECT region, COUNT(*) AS sales, AVG(amount) AS avg_amount "
      "FROM sales JOIN stores ON sales.store = stores.store "
      "WHERE region = 'north' AND amount > 20 "
      "GROUP BY region";

  // Each query reports its statistics through QueryOptions::stats_out.
  FederationStats pushed;
  auto with = engine.Query(sql, QueryOptions{.stats_out = &pushed});
  Check(with.status());
  std::printf("\nwith pushdown:\n%s", with->ToCsv().c_str());
  std::printf("  scanned=%zu shipped=%zu join_inputs=%zu "
              "pushed_conjuncts=%zu\n",
              pushed.rows_scanned, pushed.rows_shipped,
              pushed.join_input_rows, pushed.pushed_conjuncts);

  FederationStats unpushed;
  auto without = engine.Query(
      sql, QueryOptions{.enable_pushdown = false, .stats_out = &unpushed});
  Check(without.status());
  std::printf("\nwithout pushdown (same result):\n");
  std::printf("  scanned=%zu shipped=%zu join_inputs=%zu "
              "pushed_conjuncts=%zu\n",
              unpushed.rows_scanned, unpushed.rows_shipped,
              unpushed.join_input_rows, unpushed.pushed_conjuncts);

  std::printf("\npushdown shipped %.1fx fewer rows to the mediator\n",
              static_cast<double>(unpushed.rows_shipped) /
                  static_cast<double>(pushed.rows_shipped));

  // The raw object-store dataset is queryable through the same interface.
  auto targets = engine.Query("SELECT * FROM targets ORDER BY region");
  Check(targets.status());
  std::printf("\nraw landing file via SQL:\n%s", targets->ToCsv().c_str());
  return 0;
}
