// Tests for the cross-engine DP plan search (DESIGN.md §15): QuerySpec
// validation, the DP enumerator against an exhaustive oracle on small
// specs, PlanQuery's bit-parity with replicas of the pre-redesign
// single-operator planners, and the planner knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sub_op.h"
#include "federation/explain.h"
#include "federation/intellisphere.h"
#include "federation/plan_search.h"
#include "relational/cardinality.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/service.h"
#include "util/rng.h"

namespace intellisphere::fed {
namespace {

// --- QuerySpec validation ---------------------------------------------------

QuerySpec TwoRelationSpec() {
  QuerySpec spec;
  spec.relations = {{"left_table"}, {"right_table"}};
  spec.joins = {{0, 1, "a1", 1.0}};
  return spec;
}

void ExpectInvalid(const QuerySpec& spec, const std::string& message) {
  Status s = spec.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << message;
  EXPECT_EQ(s.message(), message);
}

TEST(QuerySpecTest, ValidatesStructure) {
  EXPECT_TRUE(TwoRelationSpec().Validate().ok());

  ExpectInvalid(QuerySpec{}, "query spec has no relations");

  QuerySpec spec = TwoRelationSpec();
  spec.relations[0].table.clear();
  ExpectInvalid(spec, "relation table name is empty");

  spec = TwoRelationSpec();
  spec.relations[1].filter_selectivity = 1.5;
  ExpectInvalid(spec, "selectivity must be in [0, 1]");

  spec = TwoRelationSpec();
  spec.relations[0].projected_bytes = -2;  // below the kFullRowWidth sentinel
  ExpectInvalid(spec, "negative projected size");

  spec = TwoRelationSpec();
  spec.joins[0].right = 5;
  ExpectInvalid(spec, "join predicate relation index out of range");

  spec = TwoRelationSpec();
  spec.joins[0].right = 0;
  ExpectInvalid(spec, "join predicate joins a relation to itself");

  spec = TwoRelationSpec();
  spec.joins[0].column.clear();
  ExpectInvalid(spec, "join predicate column is empty");

  spec = TwoRelationSpec();
  spec.joins[0].extra_selectivity = 0.0;
  ExpectInvalid(spec, "extra_selectivity must be in (0, 1]");

  // Three relations, one edge: the DP could never complete a plan.
  spec = TwoRelationSpec();
  spec.relations.push_back({"third_table"});
  ExpectInvalid(spec, "join graph does not connect all relations");

  // A single relation admits no join predicates.
  spec = TwoRelationSpec();
  spec.relations.pop_back();
  ExpectInvalid(spec, "join predicate relation index out of range");
}

TEST(QuerySpecTest, ValidatesAggregate) {
  QuerySpec spec = TwoRelationSpec();
  spec.aggregate = QuerySpec::Aggregate{5, "a10", 1};
  ExpectInvalid(spec, "aggregate relation index out of range");

  spec.aggregate = QuerySpec::Aggregate{0, "", 1};
  ExpectInvalid(spec, "aggregate group column is empty");

  spec.aggregate = QuerySpec::Aggregate{0, "a10", 0};
  ExpectInvalid(spec, "need at least one aggregate function");
}

TEST(PlannerOptionsTest, FromPropertiesReadsKnobs) {
  Properties props;
  PlannerOptions defaults = PlannerOptions::FromProperties(props).value();
  EXPECT_EQ(defaults.max_dp_relations, 12);
  EXPECT_DOUBLE_EQ(defaults.prune_factor, 0.0);

  props.SetInt(kPlannerMaxDpRelationsKey, 6);
  props.SetDouble(kPlannerPruneFactorKey, 2.5);
  PlannerOptions opts = PlannerOptions::FromProperties(props).value();
  EXPECT_EQ(opts.max_dp_relations, 6);
  EXPECT_DOUBLE_EQ(opts.prune_factor, 2.5);

  props.SetInt(kPlannerMaxDpRelationsKey, 0);
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
  props.SetInt(kPlannerMaxDpRelationsKey, 17);
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
  props.SetInt(kPlannerMaxDpRelationsKey, 6);
  props.SetDouble(kPlannerPruneFactorKey, 0.5);  // (0, 1) is nonsense
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Exhaustive oracle ------------------------------------------------------
//
// Independently enumerates EVERY plan in the search space the API defines —
// all bushy join trees whose every join has a cross predicate and connected
// inputs, crossed with all placements {master, left site, right site} per
// join — and checks the DP's chosen plan is the global minimum. The oracle
// never minimizes per (subset, site) the way the DP table does, so it
// exercises the admissibility of that collapse.

class Oracle {
 public:
  using CostFn = std::function<Result<core::HybridEstimate>(
      const std::string&, const rel::SqlOperator&)>;
  using XferFn = std::function<double(const std::string&, const std::string&,
                                      int64_t, int64_t)>;

  Oracle(const QuerySpec& spec, std::vector<rel::TableDef> tables,
         std::string master, CostFn cost, XferFn xfer)
      : spec_(spec),
        tables_(std::move(tables)),
        master_(std::move(master)),
        cost_(std::move(cost)),
        xfer_(std::move(xfer)) {
    const bool bare_scan = spec_.relations.size() == 1 &&
                           spec_.joins.empty() &&
                           !spec_.aggregate.has_value();
    for (size_t i = 0; i < spec_.relations.size(); ++i) {
      const QuerySpec::Relation& r = spec_.relations[i];
      const rel::TableDef& def = tables_[i];
      Rel rel;
      rel.location = def.location;
      rel.base_rows = def.stats.num_rows;
      rel.proj = r.projected_bytes >= 0 ? r.projected_bytes
                                        : def.stats.row_bytes;
      rel.scanned = bare_scan || r.filter_selectivity < 1.0;
      rel.rows = rel.scanned
                     ? static_cast<int64_t>(std::llround(
                           r.filter_selectivity *
                           static_cast<double>(rel.base_rows)))
                     : rel.base_rows;
      rel.width = rel.scanned ? rel.proj : def.stats.row_bytes;
      rel.stats = def.stats;
      rels_.push_back(std::move(rel));
    }
  }

  /// The cheapest end-to-end total over the whole plan space.
  double MinTotal() {
    const uint64_t full = (uint64_t{1} << rels_.size()) - 1;
    double best = std::numeric_limits<double>::infinity();
    for (const auto& [site, cost] : Enumerate(full)) {
      if (!spec_.aggregate.has_value()) {
        double total = cost;
        if (spec_.result_to_master && site != master_) {
          MS stats = StatsOf(full);
          total += xfer_(site, master_, stats.rows, stats.width);
        }
        best = std::min(best, total);
        continue;
      }
      const QuerySpec::Aggregate& agg = *spec_.aggregate;
      MS in = StatsOf(full);
      const Rel& owner = rels_[static_cast<size_t>(agg.relation)];
      int64_t d = owner.stats.DistinctOr(agg.group_column, in.rows);
      if (d <= 0) d = in.rows;
      if (owner.scanned) d = std::min(d, owner.rows);
      const int64_t raw = std::min(in.rows, d);
      const int64_t groups =
          spec_.joins.empty() ? raw : std::max<int64_t>(1, raw);
      rel::AggQuery q;
      q.input = {in.rows, in.width};
      q.output_rows = groups;
      q.output_row_bytes = kGroupKeyBytes +
                           kAggregateValueBytes * agg.num_aggregates;
      q.num_aggregates = agg.num_aggregates;
      rel::SqlOperator op = rel::SqlOperator::MakeAgg(q);
      const std::set<std::string> hosts = {site, master_};
      for (const std::string& host : hosts) {
        auto est = cost_(host, op);
        if (!est.ok()) {
          EXPECT_TRUE(est.status().code() == StatusCode::kUnsupported ||
                      est.status().code() == StatusCode::kFailedPrecondition)
              << est.status().message();
          continue;
        }
        double total = cost;
        if (host != site) total += xfer_(site, host, in.rows, in.width);
        total += est.value().seconds;
        if (spec_.result_to_master && host != master_) {
          total += xfer_(host, master_, groups, q.output_row_bytes);
        }
        best = std::min(best, total);
      }
    }
    return best;
  }

 private:
  struct Rel {
    std::string location;
    int64_t base_rows = 0;
    int64_t rows = 0;
    int64_t width = 0;
    int64_t proj = 0;
    bool scanned = false;
    rel::TableStats stats;
  };
  struct MS {
    int64_t rows = 0;
    int64_t width = 0;
    int64_t proj = 0;
  };

  bool Connected(uint64_t mask) const {
    if (mask == 0) return false;
    uint64_t reach = mask & (~mask + 1);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const QuerySpec::JoinPredicate& p : spec_.joins) {
        const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
        const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
        if (!(l & mask) || !(r & mask)) continue;
        uint64_t joined = 0;
        if (reach & l) joined |= r;
        if (reach & r) joined |= l;
        if (joined & ~reach) {
          reach |= joined;
          grew = true;
        }
      }
    }
    return reach == mask;
  }

  bool HasCross(uint64_t a, uint64_t b) const {
    for (const QuerySpec::JoinPredicate& p : spec_.joins) {
      const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
      const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
      if (((l & a) && (r & b)) || ((l & b) && (r & a))) return true;
    }
    return false;
  }

  int64_t EndpointDistinct(int relation, const std::string& column) const {
    const Rel& rel = rels_[static_cast<size_t>(relation)];
    int64_t d = rel.stats.DistinctOr(column, rel.base_rows);
    if (d <= 0) d = rel.base_rows;
    if (rel.scanned) d = std::min(d, rel.rows);
    return d;
  }

  MS StatsOf(uint64_t mask) const {
    if ((mask & (mask - 1)) == 0) {
      int i = 0;
      while (!((mask >> i) & 1u)) ++i;
      const Rel& rel = rels_[static_cast<size_t>(i)];
      return {rel.rows, rel.width, rel.proj};
    }
    double acc = 1.0;
    int64_t width = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (!((mask >> i) & 1u)) continue;
      acc *= static_cast<double>(rels_[i].rows);
      width += rels_[i].proj;
    }
    for (const QuerySpec::JoinPredicate& p : spec_.joins) {
      const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
      const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
      if (!(l & mask) || !(r & mask)) continue;
      const double denom = static_cast<double>(
          std::max(EndpointDistinct(p.left, p.column),
                   EndpointDistinct(p.right, p.column)));
      acc = acc / denom * p.extra_selectivity;
    }
    if (acc > 9.0e18) acc = 9.0e18;
    return {std::max<int64_t>(1, static_cast<int64_t>(std::llround(acc))),
            width, width};
  }

  /// Every (site, cumulative cost) a complete subtree over `mask` can have.
  std::vector<std::pair<std::string, double>> Enumerate(uint64_t mask) {
    std::vector<std::pair<std::string, double>> out;
    if ((mask & (mask - 1)) == 0) {
      int i = 0;
      while (!((mask >> i) & 1u)) ++i;
      const Rel& rel = rels_[static_cast<size_t>(i)];
      if (!rel.scanned) {
        out.emplace_back(rel.location, 0.0);
        return out;
      }
      rel::ScanQuery q;
      q.input = {rel.base_rows,
                 tables_[static_cast<size_t>(i)].stats.row_bytes};
      q.selectivity = spec_.relations[static_cast<size_t>(i)]
                          .filter_selectivity;
      q.projected_bytes = rel.proj;
      q.output_rows = rel.rows;
      rel::SqlOperator op = rel::SqlOperator::MakeScan(q);
      const std::set<std::string> hosts = {master_, rel.location};
      for (const std::string& host : hosts) {
        auto est = cost_(host, op);
        if (!est.ok()) continue;
        double transfer = host == rel.location
                              ? 0.0
                              : xfer_(rel.location, host, rel.rows, rel.proj);
        out.emplace_back(host, transfer + est.value().seconds);
      }
      return out;
    }

    const uint64_t low = mask & (~mask + 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;
      const uint64_t rest = mask ^ sub;
      if (!Connected(sub) || !Connected(rest) || !HasCross(sub, rest)) {
        continue;
      }
      MS ss = StatsOf(sub), rs = StatsOf(rest);
      uint64_t left_mask = sub, right_mask = rest;
      MS ls = ss, rstats = rs;
      if (ls.rows < rstats.rows) {
        std::swap(left_mask, right_mask);
        std::swap(ls, rstats);
      }
      MS outs = StatsOf(mask);
      rel::JoinQuery q;
      q.left = {ls.rows, ls.width};
      q.right = {rstats.rows, rstats.width};
      q.left_projected_bytes = ls.proj;
      q.right_projected_bytes = rstats.proj;
      q.output_rows = outs.rows;
      const double bound = static_cast<double>(ls.rows) *
                           static_cast<double>(rstats.rows);
      if (static_cast<double>(q.output_rows) > bound) {
        q.output_rows = static_cast<int64_t>(std::min(bound, 9.0e18));
      }
      rel::SqlOperator op = rel::SqlOperator::MakeJoin(q);

      const auto left_alts = Enumerate(left_mask);
      const auto right_alts = Enumerate(right_mask);
      for (const auto& [lsite, lcost] : left_alts) {
        for (const auto& [rsite, rcost] : right_alts) {
          const std::set<std::string> hosts = {master_, lsite, rsite};
          for (const std::string& host : hosts) {
            auto est = cost_(host, op);
            if (!est.ok()) {
              EXPECT_TRUE(est.status().code() == StatusCode::kUnsupported ||
                          est.status().code() == StatusCode::kFailedPrecondition)
                  << est.status().message();
              continue;
            }
            double tl = lsite == host ? 0.0
                                      : xfer_(lsite, host, ls.rows, ls.width);
            double tr = rsite == host
                            ? 0.0
                            : xfer_(rsite, host, rstats.rows, rstats.width);
            out.emplace_back(host,
                             lcost + rcost + tl + tr + est.value().seconds);
          }
        }
      }
    }
    return out;
  }

  QuerySpec spec_;
  std::vector<rel::TableDef> tables_;
  std::string master_;
  CostFn cost_;
  XferFn xfer_;
  std::vector<Rel> rels_;
};

// --- DP vs oracle on synthetic hooks ---------------------------------------

constexpr char kMaster[] = "td";

double SynthSpeed(const std::string& system) {
  if (system == kMaster) return 1.0;
  if (system == "alpha") return 0.45;
  return 0.8;  // "beta"
}

Result<core::HybridEstimate> SynthCostOne(const std::string& system,
                                          const rel::SqlOperator& op) {
  // "beta" cannot aggregate: exercises placement elimination inside the DP.
  if (system == "beta" && op.type == rel::OperatorType::kAggregation) {
    return Status::Unsupported("beta cannot aggregate");
  }
  double work = 0.0;
  switch (op.type) {
    case rel::OperatorType::kScan:
      work = 1.2 * static_cast<double>(op.scan.input.num_rows) +
             static_cast<double>(op.scan.output_rows);
      break;
    case rel::OperatorType::kJoin:
      work = static_cast<double>(op.join.left.num_rows) +
             3.0 * static_cast<double>(op.join.right.num_rows) +
             0.5 * static_cast<double>(op.join.output_rows);
      break;
    case rel::OperatorType::kAggregation:
      work = static_cast<double>(op.agg.input.num_rows) *
                 (1.0 + 0.2 * op.agg.num_aggregates) +
             static_cast<double>(op.agg.output_rows);
      break;
  }
  core::HybridEstimate est;
  est.seconds = SynthSpeed(system) * work * 1e-7;
  return est;
}

double SynthTransfer(const std::string& /*from*/, const std::string& /*to*/,
                     int64_t rows, int64_t row_bytes) {
  return 0.04 + 1.5e-9 * static_cast<double>(rows) *
                    static_cast<double>(row_bytes);
}

PlanSearchInput SynthInput(const QuerySpec& spec,
                           const std::vector<rel::TableDef>& tables) {
  PlanSearchInput input;
  input.spec = &spec;
  input.tables = tables;
  input.master = kMaster;
  input.cost = [](const std::vector<PlanCostRequest>& requests,
                  const core::EstimateContext&) {
    std::vector<Result<core::HybridEstimate>> results;
    results.reserve(requests.size());
    for (const PlanCostRequest& r : requests) {
      results.push_back(SynthCostOne(r.system, r.op));
    }
    return results;
  };
  input.transfer = [](const std::string& from, const std::string& to,
                      int64_t rows, int64_t bytes) -> Result<double> {
    return SynthTransfer(from, to, rows, bytes);
  };
  return input;
}

/// A context asking for provenance: dropped subplans are recorded only then.
core::EstimateContext ProvenanceContext() {
  core::EstimateContext ctx;
  ctx.detail = core::EstimateDetail::kProvenance;
  return ctx;
}

std::vector<rel::TableDef> SynthTables() {
  auto a = rel::SyntheticTableDef(5000000, 200).value();
  a.location = "alpha";
  auto b = rel::SyntheticTableDef(1000000, 120).value();
  b.location = "beta";
  auto c = rel::SyntheticTableDef(300000, 80).value();
  c.location = "alpha";
  auto d = rel::SyntheticTableDef(50000, 60).value();
  d.location = kMaster;
  return {a, b, c, d};
}

QuerySpec ChainSpec(const std::vector<rel::TableDef>& tables) {
  QuerySpec spec;
  for (const auto& t : tables) {
    spec.relations.push_back({t.name, 1.0, 32});
  }
  spec.joins = {{0, 1, "a1", 0.5}, {1, 2, "a10", 1.0}, {2, 3, "a5", 1.0}};
  return spec;
}

void ExpectOracleOptimal(const QuerySpec& spec,
                         const std::vector<rel::TableDef>& tables) {
  QueryPlan plan =
      SearchPlan(SynthInput(spec, tables), PlannerOptions{}, {}).value();
  Oracle oracle(
      spec, tables, kMaster,
      [](const std::string& s, const rel::SqlOperator& op) {
        return SynthCostOne(s, op);
      },
      SynthTransfer);
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
  // Candidates come back cheapest-first.
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  EXPECT_GT(plan.candidates_costed, 0);
  EXPECT_GT(plan.dp_entries, 0);
  // The chosen root covers every relation exactly once.
  EXPECT_EQ(plan.root().value()->relation_mask,
            (uint64_t{1} << spec.relations.size()) - 1);
}

TEST(PlanSearchOracleTest, FourRelationChainIsOptimal) {
  auto tables = SynthTables();
  ExpectOracleOptimal(ChainSpec(tables), tables);
}

TEST(PlanSearchOracleTest, FourRelationStarIsOptimal) {
  auto tables = SynthTables();
  QuerySpec spec;
  for (const auto& t : tables) spec.relations.push_back({t.name, 1.0, 24});
  // Relation 1 is the hub.
  spec.joins = {{1, 0, "a1", 1.0}, {1, 2, "a10", 0.25}, {1, 3, "a2", 1.0}};
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchOracleTest, FiltersAggregateAndResultTransferAreOptimal) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.relations[0].filter_selectivity = 0.2;  // plans an explicit scan
  spec.relations[2].filter_selectivity = 0.6;
  spec.aggregate = QuerySpec::Aggregate{1, "a100", 2};
  spec.result_to_master = true;
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchOracleTest, ThreeRelationCycleIsOptimal) {
  auto tables = SynthTables();
  tables.pop_back();
  QuerySpec spec;
  for (const auto& t : tables) spec.relations.push_back({t.name, 1.0, 16});
  spec.joins = {{0, 1, "a1", 1.0}, {1, 2, "a10", 1.0}, {0, 2, "a5", 0.5}};
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchTest, EliminatedAggregationHostIsRecorded) {
  std::vector<rel::TableDef> tables = {SynthTables()[1]};  // lives on "beta"
  QuerySpec spec;
  spec.relations = {{tables[0].name, 1.0, 32}};
  spec.aggregate = QuerySpec::Aggregate{0, "a10", 1};
  QueryPlan plan = SearchPlan(SynthInput(spec, tables), PlannerOptions{},
                              ProvenanceContext())
                       .value();
  // "beta" cannot aggregate, so only the master placement survives and the
  // elimination is kept for EXPLAIN.
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_EQ(plan.root().value()->system, kMaster);
  bool found = false;
  for (const auto& p : plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kEliminated && p.system == "beta") {
      EXPECT_EQ(p.reason, "beta cannot aggregate");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PlanSearchTest, PruneFactorDropsEntriesButKeepsAPlan) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  PlannerOptions exact;
  QueryPlan exact_plan =
      SearchPlan(SynthInput(spec, tables), exact, {}).value();

  // A huge factor prunes nothing and keeps the exact optimum.
  PlannerOptions loose;
  loose.prune_factor = 1e9;
  QueryPlan loose_plan =
      SearchPlan(SynthInput(spec, tables), loose, {}).value();
  EXPECT_DOUBLE_EQ(loose_plan.best().value().total_seconds,
                   exact_plan.best().value().total_seconds);

  // Factor 1 keeps only each subset's cheapest entry between levels.
  PlannerOptions tight;
  tight.prune_factor = 1.0;
  QueryPlan tight_plan =
      SearchPlan(SynthInput(spec, tables), tight, ProvenanceContext())
          .value();
  EXPECT_FALSE(tight_plan.candidates.empty());
  bool saw_pruned = false;
  for (const auto& p : tight_plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kPruned) saw_pruned = true;
  }
  EXPECT_TRUE(saw_pruned);
  EXPECT_LT(tight_plan.dp_entries, exact_plan.dp_entries);
}

// When a later-enumerated candidate wins a (subset, site) entry, the
// dominated record must name the evicted subplan and carry its cost. The
// chain a-b-c enumerates the split {a,b}|{c} before {a}|{b,c}; every
// full-subset record's cost is recomputed here from its description.
TEST(PlanSearchTest, DominatedRecordsDescribeTheLosingSubplan) {
  const std::vector<rel::TableDef> all = SynthTables();
  const std::vector<rel::TableDef> tables = {all[0], all[1], all[2]};
  QuerySpec spec;
  for (const auto& t : tables) spec.relations.push_back({t.name, 1.0, 32});
  spec.joins = {{0, 1, "a1", 1.0}, {1, 2, "a10", 0.1}};
  QueryPlan plan = SearchPlan(SynthInput(spec, tables), PlannerOptions{},
                              ProvenanceContext())
                       .value();

  // Every way a final join can read its inputs: base relations at rest,
  // and each joined pair on each site, costed by planning the pair alone
  // (one split, so its entries are the ones the chain's DP holds).
  std::map<std::string, double> cost_at;  // "{tables}@site" -> cost
  std::map<std::string, int64_t> rows, width;  // "{tables}" -> stats
  for (const auto& t : tables) {
    const std::string label = "{" + t.name + "}";
    cost_at[label + "@" + t.location] = 0.0;
    rows[label] = t.stats.num_rows;
    width[label] = t.stats.row_bytes;
  }
  for (const QuerySpec::JoinPredicate& join : spec.joins) {
    const size_t l = static_cast<size_t>(join.left);
    const size_t r = static_cast<size_t>(join.right);
    QuerySpec pair;
    pair.relations = {spec.relations[l], spec.relations[r]};
    pair.joins = {{0, 1, join.column, join.extra_selectivity}};
    QueryPlan pair_plan = SearchPlan(SynthInput(pair, {tables[l], tables[r]}),
                                     PlannerOptions{}, {})
                              .value();
    const std::string label =
        "{" + tables[l].name + "," + tables[r].name + "}";
    for (const QueryPlanCandidate& c : pair_plan.candidates) {
      const QueryPlanNode& node =
          pair_plan.nodes[static_cast<size_t>(c.root)];
      cost_at[label + "@" + node.system] = node.subtree_seconds;
      rows[label] = node.output_rows;
      width[label] = node.output_row_bytes;
    }
  }

  const uint64_t full = 0b111;
  const int64_t out_rows = plan.root().value()->output_rows;
  int checked = 0;
  for (const PrunedSubplan& p : plan.pruned) {
    if (p.kind != PrunedSubplan::Kind::kDominated || p.relation_mask != full) {
      continue;
    }
    // "join({L}@x, {R}@y) at h"
    const std::string& d = p.description;
    const size_t left_end = d.find('}') + 1;
    const size_t comma = d.find(", ", left_end);
    const size_t right_end = d.find('}', comma) + 1;
    const size_t at = d.find(") at ", right_end);
    ASSERT_EQ(d.rfind("join(", 0), 0u) << d;
    const std::string left = d.substr(5, left_end - 5);
    const std::string left_site = d.substr(left_end + 1, comma - left_end - 1);
    const std::string right = d.substr(comma + 2, right_end - comma - 2);
    const std::string right_site = d.substr(right_end + 1, at - right_end - 1);
    const std::string host = d.substr(at + 5);
    EXPECT_EQ(host, p.system);

    rel::JoinQuery q;
    q.left.num_rows = rows.at(left);
    q.right.num_rows = rows.at(right);
    q.output_rows = out_rows;
    double cost = cost_at.at(left + "@" + left_site) +
                  cost_at.at(right + "@" + right_site);
    if (left_site != host) {
      cost += SynthTransfer(left_site, host, rows.at(left), width.at(left));
    }
    if (right_site != host) {
      cost += SynthTransfer(right_site, host, rows.at(right), width.at(right));
    }
    cost += SynthCostOne(host, rel::SqlOperator::MakeJoin(q)).value().seconds;
    EXPECT_DOUBLE_EQ(p.subtree_seconds, cost) << d;
    ++checked;
  }
  EXPECT_GT(checked, 0);

  // The scenario under test: some site's winner comes from the split
  // enumerated second, {a}|{b,c}, so it evicted an earlier entry.
  bool later_split_won = false;
  for (const QueryPlanCandidate& c : plan.candidates) {
    const QueryPlanNode& root = plan.nodes[static_cast<size_t>(c.root)];
    for (int child : root.children) {
      later_split_won |=
          plan.nodes[static_cast<size_t>(child)].relation_mask == 0b110;
    }
  }
  EXPECT_TRUE(later_split_won);
}

TEST(PlanSearchTest, OptionRangesAreChecked) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  PlannerOptions bad;
  bad.max_dp_relations = 0;
  EXPECT_EQ(SearchPlan(SynthInput(spec, tables), bad, {}).status().code(),
            StatusCode::kInvalidArgument);
  bad.max_dp_relations = 2;
  Status s = SearchPlan(SynthInput(spec, tables), bad, {}).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "query spec exceeds planner.max_dp_relations");
  PlannerOptions bad_prune;
  bad_prune.prune_factor = 0.25;
  EXPECT_EQ(SearchPlan(SynthInput(spec, tables), bad_prune, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanSearchTest, ExplainRendersTreeAndJson) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  spec.result_to_master = true;
  QueryPlan plan = SearchPlan(SynthInput(spec, tables), PlannerOptions{},
                              ProvenanceContext())
                       .value();
  PlacementExplanation ex = ExplainQueryPlan(plan);
  EXPECT_NE(ex.tree.find("query plan:"), std::string::npos);
  EXPECT_NE(ex.tree.find("chosen: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("aggregate@"), std::string::npos);
  EXPECT_NE(ex.tree.find("dominated"), std::string::npos);
  EXPECT_NE(ex.json.find("\"query_plan\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"tree\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"pruned\""), std::string::npos);
}

// --- PlanQuery on the real facade ------------------------------------------

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& e) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = e.cluster().config().dfs_block_bytes;
  info.total_slots = e.cluster().config().TotalSlots();
  info.num_worker_nodes = e.cluster().config().num_worker_nodes;
  info.task_memory_bytes = e.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes = 0.02 * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

class PlanQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 91);
    auto* hive_raw = hive.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(hive),
                                          ProfileFor(hive_raw),
                                          ConnectorParams{})
                    .ok());
    auto spark = remote::SparkEngine::CreateDefault("spark", 92);
    auto* spark_raw = spark.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(spark),
                                          ProfileFor(spark_raw),
                                          ConnectorParams{})
                    .ok());
    auto a = rel::SyntheticTableDef(8000000, 250).value();
    a.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(a).ok());
    auto b = rel::SyntheticTableDef(2000000, 100).value();
    b.location = "spark";
    ASSERT_TRUE(sphere_.RegisterTable(b).ok());
    auto c = rel::SyntheticTableDef(500000, 40).value();
    c.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(c).ok());
    auto d = rel::SyntheticTableDef(100000, 100).value();
    d.location = kTeradataSystemName;
    ASSERT_TRUE(sphere_.RegisterTable(d).ok());
  }

  QuerySpec FourRelationSpec() const {
    QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32},
                      {"T2000000_100", 1.0, 24},
                      {"T500000_40", 1.0, 16},
                      {"T100000_100", 1.0, 8}};
    spec.joins = {{0, 1, "a1", 0.5}, {1, 2, "a10", 1.0}, {2, 3, "a5", 1.0}};
    return spec;
  }

  std::vector<rel::TableDef> ResolvedTables(const QuerySpec& spec) const {
    std::vector<rel::TableDef> tables;
    for (const auto& r : spec.relations) {
      tables.push_back(sphere_.GetTable(r.table).value());
    }
    return tables;
  }

  Oracle::CostFn FacadeCost() const {
    return [this](const std::string& system,
                  const rel::SqlOperator& op) -> Result<core::HybridEstimate> {
      if (system == kTeradataSystemName) {
        core::HybridEstimate est;
        auto seconds = sphere_.local_model().EstimateSeconds(op);
        if (!seconds.ok()) return seconds.status();
        est.seconds = seconds.value();
        return est;
      }
      core::EstimateContext pctx;
      pctx.detail = core::EstimateDetail::kProvenance;
      return sphere_.cost_estimator().Estimate(system, op, pctx);
    };
  }

  Oracle::XferFn FacadeTransfer() {
    return [this](const std::string& from, const std::string& to,
                  int64_t rows, int64_t bytes) {
      return sphere_.query_grid().RelaySeconds(from, to, rows, bytes).value();
    };
  }

  IntelliSphere sphere_;
};

TEST_F(PlanQueryTest, FourRelationSpecPicksOracleOptimalPlan) {
  QuerySpec spec = FourRelationSpec();
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  Oracle oracle(spec, ResolvedTables(spec), kTeradataSystemName, FacadeCost(),
                FacadeTransfer());
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
  EXPECT_GE(plan.candidates.size(), 2u);
}

TEST_F(PlanQueryTest, FourRelationAggregateSpecPicksOracleOptimalPlan) {
  QuerySpec spec = FourRelationSpec();
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 2};
  spec.result_to_master = true;
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  Oracle oracle(spec, ResolvedTables(spec), kTeradataSystemName, FacadeCost(),
                FacadeTransfer());
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
}

TEST_F(PlanQueryTest, UnknownTableIsNotFound) {
  QuerySpec spec = FourRelationSpec();
  spec.relations[2].table = "no_such_table";
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kNotFound);
}

TEST_F(PlanQueryTest, BadSpecIsInvalidArgumentNotUB) {
  QuerySpec spec = FourRelationSpec();
  spec.joins[1].right = 40;  // out of range
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kInvalidArgument);
  spec = FourRelationSpec();
  spec.joins.pop_back();  // disconnects relation 3
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanQueryTest, ServingCacheMakesSecondPlanBitIdentical) {
  serving::EstimationService service(&sphere_.cost_estimator());
  ASSERT_TRUE(sphere_.AttachEstimationService(&service).ok());
  QuerySpec spec = FourRelationSpec();
  QueryPlan cold = sphere_.PlanQuery(spec).value();
  QueryPlan warm = sphere_.PlanQuery(spec).value();
  // All remote DP costing flows through EstimateBatch: the second search
  // hits the cache and must reproduce the cold totals bit for bit.
  EXPECT_GT(service.cache_stats().hits, 0);
  ASSERT_EQ(cold.candidates.size(), warm.candidates.size());
  for (size_t i = 0; i < cold.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold.candidates[i].total_seconds,
                     warm.candidates[i].total_seconds);
  }
  // And cached planning matches uncached planning exactly.
  ASSERT_TRUE(sphere_.AttachEstimationService(nullptr).ok());
  QueryPlan uncached = sphere_.PlanQuery(spec).value();
  EXPECT_DOUBLE_EQ(uncached.best().value().total_seconds,
                   cold.best().value().total_seconds);
}

// --- Cost-only vs provenance ------------------------------------------------
//
// A default context plans cost-only: estimates carry no provenance, dropped
// subplans are not recorded and nodes are built only for the returned trees.
// Over seeded specs, both modes must agree on everything else.

/// A seeded spec over `tables`: 1-6 relations joined as a chain, star or
/// cycle, with random filters, projections and join columns, and the
/// aggregate and the result relay each on or off.
QuerySpec RandomSpec(Rng* rng, const std::vector<rel::TableDef>& tables) {
  static const char* const kColumns[] = {"a1", "a2", "a5", "a10"};
  static const double kFilters[] = {1.0, 1.0, 0.5, 0.2, 0.05};
  static const int64_t kWidths[] = {8, 16, 32};
  auto pick = [rng](size_t size) {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  QuerySpec spec;
  const int n = static_cast<int>(rng->UniformInt(1, 6));
  for (int i = 0; i < n; ++i) {
    spec.relations.push_back({tables[pick(tables.size())].name,
                              kFilters[pick(5)], kWidths[pick(3)]});
  }
  const size_t shape = pick(3);  // chain, star, cycle
  auto join = [&](int left, int right) {
    spec.joins.push_back(
        {left, right, kColumns[pick(4)], pick(2) == 0 ? 1.0 : 0.5});
  };
  for (int i = 1; i < n; ++i) {
    if (shape == 1) {
      join(0, i);
    } else {
      join(i - 1, i);
    }
  }
  if (shape == 2 && n >= 3) join(n - 1, 0);
  if (pick(2) == 1) {
    spec.aggregate = QuerySpec::Aggregate{static_cast<int>(pick(n)), "a100",
                                          static_cast<int>(pick(3)) + 1};
  }
  spec.result_to_master = pick(2) == 1;
  return spec;
}

void ExpectSameOperator(const rel::SqlOperator& a, const rel::SqlOperator& b) {
  ASSERT_EQ(a.type, b.type);
  switch (a.type) {
    case rel::OperatorType::kJoin:
      EXPECT_EQ(a.join.left.num_rows, b.join.left.num_rows);
      EXPECT_EQ(a.join.left.row_bytes, b.join.left.row_bytes);
      EXPECT_EQ(a.join.right.num_rows, b.join.right.num_rows);
      EXPECT_EQ(a.join.right.row_bytes, b.join.right.row_bytes);
      EXPECT_EQ(a.join.left_projected_bytes, b.join.left_projected_bytes);
      EXPECT_EQ(a.join.right_projected_bytes, b.join.right_projected_bytes);
      EXPECT_EQ(a.join.output_rows, b.join.output_rows);
      break;
    case rel::OperatorType::kAggregation:
      EXPECT_EQ(a.agg.input.num_rows, b.agg.input.num_rows);
      EXPECT_EQ(a.agg.input.row_bytes, b.agg.input.row_bytes);
      EXPECT_EQ(a.agg.output_rows, b.agg.output_rows);
      EXPECT_EQ(a.agg.output_row_bytes, b.agg.output_row_bytes);
      EXPECT_EQ(a.agg.num_aggregates, b.agg.num_aggregates);
      break;
    case rel::OperatorType::kScan:
      EXPECT_EQ(a.scan.input.num_rows, b.scan.input.num_rows);
      EXPECT_EQ(a.scan.input.row_bytes, b.scan.input.row_bytes);
      EXPECT_EQ(a.scan.selectivity, b.scan.selectivity);
      EXPECT_EQ(a.scan.projected_bytes, b.scan.projected_bytes);
      EXPECT_EQ(a.scan.output_rows, b.scan.output_rows);
      break;
  }
}

void ExpectSameTree(const QueryPlan& a, int a_index, const QueryPlan& b,
                    int b_index) {
  const QueryPlanNode& x = a.nodes[static_cast<size_t>(a_index)];
  const QueryPlanNode& y = b.nodes[static_cast<size_t>(b_index)];
  EXPECT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.system, y.system);
  EXPECT_EQ(x.relation_mask, y.relation_mask);
  EXPECT_EQ(x.output_rows, y.output_rows);
  EXPECT_EQ(x.output_row_bytes, y.output_row_bytes);
  EXPECT_EQ(x.transfer_seconds, y.transfer_seconds);
  EXPECT_EQ(x.operator_seconds, y.operator_seconds);
  EXPECT_EQ(x.subtree_seconds, y.subtree_seconds);
  ExpectSameOperator(x.op, y.op);
  ASSERT_EQ(x.children.size(), y.children.size());
  for (size_t i = 0; i < x.children.size(); ++i) {
    ExpectSameTree(a, x.children[i], b, y.children[i]);
  }
}

void ExpectCostOnlyMatchesProvenance(const Result<QueryPlan>& cost_only,
                                     const Result<QueryPlan>& provenance) {
  ASSERT_EQ(cost_only.ok(), provenance.ok());
  if (!cost_only.ok()) {
    EXPECT_EQ(cost_only.status().code(), provenance.status().code());
    return;
  }
  const QueryPlan& a = cost_only.value();
  const QueryPlan& b = provenance.value();
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.nodes[static_cast<size_t>(a.candidates[i].root)].system,
              b.nodes[static_cast<size_t>(b.candidates[i].root)].system);
    EXPECT_EQ(a.candidates[i].result_transfer_seconds,
              b.candidates[i].result_transfer_seconds);
    EXPECT_EQ(a.candidates[i].total_seconds, b.candidates[i].total_seconds);
  }
  ExpectSameTree(a, a.candidates.front().root, b, b.candidates.front().root);
  EXPECT_EQ(a.candidates_costed, b.candidates_costed);
  EXPECT_EQ(a.dp_entries, b.dp_entries);

  EXPECT_TRUE(a.pruned.empty());
  std::vector<bool> reached(a.nodes.size(), false);
  std::vector<int> stack;
  for (const QueryPlanCandidate& c : a.candidates) stack.push_back(c.root);
  while (!stack.empty()) {
    const size_t index = static_cast<size_t>(stack.back());
    stack.pop_back();
    if (reached[index]) continue;
    reached[index] = true;
    for (int child : a.nodes[index].children) stack.push_back(child);
  }
  EXPECT_EQ(std::count(reached.begin(), reached.end(), false), 0);
}

/// Wraps `input`'s costing hook to count the requests that repeat an
/// earlier request of their batch: the same system and an equal operator
/// (equal canonical cache keys, which cover every estimate-relevant field).
void CountRepeatedRequests(PlanSearchInput* input, int* repeats) {
  input->cost = [inner = std::move(input->cost), repeats](
                    const std::vector<PlanCostRequest>& requests,
                    const core::EstimateContext& ctx) {
    std::set<std::string> seen;
    for (const PlanCostRequest& r : requests) {
      if (!seen.insert(serving::CanonicalCacheKey(r.system, r.op,
                                                  std::nullopt, false, false,
                                                  0))
               .second) {
        ++*repeats;
      }
    }
    return inner(requests, ctx);
  };
}

TEST(PlanSearchDifferentialTest, CostOnlyMatchesProvenanceOnSyntheticSpecs) {
  const std::vector<rel::TableDef> tables = SynthTables();
  Rng rng(1207);
  for (int i = 0; i < 120; ++i) {
    const QuerySpec spec = RandomSpec(&rng, tables);
    std::vector<rel::TableDef> resolved;
    for (const QuerySpec::Relation& r : spec.relations) {
      for (const rel::TableDef& t : tables) {
        if (t.name == r.table) resolved.push_back(t);
      }
    }
    for (double prune_factor : {0.0, 1.5}) {
      SCOPED_TRACE("spec " + std::to_string(i) +
                   " prune_factor " + std::to_string(prune_factor));
      PlannerOptions options;
      options.prune_factor = prune_factor;
      // Placements of one operator on one host share a request, so no
      // batch asks twice for the same (system, operator).
      int repeats = 0;
      PlanSearchInput cost_only = SynthInput(spec, resolved);
      PlanSearchInput provenance = SynthInput(spec, resolved);
      CountRepeatedRequests(&cost_only, &repeats);
      CountRepeatedRequests(&provenance, &repeats);
      ExpectCostOnlyMatchesProvenance(
          SearchPlan(cost_only, options, {}),
          SearchPlan(provenance, options, ProvenanceContext()));
      EXPECT_EQ(repeats, 0);
    }
  }
}

// --- Generated specs vs the exhaustive oracle -------------------------------
//
// With prune_factor = 0 the search must find the oracle's minimum on
// generated 4-6 relation specs over three and four sites, and it must ask
// the transfer hook each question at most once: the cost of moving a
// relation subset between two sites is memoized for the whole search,
// whichever split or stage asks. Every ordered pair of sites has its own
// latency and byte rate, so a memo that confused two links (for instance
// one keyed without the destination) returns the wrong cost and misses the
// oracle's minimum, while a memo that forgot answers between splits asks a
// question twice.

constexpr const char* kGeneratedSites[] = {kMaster, "alpha", "beta", "gamma"};

/// Seconds to move rows x bytes from `from` to `to`: a latency and a byte
/// rate distinct per ordered site pair.
double LinkTransfer(const std::string& from, const std::string& to,
                    int64_t rows, int64_t bytes) {
  const auto index = [](const std::string& site) {
    int i = 0;
    while (site != kGeneratedSites[i]) ++i;
    return i;
  };
  const int link = index(from) + 4 * index(to);
  return 0.01 * (1 + link % 7) +
         1e-9 * (1 + link % 5) * static_cast<double>(rows) *
             static_cast<double>(bytes);
}

struct GeneratedCase {
  QuerySpec spec;
  std::vector<rel::TableDef> tables;  ///< aligned with spec.relations
};

/// A seeded spec of 4-6 relations on tables spread over 3 or 4 sites,
/// joined as a chain, star or cycle, with random filters, projections,
/// join columns and extra predicates, and the aggregate and the result
/// relay each on or off.
GeneratedCase GeneratedSpec(Rng* rng) {
  static const char* const kColumns[] = {"a1", "a2", "a5", "a10"};
  static const char* const kGroupColumns[] = {"a20", "a50", "a100"};
  static const double kFilters[] = {1.0, 1.0, 0.6, 0.2, 0.05};
  static const int64_t kRowBytes[] = {40, 70, 100, 250, 500, 1000};
  const auto pick = [rng](size_t size) {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  GeneratedCase out;
  const size_t sites = 3 + pick(2);
  const int n = 4 + static_cast<int>(pick(3));
  for (int i = 0; i < n; ++i) {
    rel::TableDef def =
        rel::SyntheticTableDef(rng->UniformInt(2, 2000) * 1000,
                               kRowBytes[pick(6)])
            .value();
    def.location = kGeneratedSites[pick(sites)];
    out.spec.relations.push_back(
        {def.name, kFilters[pick(5)], rng->UniformInt(8, 40)});
    out.tables.push_back(std::move(def));
  }
  const size_t shape = pick(3);  // chain, star, cycle
  const auto join = [&](int left, int right) {
    out.spec.joins.push_back(
        {left, right, kColumns[pick(4)], pick(2) == 0 ? 1.0 : 0.5});
  };
  for (int i = 1; i < n; ++i) {
    if (shape == 1) {
      join(0, i);
    } else {
      join(i - 1, i);
    }
  }
  if (shape == 2) join(n - 1, 0);
  if (pick(2) == 1) {
    out.spec.aggregate =
        QuerySpec::Aggregate{static_cast<int>(pick(static_cast<size_t>(n))),
                             kGroupColumns[pick(3)],
                             static_cast<int>(pick(3)) + 1};
  }
  out.spec.result_to_master = pick(2) == 1;
  return out;
}

TEST(PlanSearchOracleTest, GeneratedSpecsAreOptimalAndAskEachTransferOnce) {
  Rng rng(2207);
  std::set<size_t> shapes;
  int aggregates = 0;
  int four_sites = 0;
  for (int i = 0; i < 60; ++i) {
    const GeneratedCase c = GeneratedSpec(&rng);
    SCOPED_TRACE("generated spec " + std::to_string(i));
    PlanSearchInput input = SynthInput(c.spec, c.tables);
    std::map<std::tuple<std::string, std::string, int64_t, int64_t>, int>
        asked;
    input.transfer = [&asked](const std::string& from, const std::string& to,
                              int64_t rows, int64_t bytes) -> Result<double> {
      const int times = ++asked[std::make_tuple(from, to, rows, bytes)];
      EXPECT_EQ(times, 1)
          << "asked twice: " << from << " -> " << to << ", " << rows
          << " rows x " << bytes << " bytes";
      return LinkTransfer(from, to, rows, bytes);
    };
    const Result<QueryPlan> plan = SearchPlan(input, PlannerOptions{}, {});
    ASSERT_TRUE(plan.ok()) << plan.status();
    Oracle oracle(
        c.spec, c.tables, kMaster,
        [](const std::string& system, const rel::SqlOperator& op) {
          return SynthCostOne(system, op);
        },
        LinkTransfer);
    EXPECT_DOUBLE_EQ(plan.value().best().value().total_seconds,
                     oracle.MinTotal());
    std::set<std::string> locations;
    for (const rel::TableDef& t : c.tables) locations.insert(t.location);
    locations.insert(kMaster);
    four_sites += locations.size() == 4;
    aggregates += c.spec.aggregate.has_value();
    shapes.insert(c.spec.joins.size() == c.spec.relations.size()
                      ? 2
                      : (c.spec.joins.back().left == 0 ? 1 : 0));
  }
  // The seed covers what the generator promises.
  EXPECT_EQ(shapes.size(), 3u);
  EXPECT_GT(aggregates, 10);
  EXPECT_GT(four_sites, 10);
}

TEST(PlanSearchTest, NonPositiveDistinctCountFailsBeforeAnyCosting) {
  // A filter that keeps no rows leaves its join columns no distinct
  // values. The search resolves every predicate's distinct counts before
  // it costs anything, so the error returns before the cost hook runs.
  const std::vector<rel::TableDef> tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.relations[1].filter_selectivity = 0.0;
  PlanSearchInput input = SynthInput(spec, tables);
  int cost_calls = 0;
  input.cost = [&cost_calls](const std::vector<PlanCostRequest>& requests,
                             const core::EstimateContext&) {
    ++cost_calls;
    std::vector<Result<core::HybridEstimate>> results;
    for (const PlanCostRequest& r : requests) {
      results.push_back(SynthCostOne(r.system, r.op));
    }
    return results;
  };
  const Result<QueryPlan> plan = SearchPlan(input, PlannerOptions{}, {});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.status().message(), "non-positive distinct count");
  EXPECT_EQ(cost_calls, 0);
}

TEST(PlanSearchTest, CandidatesSharingARequestCarryTheSameProvenance) {
  // The aggregation on the master is queued once per site the join result
  // can lie on, and all those placements share one costing request: every
  // returned node built from it must carry the whole provenance.
  const std::vector<rel::TableDef> tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  PlanSearchInput input = SynthInput(spec, tables);
  int master_agg_requests = 0;
  input.cost = [&master_agg_requests](
                   const std::vector<PlanCostRequest>& requests,
                   const core::EstimateContext&) {
    std::vector<Result<core::HybridEstimate>> results;
    for (const PlanCostRequest& r : requests) {
      Result<core::HybridEstimate> est = SynthCostOne(r.system, r.op);
      if (r.system == kMaster &&
          r.op.type == rel::OperatorType::kAggregation) {
        ++master_agg_requests;
      }
      if (est.ok()) {
        core::HybridEstimate& e = est.value();
        e.algorithm = "hash_aggregate_on_" + r.system;
        e.candidates = {{e.algorithm, e.seconds},
                        {"sort_aggregate_on_" + r.system, 2 * e.seconds}};
        e.eliminated = {{"map_side_aggregate_on_" + r.system,
                         "no map-side combiner for this operator"}};
      }
      results.push_back(std::move(est));
    }
    return results;
  };
  QueryPlan plan =
      SearchPlan(input, PlannerOptions{}, ProvenanceContext()).value();
  EXPECT_EQ(master_agg_requests, 1);

  std::vector<const QueryPlanNode*> master_aggs;
  for (const QueryPlanCandidate& c : plan.candidates) {
    const QueryPlanNode& root = plan.nodes[static_cast<size_t>(c.root)];
    if (root.kind == QueryPlanNode::Kind::kAggregate &&
        root.system == kMaster) {
      master_aggs.push_back(&root);
    }
  }
  ASSERT_GE(master_aggs.size(), 2u);
  const QueryPlanNode& first = *master_aggs.front();
  EXPECT_EQ(first.algorithm, "hash_aggregate_on_td");
  ASSERT_EQ(first.algorithm_candidates.size(), 2u);
  ASSERT_EQ(first.eliminated_algorithms.size(), 1u);
  for (const QueryPlanNode* node : master_aggs) {
    EXPECT_EQ(node->algorithm, first.algorithm);
    ASSERT_EQ(node->algorithm_candidates.size(),
              first.algorithm_candidates.size());
    for (size_t i = 0; i < first.algorithm_candidates.size(); ++i) {
      EXPECT_EQ(node->algorithm_candidates[i].algorithm,
                first.algorithm_candidates[i].algorithm);
      EXPECT_EQ(node->algorithm_candidates[i].seconds,
                first.algorithm_candidates[i].seconds);
    }
    ASSERT_EQ(node->eliminated_algorithms.size(), 1u);
    EXPECT_EQ(node->eliminated_algorithms[0].algorithm,
              first.eliminated_algorithms[0].algorithm);
    EXPECT_EQ(node->eliminated_algorithms[0].reason,
              first.eliminated_algorithms[0].reason);
  }
}

TEST_F(PlanQueryTest, CostOnlyMatchesProvenanceThroughTheServingCache) {
  serving::EstimationService service(&sphere_.cost_estimator());
  ASSERT_TRUE(sphere_.AttachEstimationService(&service).ok());
  const std::vector<rel::TableDef> tables =
      ResolvedTables(FourRelationSpec());
  Rng rng(1208);
  for (int i = 0; i < 60; ++i) {
    const QuerySpec spec = RandomSpec(&rng, tables);
    for (double prune_factor : {0.0, 1.5}) {
      SCOPED_TRACE("spec " + std::to_string(i) +
                   " prune_factor " + std::to_string(prune_factor));
      PlannerOptions options;
      options.prune_factor = prune_factor;
      ExpectCostOnlyMatchesProvenance(
          sphere_.PlanQuery(spec, {}, options),
          sphere_.PlanQuery(spec, ProvenanceContext(), options));
    }
  }
  EXPECT_GT(service.cache_stats().hits, 0);
}

// --- Legacy parity: PlanQuery against the pre-redesign planners -----------
//
// Hand-rolled replicas of the single-operator planner loops PlanQuery
// replaced, compared field for field against PlanQuery on the equivalent
// spec under a provenance context: the candidate roots are the replicas'
// options and the eliminated `pruned` records their eliminated hosts.

/// One placement as the legacy planners reported it.
struct LegacyOption {
  std::string system;
  double transfer_seconds = 0.0;
  double operator_seconds = 0.0;
  std::string approach;
  std::string algorithm;
  double total_seconds() const { return transfer_seconds + operator_seconds; }
};

/// A legacy planner's answer: the costed operator, every option cheapest
/// first, and the (host, reason) of every host that could not run it.
struct LegacyPlan {
  rel::SqlOperator op;
  std::vector<LegacyOption> options;
  std::vector<std::pair<std::string, std::string>> eliminated;
};

Result<core::HybridEstimate> LegacyHostEstimate(const IntelliSphere& sphere,
                                                const std::string& host,
                                                const rel::SqlOperator& op) {
  if (host == kTeradataSystemName) {
    core::HybridEstimate est;
    auto seconds = sphere.local_model().EstimateSeconds(op);
    if (!seconds.ok()) return seconds.status();
    est.seconds = seconds.value();
    return est;
  }
  core::EstimateContext pctx;
  pctx.detail = core::EstimateDetail::kProvenance;
  return sphere.cost_estimator().Estimate(host, op, pctx);
}

/// Costs the plan's operator on `host` the way the legacy planners did: an
/// option when the host can run it, an elimination with the estimator's
/// message otherwise.
void AddLegacyOption(const IntelliSphere& sphere, const std::string& host,
                     double transfer_seconds, LegacyPlan* plan) {
  auto est = LegacyHostEstimate(sphere, host, plan->op);
  if (!est.ok()) {
    plan->eliminated.emplace_back(host, est.status().message());
    return;
  }
  LegacyOption option;
  option.system = host;
  option.transfer_seconds = transfer_seconds;
  option.operator_seconds = est.value().seconds;
  option.approach = host == kTeradataSystemName
                        ? "local"
                        : core::CostingApproachName(est.value().approach_used);
  option.algorithm = est.value().algorithm;
  plan->options.push_back(std::move(option));
}

void SortCheapestFirst(LegacyPlan* plan) {
  std::sort(plan->options.begin(), plan->options.end(),
            [](const LegacyOption& a, const LegacyOption& b) {
              return a.total_seconds() < b.total_seconds();
            });
}

/// The legacy join planner's loop.
LegacyPlan LegacyJoinReplica(IntelliSphere& sphere,
                             const std::string& left_table,
                             const std::string& right_table,
                             int64_t left_projected_bytes,
                             int64_t right_projected_bytes,
                             double extra_selectivity) {
  rel::TableDef l = sphere.GetTable(left_table).value();
  rel::TableDef r = sphere.GetTable(right_table).value();
  if (l.stats.num_rows < r.stats.num_rows) {
    std::swap(l, r);
    std::swap(left_projected_bytes, right_projected_bytes);
  }
  int64_t out_rows =
      rel::EstimateJoinCardinality(l, r, "a1", extra_selectivity).value();
  rel::JoinQuery q;
  q.left = {l.stats.num_rows, l.stats.row_bytes};
  q.right = {r.stats.num_rows, r.stats.row_bytes};
  q.left_projected_bytes = left_projected_bytes;
  q.right_projected_bytes = right_projected_bytes;
  q.output_rows = out_rows;

  const std::set<std::string> hosts = {std::string(kTeradataSystemName),
                                       l.location, r.location};
  LegacyPlan plan;
  plan.op = rel::SqlOperator::MakeJoin(q);
  for (const std::string& host : hosts) {
    double transfer_seconds = 0.0;
    if (l.location != host) {
      transfer_seconds += sphere.query_grid()
                              .RelaySeconds(l.location, host,
                                            l.stats.num_rows,
                                            l.stats.row_bytes)
                              .value();
    }
    if (r.location != host) {
      transfer_seconds += sphere.query_grid()
                              .RelaySeconds(r.location, host,
                                            r.stats.num_rows,
                                            r.stats.row_bytes)
                              .value();
    }
    AddLegacyOption(sphere, host, transfer_seconds, &plan);
  }
  SortCheapestFirst(&plan);
  return plan;
}

/// PlanQuery's answer must equal the replica's, bit for bit.
void ExpectMatchesLegacy(const QueryPlan& plan, const LegacyPlan& legacy) {
  ASSERT_EQ(plan.candidates.size(), legacy.options.size());
  for (size_t i = 0; i < legacy.options.size(); ++i) {
    const QueryPlanNode& got =
        plan.nodes[static_cast<size_t>(plan.candidates[i].root)];
    const LegacyOption& want = legacy.options[i];
    EXPECT_EQ(got.system, want.system);
    EXPECT_EQ(got.transfer_seconds, want.transfer_seconds);
    EXPECT_EQ(got.operator_seconds, want.operator_seconds);
    EXPECT_EQ(got.approach, want.approach);
    EXPECT_EQ(got.algorithm, want.algorithm);
  }
  std::vector<std::pair<std::string, std::string>> eliminated;
  for (const PrunedSubplan& p : plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kEliminated) {
      eliminated.emplace_back(p.system, p.reason);
    }
  }
  EXPECT_EQ(eliminated, legacy.eliminated);
}

// The suite is named for the single-operator wrappers over PlanQuery that
// these replicas used to check; its subject is now PlanQuery itself.
class WrapperParityTest : public PlanQueryTest {};

TEST_F(WrapperParityTest, PlanJoinMatchesLegacyReplicaBitForBit) {
  for (double extra : {1.0, 0.5}) {
    LegacyPlan legacy = LegacyJoinReplica(sphere_, "T8000000_250",
                                          "T2000000_100", 32, 24, extra);
    QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 24}};
    spec.joins = {{0, 1, "a1", extra}};
    QueryPlan plan = sphere_.PlanQuery(spec, ProvenanceContext()).value();
    ExpectMatchesLegacy(plan, legacy);
    // Same operator descriptor.
    const rel::SqlOperator& op = plan.root().value()->op;
    EXPECT_EQ(op.type, rel::OperatorType::kJoin);
    EXPECT_EQ(op.join.left.num_rows, legacy.op.join.left.num_rows);
    EXPECT_EQ(op.join.right.num_rows, legacy.op.join.right.num_rows);
    EXPECT_EQ(op.join.output_rows, legacy.op.join.output_rows);
    EXPECT_EQ(op.join.left_projected_bytes,
              legacy.op.join.left_projected_bytes);
    EXPECT_EQ(op.join.right_projected_bytes,
              legacy.op.join.right_projected_bytes);
  }
}

TEST_F(WrapperParityTest, PlanAggMatchesLegacyReplicaBitForBit) {
  rel::TableDef t = sphere_.GetTable("T8000000_250").value();
  int64_t groups = rel::EstimateGroupCardinality(t, "a100").value();
  rel::AggQuery q;
  q.input = {t.stats.num_rows, t.stats.row_bytes};
  q.output_rows = groups;
  q.output_row_bytes = 4 + 8 * 3;
  q.num_aggregates = 3;
  LegacyPlan legacy;
  legacy.op = rel::SqlOperator::MakeAgg(q);

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, kFullRowWidth}};
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 3};
  QueryPlan plan = sphere_.PlanQuery(spec, ProvenanceContext()).value();
  const rel::SqlOperator& op = plan.root().value()->op;
  EXPECT_EQ(op.agg.input.num_rows, legacy.op.agg.input.num_rows);
  EXPECT_EQ(op.agg.output_rows, legacy.op.agg.output_rows);
  EXPECT_EQ(op.agg.output_row_bytes, legacy.op.agg.output_row_bytes);

  const std::set<std::string> hosts = {std::string(kTeradataSystemName),
                                       t.location};
  for (const std::string& host : hosts) {
    double transfer_seconds = 0.0;
    if (t.location != host) {
      transfer_seconds = sphere_.query_grid()
                             .RelaySeconds(t.location, host, t.stats.num_rows,
                                           t.stats.row_bytes)
                             .value();
    }
    AddLegacyOption(sphere_, host, transfer_seconds, &legacy);
  }
  SortCheapestFirst(&legacy);
  ExpectMatchesLegacy(plan, legacy);
}

TEST_F(WrapperParityTest, PlanScanMatchesLegacyReplicaBitForBit) {
  rel::TableDef t = sphere_.GetTable("T2000000_100").value();
  const double selectivity = 0.3;
  const int64_t projected = 48;
  int64_t out_rows =
      rel::EstimateFilterCardinality(t, selectivity).value();
  rel::ScanQuery q;
  q.input = {t.stats.num_rows, t.stats.row_bytes};
  q.selectivity = selectivity;
  q.projected_bytes = projected;
  q.output_rows = out_rows;
  LegacyPlan legacy;
  legacy.op = rel::SqlOperator::MakeScan(q);

  QuerySpec spec;
  spec.relations = {{"T2000000_100", selectivity, projected}};
  QueryPlan plan = sphere_.PlanQuery(spec, ProvenanceContext()).value();
  const rel::SqlOperator& op = plan.root().value()->op;
  EXPECT_EQ(op.scan.output_rows, legacy.op.scan.output_rows);
  EXPECT_DOUBLE_EQ(op.scan.selectivity, legacy.op.scan.selectivity);

  const std::set<std::string> hosts = {std::string(kTeradataSystemName),
                                       t.location};
  for (const std::string& host : hosts) {
    double transfer_seconds = 0.0;
    if (t.location != host) {
      // Pushdown: only survivors travel, already projected.
      transfer_seconds = sphere_.query_grid()
                             .RelaySeconds(t.location, host, out_rows,
                                           projected)
                             .value();
    }
    AddLegacyOption(sphere_, host, transfer_seconds, &legacy);
  }
  SortCheapestFirst(&legacy);
  ExpectMatchesLegacy(plan, legacy);
}

}  // namespace
}  // namespace intellisphere::fed
