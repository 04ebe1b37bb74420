#include "federation/plan_search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "util/runtime_metrics.h"

namespace intellisphere::fed {

namespace {

/// A host that cannot run the operator (Unsupported engine / no applicable
/// algorithm) is simply not a candidate; any other error aborts planning.
bool IsEliminationCode(StatusCode code) {
  return code == StatusCode::kUnsupported ||
         code == StatusCode::kFailedPrecondition;
}

/// Per-relation derived inputs: post-filter cardinality, the width that
/// travels over QueryGrid, and the width the relation contributes to join
/// projections.
struct RelationInfo {
  /// The catalog statistics of the relation's table (in the search input).
  const rel::TableStats* stats = nullptr;
  int site = -1;  ///< the relation's location, as a site id
  int64_t base_rows = 0;
  int64_t base_width = 0;
  int64_t rows = 0;   ///< post-filter
  int64_t width = 0;  ///< row bytes entering transfers and joins
  int64_t proj = 0;   ///< projected contribution to join outputs
  bool scanned = false;
};

/// Split-independent statistics of a relation subset; the DP relies on a
/// subset's cardinality not depending on the join tree that produced it.
struct MaskStats {
  int64_t rows = 0;
  int64_t width = 0;  ///< materialized row bytes (= projection sum for joins)
  int64_t proj = 0;   ///< projected contribution to an enclosing join
};

/// Best known way to materialize a subset's result on one site; the entry
/// is empty while `subplan` is -1.
struct DpEntry {
  double cost = 0.0;
  int subplan = -1;
};

/// What the search keeps of a base table at rest or of one operator
/// placement it sent for costing. Plan nodes are built from these only for
/// the trees the plan returns.
struct Subplan {
  QueryPlanNode::Kind kind = QueryPlanNode::Kind::kTable;
  int site = -1;
  uint64_t mask = 0;
  int64_t rows = 0;
  int64_t bytes = 0;
  /// QueryGrid cost of staging the inputs onto `site`.
  double transfer = 0.0;
  /// Children plus input transfers, in the wrapper-parity accumulation
  /// order; the operator estimate is added once the placement is costed.
  double subtree_seconds = 0.0;
  /// Input subplans, left first; -1 when absent.
  int children[2] = {-1, -1};
  /// The costing batch and request of the placement (-1 for tables).
  int batch = -1;
  int request = -1;
};

/// The plan.* counters a search bumps. The Global() set resolves once per
/// process; a context-supplied registry (tests) resolves per search.
struct PlanInstruments {
  Counter* costed;
  Counter* dropped;

  explicit PlanInstruments(MetricsRegistry& r)
      : costed(r.GetCounter("plan.candidates_costed")),
        dropped(r.GetCounter("plan.placements_eliminated")) {}
};

PlanInstruments InstrumentsFor(const core::EstimateContext& ctx) {
  if (ctx.metrics != nullptr) return PlanInstruments(*ctx.metrics);
  static const PlanInstruments* global =
      new PlanInstruments(MetricsRegistry::Global());
  return *global;
}

/// One memoized transfer answer: the cost of moving a relation subset's
/// result between two sites. `key` packs (mask, from, to); 0 marks an empty
/// slot (a subset mask is never 0).
struct TransferEntry {
  uint64_t key = 0;
  double seconds = 0.0;
};

uint32_t SiteBit(int site) {
  return uint32_t{1} << static_cast<unsigned>(site);
}

/// Every field of an operator descriptor's active payload, doubles as bit
/// patterns: operators with equal fields get equal estimates.
using OperatorFields = std::array<int64_t, 12>;

OperatorFields FieldsOf(const rel::SqlOperator& op) {
  const auto bits = [](double d) { return std::bit_cast<int64_t>(d); };
  switch (op.type) {
    case rel::OperatorType::kJoin: {
      const rel::JoinQuery& j = op.join;
      return {0, j.left.num_rows, j.left.row_bytes, j.right.num_rows,
              j.right.row_bytes, j.left_projected_bytes,
              j.right_projected_bytes, j.output_rows, j.is_equi_join,
              j.left_bucketed_on_key, j.right_bucketed_on_key,
              bits(j.hot_key_fraction)};
    }
    case rel::OperatorType::kAggregation: {
      const rel::AggQuery& a = op.agg;
      return {1, a.input.num_rows, a.input.row_bytes, a.output_rows,
              a.output_row_bytes, a.num_aggregates};
    }
    case rel::OperatorType::kScan: {
      const rel::ScanQuery& s = op.scan;
      return {2, s.input.num_rows, s.input.row_bytes, bits(s.selectivity),
              s.projected_bytes, s.output_rows};
    }
  }
  return {-1};
}

uint64_t HashFields(const OperatorFields& fields) {
  uint64_t h = 0;
  for (int64_t v : fields) {
    h = (h ^ static_cast<uint64_t>(v)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return h;
}

class Searcher {
 public:
  Searcher(const PlanSearchInput& input, const PlannerOptions& options,
           const core::EstimateContext& ctx)
      : input_(input),
        options_(options),
        ectx_(ctx),
        provenance_(ctx.provenance()),
        instruments_(InstrumentsFor(ctx)) {}

  Result<QueryPlan> Run() {
    ISPHERE_RETURN_NOT_OK(Prepare());
    TraceSpan root = ectx_.StartSpan("plan.query");
    if (root.enabled()) {
      root.SetInt("relations", static_cast<int64_t>(relations_.size()))
          .SetInt("joins", static_cast<int64_t>(input_.spec->joins.size()));
    }
    batch_ctx_ = ectx_.Under(root);

    ISPHERE_RETURN_NOT_OK(BaseLevel(&root));
    const int n = static_cast<int>(relations_.size());
    for (int level = 2; level <= n; ++level) {
      ISPHERE_RETURN_NOT_OK(JoinLevel(level, &root));
    }
    ISPHERE_RETURN_NOT_OK(FinishCandidates(&root));

    for (const DpEntry& entry : dp_) {
      if (entry.subplan >= 0) plan_.dp_entries++;
    }
    // Candidate roots are subplan indices until the nodes are built.
    std::sort(plan_.candidates.begin(), plan_.candidates.end(),
              [](const QueryPlanCandidate& a, const QueryPlanCandidate& b) {
                return a.total_seconds < b.total_seconds;
              });
    node_of_.assign(subplans_.size(), -1);
    size_t reachable = 0;
    for (const QueryPlanCandidate& candidate : plan_.candidates) {
      reachable += MarkReachable(candidate.root);
    }
    plan_.nodes.reserve(reachable);
    for (QueryPlanCandidate& candidate : plan_.candidates) {
      candidate.root = NodeFor(candidate.root);
    }
    if (root.enabled()) {
      root.SetString("best_system",
                     plan_.nodes[plan_.candidates.front().root].system)
          .SetDouble("best_total_seconds",
                     plan_.candidates.front().total_seconds)
          .SetInt("candidates", static_cast<int64_t>(plan_.candidates.size()))
          .SetInt("pruned", static_cast<int64_t>(plan_.pruned.size()))
          .SetInt("dp_entries", plan_.dp_entries);
    }
    return std::move(plan_);
  }

 private:
  Status Prepare() {
    if (input_.spec == nullptr) {
      return Status::InvalidArgument("null query spec");
    }
    if (options_.max_dp_relations < 1 || options_.max_dp_relations > 16) {
      return Status::InvalidArgument(
          "planner.max_dp_relations must be in [1, 16]");
    }
    if (options_.prune_factor != 0.0 && options_.prune_factor < 1.0) {
      return Status::InvalidArgument(
          "planner.prune_factor must be 0 (off) or >= 1");
    }
    const QuerySpec& spec = *input_.spec;
    ISPHERE_RETURN_NOT_OK(spec.Validate());
    if (input_.tables.size() != spec.relations.size()) {
      return Status::InvalidArgument(
          "resolved table list does not match the spec's relations");
    }
    if (static_cast<int>(spec.relations.size()) > options_.max_dp_relations) {
      return Status::InvalidArgument(
          "query spec exceeds planner.max_dp_relations");
    }
    if (input_.master.empty() || !input_.cost || !input_.transfer) {
      return Status::InvalidArgument("plan-search input is missing a hook");
    }

    // Site ids follow name order, so iterating a site bitmask upwards
    // visits hosts in the order a sorted set of names would.
    sites_.push_back(input_.master);
    for (const rel::TableDef& def : input_.tables) {
      sites_.push_back(def.location);
    }
    std::sort(sites_.begin(), sites_.end());
    sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
    master_site_ = SiteId(input_.master);

    const bool bare_scan = spec.relations.size() == 1 && spec.joins.empty() &&
                           !spec.aggregate.has_value();
    relations_.reserve(spec.relations.size());
    for (size_t i = 0; i < spec.relations.size(); ++i) {
      const QuerySpec::Relation& r = spec.relations[i];
      const rel::TableDef& def = input_.tables[i];
      RelationInfo info;
      info.stats = &def.stats;
      info.site = SiteId(def.location);
      info.base_rows = def.stats.num_rows;
      info.base_width = def.stats.row_bytes;
      info.proj = r.projected_bytes >= 0 ? r.projected_bytes
                                         : def.stats.row_bytes;
      // A relation is scanned when it has a real filter, or when the scan
      // IS the query (a bare single-relation spec).
      info.scanned = bare_scan || r.filter_selectivity < 1.0;
      info.rows = info.scanned
                      ? static_cast<int64_t>(std::llround(
                            r.filter_selectivity *
                            static_cast<double>(info.base_rows)))
                      : info.base_rows;
      info.width = info.scanned ? info.proj : info.base_width;
      relations_.push_back(info);
    }
    const size_t n = relations_.size();
    adjacency_.assign(n, 0);
    for (const QuerySpec::JoinPredicate& p : spec.joins) {
      adjacency_[static_cast<size_t>(p.left)] |= uint64_t{1}
                                                 << static_cast<unsigned>(
                                                     p.right);
      adjacency_[static_cast<size_t>(p.right)] |= uint64_t{1}
                                                  << static_cast<unsigned>(
                                                      p.left);
    }
    // Every successful search evaluates every predicate (the full mask
    // holds them all), so each endpoint's distinct count is resolved once
    // here and a bad one fails before any costing.
    join_denoms_.reserve(spec.joins.size());
    for (const QuerySpec::JoinPredicate& p : spec.joins) {
      ISPHERE_ASSIGN_OR_RETURN(int64_t dl, EndpointDistinct(p.left, p.column));
      ISPHERE_ASSIGN_OR_RETURN(int64_t dr,
                               EndpointDistinct(p.right, p.column));
      join_denoms_.push_back(static_cast<double>(std::max(dl, dr)));
    }
    dp_.assign((size_t{1} << n) * sites_.size(), DpEntry{});
    mask_stats_.assign(size_t{1} << n, std::nullopt);
    transfer_memo_.assign(128, TransferEntry{});
    // One costing batch per level: the base level, n - 1 join levels and
    // the aggregation.
    requests_.reserve(n + 1);
    results_.reserve(n + 1);
    return Status::OK();
  }

  int SiteId(const std::string& name) const {
    return static_cast<int>(
        std::lower_bound(sites_.begin(), sites_.end(), name) -
        sites_.begin());
  }

  const std::string& SiteName(int site) const {
    return sites_[static_cast<size_t>(site)];
  }

  int NumSites() const { return static_cast<int>(sites_.size()); }

  DpEntry& Entry(uint64_t mask, int site) {
    return dp_[mask * sites_.size() + static_cast<size_t>(site)];
  }

  /// How many sites hold a DP entry for `mask`.
  size_t Entries(uint64_t mask) {
    size_t count = 0;
    for (int site = 0; site < NumSites(); ++site) {
      count += Entry(mask, site).subplan >= 0;
    }
    return count;
  }

  bool Connected(uint64_t mask) const {
    if (mask == 0) return false;
    uint64_t reach = mask & (~mask + 1);
    uint64_t frontier = reach;
    while (frontier != 0) {
      uint64_t next = 0;
      uint64_t scan = frontier;
      while (scan != 0) {
        const int i = std::countr_zero(scan);
        scan &= scan - 1;
        next |= adjacency_[static_cast<size_t>(i)];
      }
      frontier = next & mask & ~reach;
      reach |= frontier;
    }
    return reach == mask;
  }

  bool HasCrossPredicate(uint64_t a, uint64_t b) const {
    for (uint64_t scan = a; scan != 0; scan &= scan - 1) {
      if (adjacency_[static_cast<size_t>(std::countr_zero(scan))] & b) {
        return true;
      }
    }
    return false;
  }
  /// The catalog's distinct count of `column` in `relation`'s table, or
  /// `fallback` when it is unknown or not positive, capped by the
  /// post-filter cardinality when the relation is scanned: a distinct count
  /// never exceeds the row count.
  int64_t ColumnDistinct(int relation, const std::string& column,
                         int64_t fallback) const {
    const RelationInfo& info = relations_[static_cast<size_t>(relation)];
    int64_t d = info.stats->DistinctOr(column, fallback);
    if (d <= 0) d = fallback;
    return info.scanned ? std::min(d, info.rows) : d;
  }

  /// Distinct count of a join-predicate endpoint within its relation.
  Result<int64_t> EndpointDistinct(int relation, const std::string& column) {
    const int64_t d = ColumnDistinct(
        relation, column,
        relations_[static_cast<size_t>(relation)].base_rows);
    if (d <= 0) return Status::InvalidArgument("non-positive distinct count");
    return d;
  }

  /// Split-independent subset statistics, memoized per mask. Cardinality:
  /// the product of member cardinalities times the selectivity of every
  /// predicate internal to the subset, with the same operand order as
  /// rel::EstimateJoinCardinality so two-relation specs reproduce it
  /// bit for bit.
  MaskStats StatsFor(uint64_t mask) {
    if (mask_stats_[mask]) return *mask_stats_[mask];
    MaskStats stats;
    if (std::popcount(mask) == 1) {
      const RelationInfo& info =
          relations_[static_cast<size_t>(std::countr_zero(mask))];
      stats.rows = info.rows;
      stats.width = info.width;
      stats.proj = info.proj;
    } else {
      double acc = 1.0;
      int64_t width = 0;
      uint64_t scan = mask;
      while (scan != 0) {
        const RelationInfo& info =
            relations_[static_cast<size_t>(std::countr_zero(scan))];
        scan &= scan - 1;
        acc *= static_cast<double>(info.rows);
        width += info.proj;
      }
      const std::vector<QuerySpec::JoinPredicate>& joins = input_.spec->joins;
      for (size_t j = 0; j < joins.size(); ++j) {
        const QuerySpec::JoinPredicate& p = joins[j];
        const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
        const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
        if (!(l & mask) || !(r & mask)) continue;
        acc = acc / join_denoms_[j] * p.extra_selectivity;
      }
      // Clamp before llround: a pathological spec (huge cross products)
      // must saturate, not overflow into UB.
      if (acc > 9.0e18) acc = 9.0e18;
      stats.rows =
          std::max<int64_t>(1, static_cast<int64_t>(std::llround(acc)));
      stats.width = width;
      stats.proj = width;
    }
    mask_stats_[mask] = stats;
    return stats;
  }

  const std::string& TableName(int relation) const {
    return input_.spec->relations[static_cast<size_t>(relation)].table;
  }

  std::string MaskLabel(uint64_t mask) const {
    std::string label = "{";
    uint64_t scan = mask;
    while (scan != 0) {
      const int i = std::countr_zero(scan);
      scan &= scan - 1;
      if (label.size() > 1) label += ",";
      label += TableName(i);
    }
    label += "}";
    return label;
  }

  /// The EXPLAIN label of a queued placement.
  std::string Describe(const Subplan& s) const {
    const std::string& host = SiteName(s.site);
    switch (s.kind) {
      case QueryPlanNode::Kind::kTable:
        break;
      case QueryPlanNode::Kind::kScan:
        return "scan(" + TableName(std::countr_zero(s.mask)) + ") at " + host;
      case QueryPlanNode::Kind::kJoin: {
        const Subplan& left = subplans_[static_cast<size_t>(s.children[0])];
        const Subplan& right = subplans_[static_cast<size_t>(s.children[1])];
        return "join(" + MaskLabel(left.mask) + "@" + SiteName(left.site) +
               ", " + MaskLabel(right.mask) + "@" + SiteName(right.site) +
               ") at " + host;
      }
      case QueryPlanNode::Kind::kAggregate:
        return "aggregate after " + MaskLabel(s.mask) + "@" +
               SiteName(subplans_[static_cast<size_t>(s.children[0])].site) +
               " at " + host;
    }
    return MaskLabel(s.mask);
  }

  /// The approach string a node reports: the master engine's analytic
  /// model is "local"; remote hosts report their profile's approach.
  std::string ApproachLabel(int site, const core::HybridEstimate& est) const {
    return site == master_site_ ? "local"
                                : core::CostingApproachName(est.approach_used);
  }

  void EmitCandidateSpan(TraceSpan* root, const Subplan& s,
                         const core::HybridEstimate& est) {
    if (!root->enabled()) return;
    TraceSpan span = root->Child("plan.candidate");
    span.SetString("system", SiteName(s.site))
        .SetString("approach", ApproachLabel(s.site, est))
        .SetDouble("transfer_seconds", s.transfer)
        .SetDouble("operator_seconds", est.seconds)
        .SetDouble("total_seconds", s.subtree_seconds);
    if (!est.algorithm.empty()) span.SetString("algorithm", est.algorithm);
  }

  void EmitEliminatedSpan(TraceSpan* root, const Subplan& s,
                          const std::string& reason) {
    if (!root->enabled()) return;
    TraceSpan span = root->Child("plan.candidate");
    span.SetString("system", SiteName(s.site))
        .SetString("eliminated_reason", reason);
  }

  /// The row of `op` among the distinct operators of the batch being built,
  /// added on first sight. Equal operators share a row, and a row holds
  /// one request slot per site.
  int OperatorRow(const rel::SqlOperator& op) {
    if (2 * (batch_ops_.size() + 1) > op_table_.size()) {
      op_table_.assign(std::max<size_t>(16, 2 * op_table_.size()), 0);
      for (size_t row = 0; row < batch_ops_.size(); ++row) {
        *OperatorSlot(FieldsOf(batch_ops_[row])) = static_cast<int>(row) + 1;
      }
    }
    int* slot = OperatorSlot(FieldsOf(op));
    if (*slot == 0) {
      *slot = static_cast<int>(batch_ops_.size()) + 1;
      batch_ops_.push_back(op);
      op_requests_.resize(op_requests_.size() + sites_.size(), -1);
    }
    return *slot - 1;
  }

  /// The op_table_ slot of the batch operator with `fields`, or the empty
  /// slot where it belongs.
  int* OperatorSlot(const OperatorFields& fields) {
    const size_t mask = op_table_.size() - 1;
    size_t slot = HashFields(fields) & mask;
    while (op_table_[slot] != 0 &&
           FieldsOf(batch_ops_[static_cast<size_t>(op_table_[slot] - 1)]) !=
               fields) {
      slot = (slot + 1) & mask;
    }
    return &op_table_[slot];
  }

  /// Queues `s` for costing operator row `op_row` on its site in the batch
  /// being built. The first placement of an operator on a site adds the
  /// request; later ones share it.
  void Enqueue(const Subplan& s, int op_row,
               std::vector<PlanCostRequest>* requests) {
    int& request = op_requests_[static_cast<size_t>(op_row) * sites_.size() +
                                static_cast<size_t>(s.site)];
    if (request < 0) {
      request = static_cast<int>(requests->size());
      requests->emplace_back(SiteName(s.site),
                             batch_ops_[static_cast<size_t>(op_row)]);
    }
    Subplan& queued = subplans_.emplace_back(s);
    queued.batch = static_cast<int>(requests_.size());
    queued.request = request;
  }

  /// QueryGrid cost of moving the result of relation subset `mask` from
  /// site `from` to site `to`. A subset's rows and width do not depend on
  /// the tree that produced it, so the transfer hook is asked once per
  /// (mask, from, to) in a search and every later placement reads the memo.
  Result<double> Transfer(uint64_t mask, int from, int to) {
    if (2 * (transfers_memoized_ + 1) > transfer_memo_.size()) {
      std::vector<TransferEntry> old = std::move(transfer_memo_);
      transfer_memo_.assign(2 * old.size(), TransferEntry{});
      for (const TransferEntry& entry : old) {
        if (entry.key != 0) *TransferSlot(entry.key) = entry;
      }
    }
    // max_dp_relations <= 16 keeps the mask in 16 bits, and at most 17
    // sites keeps each site id in 8.
    const uint64_t key = mask << 16 | static_cast<uint64_t>(from) << 8 |
                         static_cast<uint64_t>(to);
    TransferEntry* entry = TransferSlot(key);
    if (entry->key == 0) {
      const MaskStats stats = StatsFor(mask);
      ISPHERE_ASSIGN_OR_RETURN(
          entry->seconds, input_.transfer(SiteName(from), SiteName(to),
                                          stats.rows, stats.width));
      entry->key = key;
      ++transfers_memoized_;
    }
    return entry->seconds;
  }

  /// The transfer_memo_ slot holding `key`, or the empty slot where it
  /// belongs.
  TransferEntry* TransferSlot(uint64_t key) {
    const size_t mask = transfer_memo_.size() - 1;
    size_t slot = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
                  mask;
    while (transfer_memo_[slot].key != 0 && transfer_memo_[slot].key != key) {
      slot = (slot + 1) & mask;
    }
    return &transfer_memo_[slot];
  }

  /// Costs the placements queued from subplan `first` on in one batch,
  /// keeping requests and results for the returned trees' nodes. Each
  /// costed scan or join folds into the DP table; each costed aggregation
  /// becomes a root candidate.
  Status CostLevel(std::vector<PlanCostRequest> requests, size_t first,
                   TraceSpan* root) {
    // The next batch starts with no operators.
    batch_ops_.clear();
    op_requests_.clear();
    std::fill(op_table_.begin(), op_table_.end(), 0);
    if (requests.empty()) return Status::OK();
    std::vector<Result<core::HybridEstimate>> results =
        input_.cost(requests, batch_ctx_);
    if (results.size() != requests.size()) {
      return Status::Internal("batched costing returned a short batch");
    }
    requests_.push_back(std::move(requests));
    results_.push_back(std::move(results));
    for (size_t index = first; index < subplans_.size(); ++index) {
      Subplan& s = subplans_[index];
      const Result<core::HybridEstimate>& result =
          results_.back()[static_cast<size_t>(s.request)];
      if (!result.ok()) {
        ISPHERE_RETURN_NOT_OK(RecordFailure(result.status(), s, root));
        continue;
      }
      s.subtree_seconds += result.value().seconds;
      instruments_.costed->Increment();
      plan_.candidates_costed++;
      EmitCandidateSpan(root, s, result.value());
      if (s.kind == QueryPlanNode::Kind::kAggregate) {
        ISPHERE_RETURN_NOT_OK(AddCandidate(index, s.rows, s.bytes));
      } else {
        Fold(index);
      }
    }
    return Status::OK();
  }

  /// Adds a subplan over every relation as a root candidate, relaying its
  /// `rows` x `bytes` result to the master when the spec asks for it.
  Status AddCandidate(size_t index, int64_t rows, int64_t bytes) {
    const Subplan& s = subplans_[index];
    double result_transfer = 0.0;
    if (input_.spec->result_to_master && s.site != master_site_) {
      ISPHERE_ASSIGN_OR_RETURN(
          result_transfer,
          input_.transfer(SiteName(s.site), input_.master, rows, bytes));
    }
    plan_.candidates.push_back({static_cast<int>(index), result_transfer,
                                s.subtree_seconds + result_transfer});
    return Status::OK();
  }

  /// Installs a costed subplan into the DP table. Under provenance,
  /// whichever of the old and new entries loses is recorded as dominated,
  /// described and costed as that losing subplan.
  void Fold(size_t index) {
    const Subplan& s = subplans_[index];
    DpEntry& entry = Entry(s.mask, s.site);
    if (entry.subplan < 0) {
      entry = DpEntry{s.subtree_seconds, static_cast<int>(index)};
      return;
    }
    const bool wins = s.subtree_seconds < entry.cost;
    if (provenance_) {
      const Subplan& loser =
          wins ? subplans_[static_cast<size_t>(entry.subplan)] : s;
      PrunedSubplan pruned;
      pruned.kind = PrunedSubplan::Kind::kDominated;
      pruned.stage = s.kind;
      pruned.relation_mask = s.mask;
      pruned.system = SiteName(s.site);
      pruned.subtree_seconds = loser.subtree_seconds;
      pruned.reason = "dominated by a cheaper subplan for the same relations";
      pruned.description = Describe(loser);
      plan_.pruned.push_back(std::move(pruned));
    }
    if (wins) entry = DpEntry{s.subtree_seconds, static_cast<int>(index)};
  }

  /// Handles one failed costing result: elimination codes are counted (and
  /// recorded under provenance) and skipped, anything else aborts the
  /// search.
  Status RecordFailure(const Status& status, const Subplan& s,
                       TraceSpan* root) {
    if (!IsEliminationCode(status.code())) return status;
    EmitEliminatedSpan(root, s, status.message());
    instruments_.dropped->Increment();
    if (!provenance_) return Status::OK();
    PrunedSubplan pruned;
    pruned.kind = PrunedSubplan::Kind::kEliminated;
    pruned.stage = s.kind;
    pruned.relation_mask = s.mask;
    pruned.system = SiteName(s.site);
    if (s.kind == QueryPlanNode::Kind::kAggregate) {
      pruned.via_system =
          SiteName(subplans_[static_cast<size_t>(s.children[0])].site);
    }
    pruned.reason = status.message();
    pruned.description = Describe(s);
    plan_.pruned.push_back(std::move(pruned));
    return Status::OK();
  }

  /// Level 1: register unfiltered base tables at rest and cost the scan
  /// candidates of filtered relations in one batch. A table's subplan index
  /// is its relation index.
  Status BaseLevel(TraceSpan* root) {
    const size_t scans = static_cast<size_t>(
        std::count_if(relations_.begin(), relations_.end(),
                      [](const RelationInfo& info) { return info.scanned; }));
    // Every table, and each scan where its table lies and on the master.
    subplans_.reserve(relations_.size() + 2 * scans);
    for (size_t i = 0; i < relations_.size(); ++i) {
      const RelationInfo& info = relations_[i];
      Subplan table;
      table.site = info.site;
      table.mask = uint64_t{1} << i;
      table.rows = info.base_rows;
      table.bytes = info.base_width;
      subplans_.push_back(table);
      if (!info.scanned) {
        Entry(table.mask, info.site) = DpEntry{0.0, static_cast<int>(i)};
      }
    }

    const size_t first = subplans_.size();
    std::vector<PlanCostRequest> requests;
    requests.reserve(2 * scans);
    for (size_t i = 0; i < relations_.size(); ++i) {
      const RelationInfo& info = relations_[i];
      if (!info.scanned) continue;
      rel::ScanQuery q;
      q.input = {info.base_rows, info.base_width};
      q.selectivity = input_.spec->relations[i].filter_selectivity;
      q.projected_bytes = info.proj;
      q.output_rows = info.rows;
      rel::SqlOperator op = rel::SqlOperator::MakeScan(q);
      ISPHERE_RETURN_NOT_OK(op.Validate());
      const int op_row = OperatorRow(op);
      for (uint32_t hosts = SiteBit(master_site_) | SiteBit(info.site);
           hosts != 0; hosts &= hosts - 1) {
        Subplan scan;
        scan.kind = QueryPlanNode::Kind::kScan;
        scan.site = std::countr_zero(hosts);
        scan.mask = uint64_t{1} << i;
        scan.rows = info.rows;
        scan.bytes = info.proj;
        if (scan.site != info.site) {
          // QueryGrid evaluates simple predicates on the fly: only
          // survivors travel, already projected (the subset's stats).
          ISPHERE_ASSIGN_OR_RETURN(scan.transfer,
                                   Transfer(scan.mask, info.site, scan.site));
        }
        scan.subtree_seconds = scan.transfer;
        scan.children[0] = static_cast<int>(i);
        Enqueue(scan, op_row, &requests);
      }
    }
    return CostLevel(std::move(requests), first, root);
  }

  /// One DP level: every connected subset of `level` relations, split into
  /// every canonical connected partition, joined on every candidate site —
  /// all costed through a single batch.
  Status JoinLevel(int level, TraceSpan* root) {
    // Pass 1: the level's splits and their operators. Their inputs' DP
    // entries are final, which bounds the placements pass 2 queues.
    splits_.clear();
    size_t placements = 0;
    const size_t n = relations_.size();
    const uint64_t limit = uint64_t{1} << n;
    for (uint64_t mask = 1; mask < limit; ++mask) {
      if (std::popcount(mask) != level) continue;
      if (!Connected(mask)) continue;
      const uint64_t low = mask & (~mask + 1);
      for (uint64_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;  // canonical: sub keeps the lowest bit
        const uint64_t rest = mask ^ sub;
        if (!Connected(sub) || !Connected(rest)) continue;
        if (!HasCrossPredicate(sub, rest)) continue;
        const MaskStats sub_stats = StatsFor(sub);
        const MaskStats rest_stats = StatsFor(rest);
        // Orient so the right side is the smaller relation (engine
        // planners and formulas assume S is the build/broadcast side);
        // ties keep the canonical side on the left, matching the legacy
        // planners' strict-inequality swap.
        Split split{mask, sub, rest, -1};
        MaskStats left_stats = sub_stats, right_stats = rest_stats;
        if (left_stats.rows < right_stats.rows) {
          std::swap(split.left, split.right);
          std::swap(left_stats, right_stats);
        }
        const MaskStats out_stats = StatsFor(mask);
        rel::JoinQuery q;
        q.left = {left_stats.rows, left_stats.width};
        q.right = {right_stats.rows, right_stats.width};
        q.left_projected_bytes = left_stats.proj;
        q.right_projected_bytes = right_stats.proj;
        q.output_rows = out_stats.rows;
        // The independently-rounded side cardinalities can undercut the
        // subset estimate by a hair; cap at the |L| x |R| bound the
        // descriptor validation enforces. Never triggers for two base
        // relations (the wrapper-parity case), where the subset formula
        // is exactly the legacy one.
        const double bound = static_cast<double>(left_stats.rows) *
                             static_cast<double>(right_stats.rows);
        if (static_cast<double>(q.output_rows) > bound) {
          q.output_rows = static_cast<int64_t>(std::min(bound, 9.0e18));
        }
        rel::SqlOperator op = rel::SqlOperator::MakeJoin(q);
        ISPHERE_RETURN_NOT_OK(op.Validate());
        split.op_row = OperatorRow(op);
        // At most three hosts per pair of input entries.
        placements += 3 * Entries(split.left) * Entries(split.right);
        splits_.push_back(split);
      }
    }

    // Pass 2: queue every placement; reserving the bound first means
    // growth copies no placement or request.
    const size_t first = subplans_.size();
    subplans_.reserve(first + placements);
    std::vector<PlanCostRequest> requests;
    requests.reserve(std::min(placements, batch_ops_.size() * sites_.size()));
    for (const Split& split : splits_) {
      const rel::SqlOperator& op =
          batch_ops_[static_cast<size_t>(split.op_row)];
      for (int left_site = 0; left_site < NumSites(); ++left_site) {
        const DpEntry left = Entry(split.left, left_site);
        if (left.subplan < 0) continue;
        for (int right_site = 0; right_site < NumSites(); ++right_site) {
          const DpEntry right = Entry(split.right, right_site);
          if (right.subplan < 0) continue;
          for (uint32_t hosts = SiteBit(master_site_) | SiteBit(left_site) |
                                SiteBit(right_site);
               hosts != 0; hosts &= hosts - 1) {
            Subplan join;
            join.kind = QueryPlanNode::Kind::kJoin;
            join.site = std::countr_zero(hosts);
            join.mask = split.mask;
            join.rows = op.join.output_rows;
            join.bytes = op.join.OutputRowBytes();
            double transfer_left = 0.0, transfer_right = 0.0;
            if (left_site != join.site) {
              ISPHERE_ASSIGN_OR_RETURN(
                  transfer_left, Transfer(split.left, left_site, join.site));
            }
            if (right_site != join.site) {
              ISPHERE_ASSIGN_OR_RETURN(
                  transfer_right,
                  Transfer(split.right, right_site, join.site));
            }
            join.transfer = transfer_left + transfer_right;
            // Accumulation order is part of the wrapper bit-parity
            // contract: children, then left transfer, then right
            // transfer, then operator.
            join.subtree_seconds = left.cost + right.cost;
            join.subtree_seconds += transfer_left;
            join.subtree_seconds += transfer_right;
            join.children[0] = left.subplan;
            join.children[1] = right.subplan;
            Enqueue(join, split.op_row, &requests);
          }
        }
      }
    }
    ISPHERE_RETURN_NOT_OK(CostLevel(std::move(requests), first, root));

    // Heuristic pruning between levels: an entry far costlier than the
    // cheapest same-subset entry can still win later (a larger join may
    // avoid a transfer), so this is explicitly a heuristic; it is off by
    // default and never applied to the final subset.
    if (options_.prune_factor >= 1.0 &&
        level < static_cast<int>(relations_.size())) {
      for (uint64_t mask = 1; mask < limit; ++mask) {
        if (std::popcount(mask) != level) continue;
        bool any = false;
        double cheapest = 0.0;
        for (int site = 0; site < NumSites(); ++site) {
          const DpEntry& entry = Entry(mask, site);
          if (entry.subplan < 0) continue;
          cheapest = any ? std::min(cheapest, entry.cost) : entry.cost;
          any = true;
        }
        if (!any) continue;
        for (int site = 0; site < NumSites(); ++site) {
          DpEntry& entry = Entry(mask, site);
          if (entry.subplan < 0 ||
              !(entry.cost > options_.prune_factor * cheapest)) {
            continue;
          }
          if (provenance_) {
            PrunedSubplan pruned;
            pruned.kind = PrunedSubplan::Kind::kPruned;
            pruned.stage = QueryPlanNode::Kind::kJoin;
            pruned.relation_mask = mask;
            pruned.system = SiteName(site);
            pruned.subtree_seconds = entry.cost;
            pruned.reason =
                "cost exceeds prune_factor x the cheapest same-subset entry";
            pruned.description =
                MaskLabel(mask) + "@" + SiteName(site) + " (prune_factor)";
            plan_.pruned.push_back(std::move(pruned));
          }
          entry = DpEntry{};
        }
      }
    }
    return Status::OK();
  }

  /// Turns the full-subset DP entries into root candidates, applying the
  /// optional aggregation stage (one batch) and the optional final relay
  /// to the master engine.
  Status FinishCandidates(TraceSpan* root) {
    const QuerySpec& spec = *input_.spec;
    const uint64_t full = (uint64_t{1} << relations_.size()) - 1;

    if (!spec.aggregate.has_value()) {
      const MaskStats stats = StatsFor(full);
      for (int site = 0; site < NumSites(); ++site) {
        const DpEntry entry = Entry(full, site);
        if (entry.subplan < 0) continue;
        ISPHERE_RETURN_NOT_OK(AddCandidate(static_cast<size_t>(entry.subplan),
                                           stats.rows, stats.width));
      }
      if (plan_.candidates.empty()) {
        return Status::FailedPrecondition(
            "no placement can execute this query spec");
      }
      return Status::OK();
    }

    const QuerySpec::Aggregate& agg = *spec.aggregate;
    const MaskStats in_stats = StatsFor(full);
    // Group cardinality over the final relation set: the group column's
    // distinct count (from the owning relation, post-filter), capped by
    // the input cardinality.
    const int64_t d =
        ColumnDistinct(agg.relation, agg.group_column, in_stats.rows);
    const int64_t raw_groups = std::min(in_stats.rows, d);
    const int64_t groups =
        spec.joins.empty() ? raw_groups : std::max<int64_t>(1, raw_groups);
    rel::AggQuery q;
    q.input = {in_stats.rows, in_stats.width};
    q.output_rows = groups;
    q.output_row_bytes =
        kGroupKeyBytes + kAggregateValueBytes * agg.num_aggregates;
    q.num_aggregates = agg.num_aggregates;
    rel::SqlOperator op = rel::SqlOperator::MakeAgg(q);
    ISPHERE_RETURN_NOT_OK(op.Validate());
    const int op_row = OperatorRow(op);

    const size_t first = subplans_.size();
    const size_t placements = 2 * Entries(full);
    subplans_.reserve(first + placements);
    std::vector<PlanCostRequest> requests;
    requests.reserve(std::min<size_t>(placements, sites_.size()));
    for (int site = 0; site < NumSites(); ++site) {
      const DpEntry entry = Entry(full, site);
      if (entry.subplan < 0) continue;
      // The aggregation runs where the intermediate lies, or on the master.
      for (uint32_t hosts = SiteBit(site) | SiteBit(master_site_); hosts != 0;
           hosts &= hosts - 1) {
        Subplan stage;
        stage.kind = QueryPlanNode::Kind::kAggregate;
        stage.site = std::countr_zero(hosts);
        stage.mask = full;
        stage.rows = groups;
        stage.bytes = q.output_row_bytes;
        if (stage.site != site) {
          ISPHERE_ASSIGN_OR_RETURN(stage.transfer,
                                   Transfer(full, site, stage.site));
        }
        stage.subtree_seconds = entry.cost;
        stage.subtree_seconds += stage.transfer;
        stage.children[0] = entry.subplan;
        Enqueue(stage, op_row, &requests);
      }
    }
    ISPHERE_RETURN_NOT_OK(CostLevel(std::move(requests), first, root));
    if (plan_.candidates.empty()) {
      return Status::FailedPrecondition(
          "no placement can execute this query spec");
    }
    return Status::OK();
  }

  /// Marks the subplans of the tree rooted at `index` that have no node
  /// yet (-2) and returns how many it marked.
  size_t MarkReachable(int index) {
    int& mark = node_of_[static_cast<size_t>(index)];
    if (mark != -1) return 0;
    mark = -2;
    size_t marked = 1;
    for (int child : subplans_[static_cast<size_t>(index)].children) {
      if (child >= 0) marked += MarkReachable(child);
    }
    return marked;
  }

  /// The plan node of a subplan, built on first use after its children.
  /// The placement's estimate provenance is copied into the node, since
  /// placements sharing a request read one result.
  int NodeFor(int index) {
    if (node_of_[static_cast<size_t>(index)] >= 0) {
      return node_of_[static_cast<size_t>(index)];
    }
    const Subplan& s = subplans_[static_cast<size_t>(index)];
    QueryPlanNode node;
    node.children.reserve(static_cast<size_t>((s.children[0] >= 0) +
                                              (s.children[1] >= 0)));
    for (int child : s.children) {
      if (child >= 0) node.children.push_back(NodeFor(child));
    }
    node.kind = s.kind;
    node.system = SiteName(s.site);
    node.relation_mask = s.mask;
    node.output_rows = s.rows;
    node.output_row_bytes = s.bytes;
    if (s.kind == QueryPlanNode::Kind::kTable ||
        s.kind == QueryPlanNode::Kind::kScan) {
      node.label = TableName(std::countr_zero(s.mask));
    }
    if (s.kind != QueryPlanNode::Kind::kTable) {
      const size_t batch = static_cast<size_t>(s.batch);
      const size_t request = static_cast<size_t>(s.request);
      const core::HybridEstimate& est = results_[batch][request].value();
      node.transfer_seconds = s.transfer;
      node.operator_seconds = est.seconds;
      node.subtree_seconds = s.subtree_seconds;
      node.approach = ApproachLabel(s.site, est);
      node.algorithm = est.algorithm;
      node.algorithm_candidates = est.candidates;
      node.eliminated_algorithms = est.eliminated;
      node.used_remedy = est.used_remedy;
      node.remedy_alpha = est.remedy_alpha;
      node.fell_back_reason = est.fell_back_reason;
      node.op = requests_[batch][request].op;
    }
    plan_.nodes.push_back(std::move(node));
    node_of_[static_cast<size_t>(index)] =
        static_cast<int>(plan_.nodes.size()) - 1;
    return node_of_[static_cast<size_t>(index)];
  }

  const PlanSearchInput& input_;
  const PlannerOptions& options_;
  core::EstimateContext ectx_;
  core::EstimateContext batch_ctx_;
  /// The caller's ctx.provenance(): whether estimates carry their
  /// provenance and the search records the subplans it drops.
  bool provenance_;
  PlanInstruments instruments_;
  std::vector<RelationInfo> relations_;
  std::vector<uint64_t> adjacency_;
  /// Per join predicate, in spec order: max of its endpoints' distinct
  /// counts, the containment denominator of its selectivity.
  std::vector<double> join_denoms_;
  /// Execution sites (the master and every relation's location) in name
  /// order; a site id indexes this list.
  std::vector<std::string> sites_;
  int master_site_ = -1;
  /// dp_[mask * sites_.size() + site]: cheapest way to have `mask`'s join
  /// result on `site`.
  std::vector<DpEntry> dp_;
  /// StatsFor's memo, by mask; empty until the mask is first asked for.
  std::vector<std::optional<MaskStats>> mask_stats_;
  /// Every base table and queued placement, in the order they were made.
  std::vector<Subplan> subplans_;
  /// The distinct operators of the batch being built, an open-addressed
  /// index over them (row + 1, 0 = empty) and, per operator row, each
  /// site's request in the batch (-1 = none yet).
  std::vector<rel::SqlOperator> batch_ops_;
  std::vector<int> op_table_;
  std::vector<int> op_requests_;
  /// The join splits of the level being built.
  struct Split {
    uint64_t mask;
    uint64_t left;   ///< the larger input (the probe side)
    uint64_t right;  ///< the smaller input (the build side)
    int op_row;
  };
  std::vector<Split> splits_;
  /// Transfer's memo: an open-addressed table over every (subset, from,
  /// to) asked in this search, at most half full.
  std::vector<TransferEntry> transfer_memo_;
  size_t transfers_memoized_ = 0;
  /// Each costing batch's requests and results, by batch index.
  std::vector<std::vector<PlanCostRequest>> requests_;
  std::vector<std::vector<Result<core::HybridEstimate>>> results_;
  /// Subplan index -> plan node index, -1 until the node is built.
  std::vector<int> node_of_;
  QueryPlan plan_;
};

}  // namespace

Result<PlannerOptions> PlannerOptions::FromProperties(
    const Properties& props) {
  PlannerOptions options;
  if (props.Contains(kPlannerMaxDpRelationsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t v,
                             props.GetInt(kPlannerMaxDpRelationsKey));
    if (v < 1 || v > 16) {
      return Status::InvalidArgument(
          "planner.max_dp_relations must be in [1, 16]");
    }
    options.max_dp_relations = static_cast<int>(v);
  }
  if (props.Contains(kPlannerPruneFactorKey)) {
    ISPHERE_ASSIGN_OR_RETURN(double v,
                             props.GetDouble(kPlannerPruneFactorKey));
    if (v != 0.0 && v < 1.0) {
      return Status::InvalidArgument(
          "planner.prune_factor must be 0 (off) or >= 1");
    }
    options.prune_factor = v;
  }
  return options;
}

Status QuerySpec::Validate() const {
  if (relations.empty()) {
    return Status::InvalidArgument("query spec has no relations");
  }
  if (relations.size() > 62) {
    return Status::InvalidArgument("query spec has too many relations");
  }
  const int n = static_cast<int>(relations.size());
  for (const Relation& r : relations) {
    if (r.table.empty()) {
      return Status::InvalidArgument("relation table name is empty");
    }
    if (r.filter_selectivity < 0.0 || r.filter_selectivity > 1.0) {
      return Status::InvalidArgument("selectivity must be in [0, 1]");
    }
    if (r.projected_bytes < kFullRowWidth) {
      return Status::InvalidArgument("negative projected size");
    }
  }
  for (const JoinPredicate& p : joins) {
    if (p.left < 0 || p.left >= n || p.right < 0 || p.right >= n) {
      return Status::InvalidArgument(
          "join predicate relation index out of range");
    }
    if (p.left == p.right) {
      return Status::InvalidArgument(
          "join predicate joins a relation to itself");
    }
    if (p.column.empty()) {
      return Status::InvalidArgument("join predicate column is empty");
    }
    if (p.extra_selectivity <= 0.0 || p.extra_selectivity > 1.0) {
      return Status::InvalidArgument("extra_selectivity must be in (0, 1]");
    }
  }
  if (n > 1) {
    // Union-find over the join edges: the DP only combines connected
    // subsets, so a disconnected graph could never complete a plan.
    std::vector<int> parent(relations.size());
    for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
    auto find = [&parent](int x) {
      while (parent[static_cast<size_t>(x)] != x) {
        parent[static_cast<size_t>(x)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        x = parent[static_cast<size_t>(x)];
      }
      return x;
    };
    for (const JoinPredicate& p : joins) {
      parent[static_cast<size_t>(find(p.left))] = find(p.right);
    }
    for (int i = 1; i < n; ++i) {
      if (find(i) != find(0)) {
        return Status::InvalidArgument(
            "join graph does not connect all relations");
      }
    }
  } else if (!joins.empty()) {
    return Status::InvalidArgument(
        "join predicate relation index out of range");
  }
  if (aggregate.has_value()) {
    if (aggregate->relation < 0 || aggregate->relation >= n) {
      return Status::InvalidArgument("aggregate relation index out of range");
    }
    if (aggregate->group_column.empty()) {
      return Status::InvalidArgument("aggregate group column is empty");
    }
    if (aggregate->num_aggregates < 1) {
      return Status::InvalidArgument("need at least one aggregate function");
    }
  }
  return Status::OK();
}

Result<QueryPlanCandidate> QueryPlan::best() const {
  if (candidates.empty()) {
    return Status::FailedPrecondition("query plan has no candidates");
  }
  return candidates.front();
}

Result<const QueryPlanNode*> QueryPlan::root() const {
  if (candidates.empty()) {
    return Status::FailedPrecondition("query plan has no candidates");
  }
  return &nodes[static_cast<size_t>(candidates.front().root)];
}

Result<QueryPlan> SearchPlan(const PlanSearchInput& input,
                             const PlannerOptions& options,
                             const core::EstimateContext& ctx) {
  Searcher searcher(input, options, ctx);
  return searcher.Run();
}

}  // namespace intellisphere::fed
