#include "workload.h"

#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

namespace {

// Stream tags: each input family draws from its own generator stream.
constexpr std::uint64_t kPopulationStream = 1;
constexpr std::uint64_t kScriptStream = 2;
constexpr std::uint64_t kEventStream = 3;
constexpr std::uint64_t kProbeStream = 4;

constexpr std::size_t kPaperAttributes = 50;
constexpr std::int64_t kPaperDomain = 1'000'000'000;
constexpr std::size_t kSelectiveAttributes = 64;
constexpr std::size_t kSelectivePresent = 4;
constexpr std::int64_t kSelectiveDomain = 1000;
/// Share of skewed-churn subscribes that repeat an existing text.
constexpr double kRepeatTextShare = 0.25;

// The three gated workloads plus paper-dense-seed. paper-dense and
// counting-dense run the same script on different engines; skewed-churn is
// the selective, multi-shard, control-heavy regime. paper-dense-seed is
// paper-dense on the seed path (ncps::Broker: no pool, no apply thread); it
// is not in BENCHMARK.json because one publishing thread's throughput drifts
// with the host by more than the gate's bound. See README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "paper-dense",
     .engine = ncps::EngineKind::NonCanonical,
     .shards = 1,
     .workers = 3,
     .placement = ncps::ShardPlacement::kSpread,
     .shape = Shape::Paper,
     .population = 4000,
     .subscribers = 8,
     .hot_share = 0.0,
     .batch_events = 16,
     .control_ops_per_s = 60,
     .completeness_stride = 1,
     .probe_events = 256},
    {.name = "counting-dense",
     .engine = ncps::EngineKind::Counting,
     .shards = 1,
     .workers = 3,
     .placement = ncps::ShardPlacement::kSpread,
     .shape = Shape::Paper,
     .population = 4000,
     .subscribers = 8,
     .hot_share = 0.0,
     .batch_events = 16,
     .control_ops_per_s = 60,
     .completeness_stride = 1,
     .probe_events = 256},
    {.name = "skewed-churn",
     .engine = ncps::EngineKind::NonCanonical,
     .shards = 4,
     .workers = 3,
     .placement = ncps::ShardPlacement::kSubscriberAffine,
     .shape = Shape::Selective,
     .population = 20000,
     .subscribers = 16,
     .hot_share = 0.7,
     .batch_events = 64,
     .control_ops_per_s = 5000,
     .completeness_stride = 32,
     .probe_events = 2048},
    {.name = "paper-dense-seed",
     .engine = ncps::EngineKind::NonCanonical,
     .shards = 1,
     .workers = 1,
     .placement = ncps::ShardPlacement::kSpread,
     .shape = Shape::Paper,
     .population = 4000,
     .subscribers = 8,
     .hot_share = 0.0,
     .batch_events = 16,
     .control_ops_per_s = 60,
     .completeness_stride = 1,
     .probe_events = 256},
};

const char* op_text(Op op) {
  switch (op) {
    case Op::Gt: return " > ";
    case Op::Le: return " <= ";
    case Op::Eq: return " == ";
    case Op::Ge: return " >= ";
    case Op::Lt: return " < ";
    case Op::Between: return " between ";
  }
  return " ? ";
}

}  // namespace

std::span<const WorkloadSpec> all_workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string Workload::attribute_name(std::size_t attr) const {
  std::string name(1, spec_->shape == Shape::Paper ? 'a' : 's');
  name += std::to_string(attr);
  return name;
}

std::string to_text(const RefExpr& expr, const Workload& w) {
  std::string out;
  std::size_t begin = 0;
  for (std::size_t g = 0; g < expr.groups; ++g) {
    if (g > 0) out += " and ";
    out += '(';
    for (std::size_t i = begin; i < expr.group_end[g]; ++i) {
      const RefPredicate& p = expr.preds[i];
      if (i > begin) out += " or ";
      out += w.attribute_name(p.attr);
      out += op_text(p.op);
      out += std::to_string(p.lo);
      if (p.op == Op::Between) out += " and " + std::to_string(p.hi);
    }
    out += ')';
    begin = expr.group_end[g];
  }
  return out;
}

RefExpr Workload::paper_expr(Rng& rng) {
  static constexpr Op kOps[] = {Op::Gt, Op::Le, Op::Eq};
  const std::size_t predicates = 6 + 2 * rng.below(3);  // |p| in {6, 8, 10}
  RefExpr expr;
  for (std::size_t i = 0; i < predicates; ++i) {
    RefPredicate p;
    // Unique attribute-operator-value triples, as in the paper's §4.
    for (;;) {
      p.attr = static_cast<std::uint32_t>(rng.below(kPaperAttributes));
      p.op = kOps[rng.below(3)];
      p.lo = rng.range(0, kPaperDomain - 1);
      const std::uint64_t key = (static_cast<std::uint64_t>(p.lo) << 16) |
                                (p.attr << 4) |
                                static_cast<std::uint64_t>(p.op);
      if (used_predicates_.insert(key).second) break;
    }
    expr.preds.push_back(p);
    if (i % 2 == 1) {
      expr.group_end[expr.groups++] = static_cast<std::uint8_t>(i + 1);
    }
  }
  return expr;
}

RefExpr Workload::selective_expr(Rng& rng) const {
  const double u = rng.unit();
  const std::size_t groups = u < 0.1 ? 1 : (u < 0.7 ? 2 : 3);
  RefExpr expr;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t width = 1 + rng.below(3);
    for (std::size_t i = 0; i < width; ++i) {
      RefPredicate p;
      p.attr = static_cast<std::uint32_t>(rng.below(kSelectiveAttributes));
      switch (rng.below(4)) {
        case 0: {
          const std::int64_t span = rng.range(20, 80);
          p.op = Op::Between;
          p.lo = rng.range(0, kSelectiveDomain - 1 - span);
          p.hi = p.lo + span;
          break;
        }
        case 1:
          p.op = Op::Eq;
          p.lo = rng.range(0, kSelectiveDomain - 1);
          break;
        case 2:
          p.op = Op::Ge;
          p.lo = rng.range(900, kSelectiveDomain - 1);
          break;
        default:
          p.op = Op::Lt;
          p.lo = rng.range(1, 100);
          break;
      }
      expr.preds.push_back(p);
    }
    expr.group_end[expr.groups++] =
        static_cast<std::uint8_t>(expr.preds.size());
  }
  return expr;
}

std::uint32_t Workload::pick_owner(Rng& rng) const {
  if (spec_->hot_share > 0 && rng.chance(spec_->hot_share)) return 0;
  if (spec_->hot_share > 0) {
    return 1 + static_cast<std::uint32_t>(rng.below(spec_->subscribers - 1));
  }
  return static_cast<std::uint32_t>(rng.below(spec_->subscribers));
}

void Workload::add_expr(RefExpr expr) {
  texts_.push_back(to_text(expr, *this));
  exprs_.push_back(std::move(expr));
}

Workload::Workload(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(&spec),
      seed_(seed),
      attributes_(spec.shape == Shape::Paper ? kPaperAttributes
                                             : kSelectiveAttributes) {
  Rng pop(seed, kPopulationStream);
  for (std::size_t i = 0; i < spec.population; ++i) {
    add_expr(next_expr(pop));
    owners_.push_back(pick_owner(pop));
  }
}

void Workload::generate_script(double seconds) {
  const WorkloadSpec& spec = *spec_;
  // Paper shape: light churn, each op a subscribe of a fresh subscription
  // or an unsubscribe of a random live one. Selective shape: Zipf-skewed
  // lifetimes (most churned subscriptions die within a few ops, a few
  // outlive the run), and a share of subscribes repeat an existing text.
  Rng rng(seed_, kScriptStream);
  const double horizon = seconds + 1.0;
  std::vector<std::uint32_t> live(spec.population);
  for (std::uint32_t i = 0; i < live.size(); ++i) live[i] = i;
  auto next_instance = static_cast<std::uint32_t>(spec.population);
  const Zipf lifetime(4096, 1.2);
  using Due = std::pair<std::uint64_t, std::uint32_t>;  // (op index, instance)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> deaths;
  double elapsed = 0;
  for (std::uint64_t k = 0; elapsed < horizon; ++k) {
    ControlOp op;
    op.delay_s = rng.exponential(1.0 / spec.control_ops_per_s);
    elapsed += op.delay_s;
    bool unsubscribe = false;
    if (spec.shape == Shape::Paper) {
      unsubscribe = rng.chance(0.5);
    } else {
      unsubscribe = !deaths.empty() && deaths.top().first <= k;
    }
    if (unsubscribe) {
      op.kind = ControlOp::Kind::Unsubscribe;
      if (spec.shape == Shape::Paper) {
        const std::size_t at = rng.below(live.size());
        op.victim = live[at];
        live[at] = live.back();
        live.pop_back();
      } else {
        op.victim = deaths.top().second;
        deaths.pop();
      }
    } else {
      op.kind = ControlOp::Kind::Subscribe;
      op.subscriber = pick_owner(rng);
      if (spec.shape == Shape::Selective && rng.chance(kRepeatTextShare)) {
        op.expr = static_cast<std::uint32_t>(rng.below(exprs_.size()));
      } else {
        add_expr(next_expr(rng));
        op.expr = static_cast<std::uint32_t>(exprs_.size() - 1);
      }
      const std::uint32_t instance = next_instance++;
      if (spec.shape == Shape::Paper) {
        live.push_back(instance);
      } else {
        deaths.emplace(k + lifetime.draw(rng), instance);
      }
    }
    script_.push_back(op);
  }
}

RefEvent Workload::make_event(std::uint64_t stream, std::uint64_t index) const {
  Rng rng(seed_ ^ Rng::mix(stream), index);
  RefEvent e;
  e.values.assign(attributes_, 0);
  if (spec_->shape == Shape::Paper) {
    e.present.assign(attributes_, 1);
    for (std::int64_t& v : e.values) v = rng.range(0, kPaperDomain - 1);
  } else {
    e.present.assign(attributes_, 0);
    for (std::size_t placed = 0; placed < kSelectivePresent;) {
      const std::size_t a = rng.below(attributes_);
      if (e.present[a]) continue;
      e.present[a] = 1;
      e.values[a] = rng.range(0, kSelectiveDomain - 1);
      ++placed;
    }
  }
  return e;
}

RefEvent Workload::event(std::uint64_t index) const {
  return make_event(kEventStream, index);
}

RefEvent Workload::probe_event(std::uint64_t index) const {
  return make_event(kProbeStream, index);
}

}  // namespace perfbench
