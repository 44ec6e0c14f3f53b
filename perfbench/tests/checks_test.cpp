// Self-test of the benchmark's checks: a real broker delivers two batches
// around an unsubscribe, and the recorded notification stream is then
// corrupted in each way the checker must catch. The clean stream must pass;
// every corrupted one must fail with the matching diagnosis.
//
// Build and run: python3 perfbench/run.py --self-test
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "checker.h"
#include "workload.h"

namespace {

using perfbench::Checker;
using perfbench::History;
using perfbench::Notice;
using perfbench::RefEvent;

int g_failed = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++g_failed;
}

struct Batch {
  std::vector<RefEvent> refs;
  std::uint64_t first = 0;
  std::vector<Notice> notices;
  std::size_t returned = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

using Mutation = std::function<void(std::vector<Batch>&)>;

constexpr perfbench::WorkloadSpec kSpec{
    .name = "checks-test",
    .engine = ncps::EngineKind::NonCanonical,
    .shards = 1,
    .workers = 1,
    .placement = ncps::ShardPlacement::kSpread,
    .shape = perfbench::Shape::Paper,
    .population = 300,
    .subscribers = 2,
    .hot_share = 0.0,
    .batch_events = 8,
    .control_ops_per_s = 10,
    .completeness_stride = 1,
    .probe_events = 8};

/// Insert `n` where a correct broker would deliver it (batch order, then
/// ascending subscription id) and keep the return value consistent, so
/// only the check under test can object.
void insert_in_order(Batch& batch, const Notice& n) {
  const auto pos = std::find_if(
      batch.notices.begin(), batch.notices.end(), [&](const Notice& o) {
        return o.event > n.event ||
               (o.event == n.event && o.subscription > n.subscription);
      });
  batch.notices.insert(pos, n);
  batch.returned += 1;
}

bool any_contains(const std::vector<std::string>& failures,
                  const std::string& s) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const std::string& f) {
                       return f.find(s) != std::string::npos;
                     });
}

}  // namespace

int main() {
  const perfbench::Workload w(kSpec, 7);
  ncps::AttributeRegistry attrs;
  const std::unique_ptr<ncps::Broker> broker = ncps::Broker::create(attrs);
  std::vector<ncps::AttributeId> attr_ids;
  for (std::size_t a = 0; a < w.attribute_count(); ++a) {
    attr_ids.push_back(attrs.intern(w.attribute_name(a)));
  }

  std::vector<Notice> notices;
  const ncps::Event* base = nullptr;
  std::vector<ncps::SubscriberId> subs;
  for (std::size_t s = 0; s < kSpec.subscribers; ++s) {
    subs.push_back(
        broker->register_subscriber([&](const ncps::Notification& n) {
          notices.push_back({static_cast<std::uint32_t>(n.event - base),
                             n.subscription.value(), n.subscriber.value()});
        }));
  }
  History history;
  for (std::uint32_t i = 0; i < kSpec.population; ++i) {
    const ncps::SubscriberId sub = subs[w.owners()[i]];
    const std::uint32_t inst = history.begin_subscribe(i, sub.value());
    history.set_id(inst, broker->subscribe(sub, w.texts()[i]).value());
    broker->wait_applied(broker->control_generation());
    history.mark_fenced(inst);
  }
  const auto owner_of = [&](std::uint32_t inst) {
    return subs[w.owners()[inst]].value();
  };

  std::vector<Batch> batches;
  std::vector<RefEvent> all_events;
  const auto publish = [&] {
    Batch b;
    b.first = all_events.size();
    std::vector<ncps::Event> events;
    for (std::size_t i = 0; i < kSpec.batch_events; ++i) {
      b.refs.push_back(w.event(all_events.size()));
      all_events.push_back(b.refs.back());
      ncps::Event e;
      for (std::size_t a = 0; a < attr_ids.size(); ++a) {
        e.set(attr_ids[a], ncps::Value(b.refs.back().values[a]));
      }
      events.push_back(std::move(e));
    }
    notices.clear();
    base = events.data();
    b.start = history.stamp();
    b.returned = broker->publish_batch(events);
    b.end = history.stamp();
    b.notices = notices;
    batches.push_back(std::move(b));
  };

  publish();
  // Unsubscribe the first subscription that matches an event of the next
  // batch (events are a function of their index, so the test can look
  // ahead), and fence it.
  const std::uint64_t next_first = all_events.size();
  std::uint32_t victim = 0;
  std::uint32_t victim_event = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < kSpec.population && !found; ++i) {
    for (std::uint32_t e = 0; e < kSpec.batch_events && !found; ++e) {
      if (perfbench::matches(w.exprs()[i], w.event(next_first + e))) {
        victim = i;
        victim_event = e;
        found = true;
      }
    }
  }
  expect(found, "a subscription matching the second batch exists");
  const std::uint32_t victim_id = history.id_of(victim);
  history.begin_unsubscribe(victim);
  expect(broker->unsubscribe(ncps::SubscriptionId(victim_id)), "unsubscribe");
  broker->wait_applied(broker->control_generation());
  history.mark_unsubscribe_fenced(victim);
  publish();
  expect(!batches[0].notices.empty() && !batches[1].notices.empty(),
         "both batches deliver notifications");

  // Runs the checker over the recorded batches after `mutate`.
  const auto check = [&](std::size_t stride, const Mutation& mutate) {
    std::vector<Batch> copy = batches;
    mutate(copy);
    Checker checker(w.exprs(), history, stride);
    for (const Batch& b : copy) {
      checker.check_batch(b.refs, b.first, b.notices, b.returned, b.start,
                          b.end);
    }
    checker.finish([&](std::uint64_t i) { return all_events.at(i); });
    return checker.failures();
  };

  // Clean streams pass, on the full-comparison path (stride 1) and with the
  // second batch on the pairwise path (stride 2).
  for (const std::size_t stride : {1, 2}) {
    const auto f = check(stride, [](std::vector<Batch>&) {});
    for (const std::string& s : f) {
      std::printf("     unexpected: %s\n", s.c_str());
    }
    expect(f.empty(), "clean stream passes, stride " + std::to_string(stride));
  }

  // A dropped notification: only the completeness comparison can see it.
  {
    const auto f = check(1, [](std::vector<Batch>& b) {
      std::vector<Notice>& n = b[0].notices;
      n.erase(n.begin() + static_cast<std::ptrdiff_t>(n.size() / 2));
      b[0].returned -= 1;
    });
    expect(any_contains(f, "missing notification"),
           "dropped notification is caught");
  }

  // An added false notification: a live subscription that does not match
  // event 0. On batch 0 with stride 1 the full comparison catches it; on
  // batch 1 with stride 2 the pairwise check does.
  for (const std::size_t stride : {1, 2}) {
    const std::size_t target = stride == 1 ? 0 : 1;
    const auto f = check(stride, [&](std::vector<Batch>& b) {
      const RefEvent& event = b[target].refs[0];
      for (std::uint32_t i = 0; i < kSpec.population; ++i) {
        if (i == victim || perfbench::matches(w.exprs()[i], event)) continue;
        insert_in_order(b[target], {0, history.id_of(i), owner_of(i)});
        return;
      }
    });
    expect(any_contains(f, "false notification"),
           "added false notification is caught, stride " +
               std::to_string(stride));
  }

  // Two notifications of one event swapped.
  {
    const auto f = check(1, [](std::vector<Batch>& b) {
      std::vector<Notice>& n = b[0].notices;
      for (std::size_t i = 0; i + 1 < n.size(); ++i) {
        if (n[i].event == n[i + 1].event) {
          std::swap(n[i], n[i + 1]);
          return;
        }
      }
    });
    expect(any_contains(f, "ascending subscription id order"),
           "swapped order is caught");
  }

  // A notification after the unsubscribe's fence returned: the victim
  // matches this event, so only the liveness check can reject it.
  {
    const auto f = check(1, [&](std::vector<Batch>& b) {
      insert_in_order(b[1], {victim_event, victim_id, owner_of(victim)});
    });
    expect(any_contains(f, "not live in the batch"),
           "notification after the unsubscribe fence is caught");
  }

  // A return value that disagrees with the callbacks counted.
  {
    const auto f =
        check(1, [](std::vector<Batch>& b) { b[0].returned += 1; });
    expect(any_contains(f, "callbacks ran"),
           "wrong publish_batch return is caught");
  }

  std::printf("%s\n", g_failed == 0 ? "all checks behave" : "SELF-TEST FAILED");
  return g_failed == 0 ? 0 : 1;
}
