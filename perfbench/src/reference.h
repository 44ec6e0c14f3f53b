// Brute-force reference matcher.
//
// A subscription is kept in the benchmark's own form — an AND of OR groups
// of integer predicates, the shape every workload generates — and its
// subscription text is printed from that form. match() evaluates the
// expression directly on the event's attribute values. It shares no code
// with the library's index, engines or forest, so a fault there cannot hide
// in the reference.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Op : std::uint8_t { Gt, Le, Eq, Ge, Lt, Between };

struct RefPredicate {
  std::uint32_t attr = 0;
  Op op = Op::Eq;
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // Between only (inclusive)
};

/// AND over groups; group g is OR over preds[group_begin(g), group_end[g]).
struct RefExpr {
  static constexpr std::size_t kMaxGroups = 8;
  std::vector<RefPredicate> preds;
  std::array<std::uint8_t, kMaxGroups> group_end{};
  std::uint8_t groups = 0;
};

/// An event as the benchmark generates it: one slot per schema attribute.
struct RefEvent {
  std::vector<std::int64_t> values;
  std::vector<std::uint8_t> present;
};

inline bool holds(const RefPredicate& p, const RefEvent& e) {
  if (!e.present[p.attr]) return false;
  const std::int64_t v = e.values[p.attr];
  switch (p.op) {
    case Op::Gt: return v > p.lo;
    case Op::Le: return v <= p.lo;
    case Op::Eq: return v == p.lo;
    case Op::Ge: return v >= p.lo;
    case Op::Lt: return v < p.lo;
    case Op::Between: return v >= p.lo && v <= p.hi;
  }
  return false;
}

inline bool matches(const RefExpr& s, const RefEvent& e) {
  std::size_t begin = 0;
  for (std::size_t g = 0; g < s.groups; ++g) {
    const std::size_t end = s.group_end[g];
    bool any = false;
    for (std::size_t i = begin; i < end && !any; ++i) {
      any = holds(s.preds[i], e);
    }
    if (!any) return false;
    begin = end;
  }
  return s.groups > 0;
}

}  // namespace perfbench
