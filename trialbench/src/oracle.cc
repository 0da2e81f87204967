#include "oracle.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace trialbench {
namespace {

using trial::ObjId;
using trial::Triple;

void SortUnique(std::vector<Triple>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Objects reachable from `from` (inclusive) by following s -> o edges.
std::vector<ObjId> Reachable(
    ObjId from, const std::unordered_map<ObjId, std::vector<ObjId>>& adj) {
  std::vector<ObjId> order{from};
  std::unordered_set<ObjId> seen{from};
  for (size_t i = 0; i < order.size(); ++i) {
    auto it = adj.find(order[i]);
    if (it == adj.end()) continue;
    for (ObjId next : it->second) {
      if (seen.insert(next).second) order.push_back(next);
    }
  }
  return order;
}

}  // namespace

std::vector<Triple> TemplateOracle(const trial::TripleSet& e, Template t,
                                   ObjId s) {
  std::vector<Triple> out;
  if (t == Template::kRevHop) {
    for (const Triple& in : e.Lookup(2, s)) {
      for (const Triple& w : e.Lookup(0, s)) out.push_back({in.s, in.p, w.o});
    }
    SortUnique(&out);
    return out;
  }
  const int hops = t == Template::kPoint ? 0 : t == Template::kHop2 ? 1 : 2;
  for (const Triple& first : e.Lookup(0, s)) {
    std::vector<ObjId> ends{first.o};
    for (int h = 0; h < hops; ++h) {
      std::vector<ObjId> next;
      for (ObjId mid : ends) {
        for (const Triple& u : e.Lookup(0, mid)) next.push_back(u.o);
      }
      ends.swap(next);
    }
    for (ObjId end : ends) out.push_back({first.s, first.p, end});
  }
  SortUnique(&out);
  return out;
}

std::vector<Triple> StarOracle(const trial::TripleSet& e, ObjId p) {
  std::vector<Triple> base;
  std::unordered_map<ObjId, std::vector<ObjId>> adj;
  for (const Triple& t : e.Lookup(1, p)) {
    base.push_back(t);
    adj[t.s].push_back(t.o);
  }
  std::unordered_map<ObjId, std::vector<ObjId>> reach;
  std::vector<Triple> out;
  for (const Triple& t : base) {
    auto it = reach.find(t.o);
    if (it == reach.end()) it = reach.emplace(t.o, Reachable(t.o, adj)).first;
    for (ObjId w : it->second) out.push_back({t.s, t.p, w});
  }
  SortUnique(&out);
  return out;
}

bool SameRows(const trial::TripleSet& got, const std::vector<Triple>& want) {
  const std::vector<Triple>& rows = got.triples();
  return rows.size() == want.size() &&
         std::equal(rows.begin(), rows.end(), want.begin());
}

uint64_t Checksum(const std::vector<Triple>& rows) {
  uint64_t h = 0;
  for (const Triple& t : rows) h = ChecksumStep(h, t);
  return h;
}

}  // namespace trialbench
