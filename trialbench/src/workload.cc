#include "workload.h"

#include <algorithm>
#include <utility>

#include "rdf/ntriples.h"

namespace trialbench {
namespace {

constexpr const char* kBase = "http://db.example.org/";
constexpr const char* kCompose = "JOIN[1,2,3'; 3=1']";

std::vector<std::string> PresentSubjects(const trial::TripleStore& store) {
  const trial::SyntheticNTriplesOptions gen =
      GeneratorOptions(/*seed=*/0, kDefaultTriples);
  std::vector<std::string> out;
  for (size_t r = 0; r < gen.num_subjects; ++r) {
    std::string iri = SubjectIri(r);
    if (store.FindObject(iri) != trial::kInvalidIntern) {
      out.push_back(std::move(iri));
    }
  }
  return out;
}

std::string Quoted(std::string_view iri) {
  std::string s = "\"";
  s += iri;
  s += '"';
  return s;
}

}  // namespace

trial::SyntheticNTriplesOptions GeneratorOptions(uint64_t seed,
                                                 size_t triples) {
  trial::SyntheticNTriplesOptions o;
  o.num_triples = triples;
  o.num_subjects = kDefaultTriples / 8 + 4;
  o.num_predicates = kDefaultTriples / 64 + 4;
  o.num_objects = kDefaultTriples / 8 + 4;
  o.zipf_p = 1.2;
  o.zipf_o = 0.4;
  o.base = kBase;
  o.seed = seed;
  return o;
}

trial::SyntheticNTriplesOptions WritePoolOptions(uint64_t seed,
                                                 size_t triples) {
  trial::SyntheticNTriplesOptions o = GeneratorOptions(seed, triples);
  o.num_subjects += o.num_subjects / 8;
  o.num_objects += o.num_objects / 8;
  o.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  return o;
}

std::string PredicateIri(size_t rank) {
  return std::string(kBase) + "p" + std::to_string(rank);
}

std::string SubjectIri(size_t rank) {
  return std::string(kBase) + "s" + std::to_string(rank);
}

const char* TemplateName(Template t) {
  switch (t) {
    case Template::kPoint: return "point";
    case Template::kHop2: return "hop2";
    case Template::kHop3: return "hop3";
    case Template::kRevHop: return "rev_hop";
  }
  return "?";
}

std::string TemplateQuery(Template t, std::string_view subject) {
  const std::string sel = "sigma[1=" + Quoted(subject) + "](E)";
  const std::string hop2 = "(" + sel + " " + kCompose + " E)";
  switch (t) {
    case Template::kPoint: return sel;
    case Template::kHop2: return hop2;
    case Template::kHop3: return "(" + hop2 + " " + kCompose + " E)";
    case Template::kRevHop: return std::string("(E ") + kCompose + " " + sel + ")";
  }
  return sel;
}

std::string StarQuery(std::string_view predicate) {
  return "(sigma[2=" + Quoted(predicate) + "](E) " + kCompose + ")*";
}

std::string PresentPredicate(const trial::TripleStore& store, size_t rank) {
  for (size_t r = rank + 1; r-- > 0;) {
    std::string iri = PredicateIri(r);
    if (store.FindObject(iri) != trial::kInvalidIntern) return iri;
  }
  return PredicateIri(0);
}

std::vector<AnalyticQuery> AnalyticList(const trial::TripleStore& store) {
  const std::string p2 = Quoted(PresentPredicate(store, 2));
  const std::string p3 = Quoted(PresentPredicate(store, 3));
  std::vector<AnalyticQuery> list;
  list.push_back({"compose", std::string("(E ") + kCompose + " E)", false});
  // Written in a poor order on purpose: the DP reorderer must start
  // from the selective σ[2=p3] leaf.
  list.push_back({"chain3",
                  std::string("((E ") + kCompose + " E) " + kCompose +
                      " sigma[2=" + p3 + "](E))",
                  false});
  for (size_t r : {size_t{0}, size_t{30}, size_t{300}}) {
    list.push_back({"star_p" + std::to_string(r),
                    StarQuery(PresentPredicate(store, r)), false});
  }
  list.push_back({"star_same_middle", "(E JOIN[1,2,3'; 3=1', 2=2'])*", false});
  // ReachTripleDatalog shape (a base rule plus one linear recursive
  // rule), so the program also translates to TriAL* for the naive check.
  list.push_back({"datalog_reach",
                  "base(X, Y, Z) :- E(X, Y, Z), Y = " + p2 + ".\n"
                  "ans(X, Y, Z) :- base(X, Y, Z).\n"
                  "ans(X, Y, W) :- ans(X, Y, Z), base(Z, P, W).\n",
                  true});
  return list;
}

AnchorPicker::AnchorPicker(const trial::TripleStore& store)
    : subjects_(PresentSubjects(store)),
      zipf_(std::max<size_t>(subjects_.size(), 1), 0.8) {}

std::vector<std::array<std::string, 3>> ParseNameTriples(
    std::string_view text) {
  std::vector<std::array<std::string, 3>> out;
  trial::ParseOptions opts;
  (void)trial::ParseNTriplesChunk(
      text, opts, 1,
      [&out](std::string_view s, std::string_view p, std::string_view o) {
        out.push_back({std::string(s), std::string(p), std::string(o)});
      },
      nullptr);
  return out;
}

}  // namespace trialbench
