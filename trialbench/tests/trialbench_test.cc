// The benchmark's own tests: inputs are a pure function of the seed,
// the oracles agree with the engine and flag a corrupted result, and
// span self times subtract child spans.
//
//   cmake --build .bench_build --target trialbench_test
//   ctest --test-dir .bench_build

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/parser.h"
#include "loader/bulk_load.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace trialbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

constexpr size_t kSmall = 4096;

trial::TripleStore LoadSmall(uint64_t seed) {
  trial::BulkLoadOptions lo;
  lo.num_threads = 1;
  trial::Result<trial::TripleStore> s = trial::BulkLoadNTriples(
      trial::SyntheticNTriples(GeneratorOptions(seed, kSmall)), lo);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*s);
}

trial::TripleSet Eval(const std::string& text, const trial::TripleStore& store) {
  trial::Result<trial::ExprPtr> e = trial::ParseTriAL(text, &store);
  CHECK(e.ok());
  trial::Result<trial::TripleSet> r = trial::MakeSmartEvaluator()->Eval(*e, store);
  CHECK(r.ok());
  return r.ok() ? std::move(*r) : trial::TripleSet();
}

void SameSeedSameInputs() {
  const std::string a = trial::SyntheticNTriples(GeneratorOptions(7, kSmall));
  const std::string b = trial::SyntheticNTriples(GeneratorOptions(7, kSmall));
  const std::string c = trial::SyntheticNTriples(GeneratorOptions(8, kSmall));
  CHECK(!a.empty());
  CHECK(a == b);
  CHECK(a != c);
  CHECK(trial::SyntheticNTriples(WritePoolOptions(7, 1000)) ==
        trial::SyntheticNTriples(WritePoolOptions(7, 1000)));
  CHECK(trial::SyntheticNTriples(WritePoolOptions(7, 1000)) !=
        trial::SyntheticNTriples(GeneratorOptions(7, 1000)));

  // The query sequence is a function of the seed and the store too.
  trial::TripleStore store = LoadSmall(7);
  AnchorPicker picker(store);
  CHECK(picker.size() > 0);
  trial::Rng r1(99), r2(99);
  for (int i = 0; i < 100; ++i) CHECK(picker.Pick(&r1) == picker.Pick(&r2));
  CHECK(AnalyticList(store).size() == 7);
}

void OracleAgreesAndFlagsCorruption() {
  trial::TripleStore store = LoadSmall(3);
  const trial::TripleSet& e = *store.FindRelation("E");
  AnchorPicker picker(store);
  trial::Rng rng(5);
  size_t nonempty = 0;
  for (int i = 0; i < 40; ++i) {
    const Template t = static_cast<Template>(i % kNumTemplates);
    const std::string& anchor = picker.Pick(&rng);
    trial::TripleSet got = Eval(TemplateQuery(t, anchor), store);
    std::vector<trial::Triple> want =
        TemplateOracle(e, t, store.FindObject(anchor));
    CHECK(SameRows(got, want));
    if (want.empty()) continue;
    ++nonempty;
    // A lost row, an extra row and a changed row are all flagged, and
    // the changed row moves the checksum.
    const trial::Triple bogus{0, 0, trial::kInvalidIntern - 1};
    std::vector<trial::Triple> rows = got.triples();
    std::vector<trial::Triple> lost(rows.begin() + 1, rows.end());
    CHECK(!SameRows(trial::TripleSet(lost), want));
    std::vector<trial::Triple> extra = rows;
    extra.push_back(bogus);
    CHECK(!SameRows(trial::TripleSet(extra), want));
    std::vector<trial::Triple> changed = rows;
    changed[0] = bogus;
    trial::TripleSet changed_set(changed);
    CHECK(!SameRows(changed_set, want));
    CHECK(Checksum(changed_set.triples()) != Checksum(want));
  }
  CHECK(nonempty > 0);

  const std::string p = PresentPredicate(store, 0);
  trial::TripleSet star = Eval(StarQuery(p), store);
  std::vector<trial::Triple> want = StarOracle(e, store.FindObject(p));
  CHECK(!want.empty());
  CHECK(SameRows(star, want));
  std::vector<trial::Triple> rows = star.triples();
  rows.pop_back();
  CHECK(!SameRows(trial::TripleSet(rows), want));
}

void SelfTimeSubtractsChildren() {
  SpanRecorder rec;
  CHECK(rec.Begin("off", 1) == -1);
  rec.set_enabled(true);
  {
    ScopedSpan root(&rec, "query", 1);
    { ScopedSpan child(&rec, "eval", 1); }
    { ScopedSpan child(&rec, "set.normalize", 1); }
  }
  CHECK(rec.size() == 3);
  CHECK(rec.spans()[1].parent == 0);
  CHECK(rec.spans()[2].parent == 0);
  const auto layers = rec.Layers();
  const LayerTime& q = layers.at("query");
  const uint64_t children = layers.at("eval").total_ns +
                            layers.at("set.normalize").total_ns;
  CHECK(q.count == 1);
  CHECK(q.self_ns + children == q.total_ns);
}

}  // namespace
}  // namespace trialbench

int main() {
  trialbench::SameSeedSameInputs();
  trialbench::OracleAgreesAndFlagsCorruption();
  trialbench::SelfTimeSubtractsChildren();
  if (trialbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", trialbench::failures);
    return 1;
  }
  std::printf("trialbench_test: all checks passed\n");
  return 0;
}
