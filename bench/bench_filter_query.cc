// Filter query-path microbenchmarks at m = 64 attributes:
//   MX pair filter:      O(s·|A|)           with s = m/eps pairs
//   tuple filter (sort): O(r log r · |A|)   with r = m/sqrt(eps) tuples
//   tuple filter (hash): expected O(r·|A|)
//   bitset filter:       word-wise AND over packed pair evidence
//
// Part 1 regenerates the per-query separation behind Table 1's T
// columns, now including the packed backend. Part 2 is the batched
// enumeration workload (QueryBatch over a 512-candidate pool): the
// bitset backend must beat the scalar tuple-sample backend by >= 10x
// there — asserted, and recorded in the JSON for CI's baseline check.
// Part 3 forces each evidence-kernel dispatch tier (scalar / avx2)
// over the same batch, self-checking bit-identical verdicts;
// the scalar rows double as the differential oracle's timing. Each
// tier runs twice: over the full evidence that discovery queries, and
// (rows with evidence=antichain) over its minimal-mask antichain, the
// evidence a served snapshot answers from.
//
//   ./bench_filter_query [--json PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/bitset_filter.h"
#include "core/evidence_block.h"
#include "core/mx_pair_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/generators/tabular.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace qikey {
namespace {

/// A 64-attribute categorical table (survey-like cardinality mix:
/// binary flags through ~10^3-value codes, mild skew) — the regime the
/// tentpole's "64 attributes = one mask word" kernel targets.
Dataset MakeWideTable(uint64_t rows, Rng* rng) {
  TabularSpec spec;
  spec.num_rows = rows;
  for (int j = 0; j < 64; ++j) {
    AttributeSpec attr;
    // += instead of "a" + to_string: gcc 12 -Wrestrict FP (PR105651).
    attr.name = "a";
    attr.name += std::to_string(j);
    switch (j % 4) {
      case 0:
        attr.cardinality = 2;  // indicator
        break;
      case 1:
        attr.cardinality = 8;
        attr.zipf_exponent = 0.8;
        break;
      case 2:
        attr.cardinality = 64;
        attr.zipf_exponent = 0.5;
        break;
      default:
        attr.cardinality = 1024;  // high-cardinality code
        break;
    }
    spec.attributes.push_back(attr);
  }
  return MakeTabular(spec, rng);
}

struct Fixture {
  double eps = 0.0;
  std::unique_ptr<MxPairFilter> mx;
  std::unique_ptr<TupleSampleFilter> ts_sort;
  std::unique_ptr<TupleSampleFilter> ts_hash;
  std::unique_ptr<BitsetSeparationFilter> bitset;
};

Fixture MakeFixture(const Dataset& d, double eps) {
  Fixture fx;
  fx.eps = eps;
  // The bitset filter draws the SAME pairs as the MX filter (shared
  // seed), so their verdicts are bit-identical and the comparison is
  // kernel vs kernel, not sample vs sample.
  Rng mx_rng(2024), bs_rng(2024), ts_rng(77);
  MxPairFilterOptions mx_opts;
  mx_opts.eps = eps;
  fx.mx = std::make_unique<MxPairFilter>(
      MxPairFilter::Build(d, mx_opts, &mx_rng).ValueOrDie());
  BitsetFilterOptions bs_opts;
  bs_opts.eps = eps;
  fx.bitset = std::make_unique<BitsetSeparationFilter>(
      BitsetSeparationFilter::Build(d, bs_opts, &bs_rng).ValueOrDie());

  TupleSampleFilterOptions ts_opts;
  ts_opts.eps = eps;
  ts_opts.detection = DuplicateDetection::kSort;
  fx.ts_sort = std::make_unique<TupleSampleFilter>(
      TupleSampleFilter::Build(d, ts_opts, &ts_rng).ValueOrDie());
  ts_opts.detection = DuplicateDetection::kHash;
  fx.ts_hash = std::make_unique<TupleSampleFilter>(
      TupleSampleFilter::Build(d, ts_opts, &ts_rng).ValueOrDie());
  return fx;
}

std::vector<AttributeSet> MakeQueries(size_t m, size_t query_size,
                                      size_t count, uint64_t seed) {
  Rng qrng(seed);
  std::vector<AttributeSet> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(AttributeSet::RandomOfSize(m, query_size, &qrng));
  }
  return queries;
}

std::string FmtEps(double eps) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", eps);
  return buffer;
}

/// Times `rounds` passes of one-Query-per-candidate over the pool.
double SerialNsPerQuery(const SeparationFilter& filter,
                        const std::vector<AttributeSet>& queries,
                        size_t rounds) {
  // One warm pass keeps first-touch page faults out of the clock.
  for (const AttributeSet& q : queries) (void)filter.Query(q);
  Timer timer;
  for (size_t p = 0; p < rounds; ++p) {
    for (const AttributeSet& q : queries) (void)filter.Query(q);
  }
  return timer.ElapsedMillis() * 1e6 / (rounds * queries.size());
}

void BenchSerialQueries(const Fixture& fx, size_t query_size,
                        const std::vector<AttributeSet>& queries,
                        BenchJsonWriter* json) {
  struct Row {
    const char* name;
    const SeparationFilter* filter;
    uint64_t sample;
  };
  const Row rows[] = {
      {"mx-pair", fx.mx.get(), fx.mx->sample_size()},
      {"tuple-sort", fx.ts_sort.get(), fx.ts_sort->sample_size()},
      {"tuple-hash", fx.ts_hash.get(), fx.ts_hash->sample_size()},
      {"bitset", fx.bitset.get(), fx.bitset->sample_size()},
  };
  for (const Row& row : rows) {
    // Slower filters get fewer rounds; the pool is 32 queries either way.
    size_t rounds = fx.eps < 0.005 ? 4 : 16;
    double ns = SerialNsPerQuery(*row.filter, queries, rounds);
    std::printf("  %-11s eps=%-6g |A|=%-3zu %12.1f ns/query  (sample %llu)\n",
                row.name, fx.eps, query_size, ns,
                static_cast<unsigned long long>(row.sample));
    json->Add("filter_query_serial",
              {{"filter", row.name},
               {"eps", FmtEps(fx.eps)},
               {"query_size", std::to_string(query_size)}},
              ns, 1e9 / ns);
  }
}

/// Returns ns/query of `filter.QueryBatch` over the pool (serial, the
/// enumeration workload), verifying the verdicts against `expect`.
double BatchNsPerQuery(const SeparationFilter& filter,
                       const std::vector<AttributeSet>& queries,
                       const std::vector<FilterVerdict>* expect,
                       size_t rounds) {
  std::vector<FilterVerdict> verdicts = filter.QueryBatch(queries, nullptr);
  if (expect != nullptr) QIKEY_CHECK(verdicts == *expect);
  Timer timer;
  for (size_t p = 0; p < rounds; ++p) {
    verdicts = filter.QueryBatch(queries, nullptr);
  }
  return timer.ElapsedMillis() * 1e6 / (rounds * queries.size());
}

/// The acceptance benchmark: batched queries at 64 attributes, bitset
/// vs scalar tuple-sample, identical retained sample. Returns the
/// bitset speedup.
double BenchBatch(const Fixture& fx, size_t query_size,
                  BenchJsonWriter* json) {
  std::vector<AttributeSet> pool = MakeQueries(64, query_size, 512, 99);
  // Same sampled pairs (shared seed) -> the bitset verdicts must equal
  // the scalar MX verdicts; checked inside BatchNsPerQuery.
  std::vector<FilterVerdict> expect = fx.mx->QueryBatch(pool, nullptr);
  size_t rejected = 0;
  for (FilterVerdict v : expect) rejected += v == FilterVerdict::kReject;

  double scalar_ns = BatchNsPerQuery(*fx.ts_sort, pool, nullptr,
                                     fx.eps < 0.005 ? 2 : 8);
  double bitset_ns = BatchNsPerQuery(*fx.bitset, pool, &expect, 24);
  double speedup = scalar_ns / bitset_ns;
  const PackedEvidence& ev = fx.bitset->evidence();
  std::printf(
      "  batch eps=%-6g |A|=%-3zu tuple-sort %10.1f ns/q | bitset %9.1f "
      "ns/q | %6.1fx  (%zu/512 rejected, %llu pairs packed of %llu)\n",
      fx.eps, query_size, scalar_ns, bitset_ns, speedup, rejected,
      static_cast<unsigned long long>(ev.num_pairs()),
      static_cast<unsigned long long>(ev.source_pairs()));
  json->Add("filter_query_batch",
            {{"filter", "tuple-sort"},
             {"eps", FmtEps(fx.eps)},
             {"query_size", std::to_string(query_size)}},
            scalar_ns, 1e9 / scalar_ns);
  json->Add("filter_query_batch",
            {{"filter", "bitset"},
             {"eps", FmtEps(fx.eps)},
             {"query_size", std::to_string(query_size)}},
            bitset_ns, 1e9 / bitset_ns);
  json->Add("filter_query_batch_speedup",
            {{"eps", FmtEps(fx.eps)},
             {"query_size", std::to_string(query_size)}},
            speedup, speedup);
  return speedup;
}

/// Scalar vs SIMD on the SAME filter and pool: forces each dispatch
/// tier in turn, timing the batched kernel and self-checking that every
/// tier reproduces the scalar verdicts bit-for-bit (the scalar path is
/// the differential oracle). Returns best_simd_speedup over scalar, or
/// 1.0 when the CPU has no vector tier.
double BenchKernelTiers(const Fixture& fx, size_t query_size,
                        BenchJsonWriter* json) {
  std::vector<AttributeSet> pool = MakeQueries(64, query_size, 512, 99);
  QIKEY_CHECK(SetEvidenceKernel("scalar").ok());
  std::vector<FilterVerdict> expect = fx.bitset->QueryBatch(pool, nullptr);
  const BitsetSeparationFilter antichain =
      BitsetSeparationFilter::FromPackedEvidence(
          fx.bitset->evidence().MinimalAntichain(), fx.bitset->sample_size())
          .ValueOrDie();
  struct Evidence {
    const char* label;  // the row's evidence param; none for full
    const BitsetSeparationFilter* filter;
  };
  double best_speedup = 1.0;
  const Evidence evidences[] = {{nullptr, fx.bitset.get()},
                                {"antichain", &antichain}};
  for (const Evidence& ev : evidences) {
    std::printf("  %s evidence: %zu of %llu pairs\n",
                ev.label != nullptr ? ev.label : "full",
                ev.filter->evidence().num_pairs(),
                static_cast<unsigned long long>(ev.filter->sample_size()));
    double scalar_ns = 0.0;
    for (const char* kernel : {"scalar", "avx2"}) {
      if (!SetEvidenceKernel(kernel).ok()) continue;  // CPU lacks the tier
      // Same verdicts on every tier, from either evidence.
      const double ns = BatchNsPerQuery(*ev.filter, pool, &expect, 24);
      if (scalar_ns == 0.0) scalar_ns = ns;
      const double speedup = scalar_ns / ns;
      if (ev.label == nullptr) best_speedup = std::max(best_speedup, speedup);
      std::printf("  kernel eps=%-6g |A|=%-3zu %-7s %10.1f ns/q  %6.2fx over "
                  "scalar\n",
                  fx.eps, query_size, kernel, ns, speedup);
      BenchJsonWriter::Params params = {
          {"kernel", kernel},
          {"eps", FmtEps(fx.eps)},
          {"query_size", std::to_string(query_size)}};
      if (ev.label != nullptr) params.emplace_back("evidence", ev.label);
      json->Add("filter_query_kernel", params, ns, 1e9 / ns);
    }
  }
  QIKEY_CHECK(SetEvidenceKernel("auto").ok());
  return best_speedup;
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  qikey::Rng rng(2024);
  qikey::Dataset d = qikey::MakeWideTable(100000, &rng);
  std::printf("filter query paths: n=%zu m=%zu\n\n", d.num_rows(),
              d.num_attributes());

  qikey::BenchJsonWriter json;
  std::printf("serial Query (32-query pool):\n");
  for (double eps : {0.01, 0.001}) {
    qikey::Fixture fx = qikey::MakeFixture(d, eps);
    for (size_t query_size : {4u, 16u}) {
      std::vector<qikey::AttributeSet> queries =
          qikey::MakeQueries(64, query_size, 32, 7);
      qikey::BenchSerialQueries(fx, query_size, queries, &json);
    }
  }

  std::printf("\nbatched QueryBatch, 512 candidates (the enumeration "
              "workload):\n");
  double min_speedup = 1e30;
  for (double eps : {0.01, 0.001}) {
    qikey::Fixture fx = qikey::MakeFixture(d, eps);
    for (size_t query_size : {8u, 24u}) {
      double speedup = qikey::BenchBatch(fx, query_size, &json);
      if (eps == 0.001) min_speedup = std::min(min_speedup, speedup);
    }
  }

  std::printf("\nevidence-kernel dispatch tiers (512-candidate batch, "
              "active: %s):\n",
              qikey::EvidenceKernelName(qikey::ActiveEvidenceKernel()));
  for (double eps : {0.01, 0.001}) {
    qikey::Fixture fx = qikey::MakeFixture(d, eps);
    for (size_t query_size : {8u, 24u}) {
      (void)qikey::BenchKernelTiers(fx, query_size, &json);
    }
  }

  std::printf("\nReading: the bitset backend answers the same verdicts from "
              "the same sample;\nthe acceptance gate is >= 10x batched "
              "throughput at eps=0.001 (got %.1fx).\n", min_speedup);
  // Persist the measurements BEFORE the fatal gate: when the gate trips
  // on a throttled runner, the uploaded json is the diagnosis.
  if (!json.WriteToFile(json_path)) return 1;
  // The acceptance criterion, raised from the scalar-era 4x once the
  // SIMD tiers landed: the block kernel measures ~42x over tuple-sort
  // at eps=0.001 (30x before vectorization); 10x still leaves margin
  // for throttled CI runners while catching any dispatch regression
  // that silently drops the kernel back below the scalar floor.
  QIKEY_CHECK(min_speedup >= 10.0)
      << "bitset QueryBatch speedup fell below 10x: " << min_speedup;
  return 0;
}
